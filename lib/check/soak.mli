(** The chaos-soak harness: randomized fault schedules against the full
    node stack with every sanitizer pass watching.

    For each seed, a rotation of trial templates builds a fresh cluster
    and stresses one axis — composed link weather (loss, duplication,
    jitter, frame corruption), kernel-pool pressure against the
    watermarks, an interrupt storm that must flip the driver into NAPI
    polling, or a node crash with reboot and channel re-establishment.
    Each trial runs under the lifecycle sanitizer and the full invariant
    monitor set; on top of violations, the harness also fails when the
    *evidence counters* show a stress axis never actually fired (a soak
    that never dropped a frame at the hard watermark was not soaking). *)

type row = {
  label : string;  (** as printed: ["node crashes"] *)
  counters : string list;
      (** the {!Engine.Counters} names whose totals the row sums over
          every simulation of every trial, read when each trial ends;
          [[]] for a row its template feeds directly *)
  demand : string option;
      (** the complaint when the full template set ran and [count] is
          still 0; [None] for rows reported but not demanded *)
  mutable count : int;
}
(** One evidence row, summed over every trial of a run. *)

type trial_result = {
  tr_template : string;
  tr_seed : int;
  tr_violations : Violation.t list;
  tr_crashed : bool;
}

type report = {
  s_trials : trial_result list;
  s_evidence : row list;  (** in print order *)
  s_notes : string list;
  s_full_set : bool;
      (** every registered template was in the rotation; when [false]
          (an [only] run) the evidence demands are waived *)
}

val template_names : string list
(** ["crash-reboot"; "pool-crunch"; "irq-storm"; "faults-mesh";
    "incast-storm"; "fabric-cut"; "ecn-collapse"; "gray-soak"]. *)

val default_seeds : int list
(** [[101; 202; 303]] — the seeds CI pins. *)

val run :
  ?seeds:int list ->
  ?trials:int ->
  ?quick:bool ->
  ?only:string list ->
  unit ->
  report
(** [run ()] executes [trials] (default: one per template) trials per
    seed, rotating through the template set ([only] narrows it — evidence
    demands are then waived).  [quick] divides traffic volumes by four.
    Trials always run their simulations to completion, so the lifecycle
    leak check stays on.
    @raise Invalid_argument on [trials <= 0] or an unknown [only] name. *)

val violations : report -> Violation.t list

val missing_evidence : report -> string list
(** The [demand] of every demanded row whose count is still 0, in table
    order, followed by the counters that convicted it:
    ["no frame was ever CE-marked (switch.ecn_marked = 0)"].  Empty when
    the soak exercised everything it promises. *)

val ok : ?require_evidence:bool -> report -> bool
(** No violations, no harness crashes and (unless [require_evidence] is
    false or the template set was narrowed) no missing evidence. *)

val pp_summary : Format.formatter -> report -> unit
(** The summary table: one line per trial, then the evidence counters. *)
