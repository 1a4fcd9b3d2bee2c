(** The experiment registry: every figure, table and extension the
    repository reproduces, listed once.  The CLI ([figure], [list],
    [check], [timeline], [metrics]), the checker's scenarios and the
    benchmark harness all derive from {!all}.

    An entry's [run] renders the experiment and judges its contract.
    Entries are closures, so nothing runs when the module initialises.
    The four experiments that make a claim beyond their numbers (incast,
    fabric, congestion, slo) judge it with the exported contract
    functions below: pure functions from the typed {!Report.Figures}
    result to the violations found, so tests can hand them a made-up
    result.  Every other entry's contract is empty. *)

type t = {
  id : string;
  descr : string;
  truncated : bool;
      (** the run is cut mid-flight on purpose (see {!Scenario.t}) *)
  run : quick:bool -> Format.formatter -> Violation.t list;
      (** render the experiment ([quick]: fewer sizes, messages or
          requests, where the experiment has such a mode) and return its
          contract violations *)
}

val all : t list

val find : string -> t
(** @raise Invalid_argument on an unknown id, naming the known ones. *)

(** {1 Contracts}

    Violations carry pass ["contract:<id>"] and the rule broken. *)

val incast_contract :
  Report.Figures.incast_row list
  * ([ `Tail_drop | `Pause ] * float * int * int * int * float) list ->
  Violation.t list
(** Rules: [delivery] (every message arrives), [workload] (at least 40
    messages per fabric), [collapse] (tail-drop loses frames at the
    uplinks and at egress, pays retransmissions, and the tail-drop gather
    loses frames), [pause-lossless] (the PAUSE fabric and its gather drop
    nothing), [pause-engaged] (PAUSE frames sent, senders held off, shared
    buffer used), [shape] (one row per regime in each panel). *)

val fabric_contract :
  Report.Figures.fabric_row list * Report.Figures.reroute_row ->
  Violation.t list
(** Rules: [delivery], [workload], [collapse] (tail-drop loses frames and
    pays retransmissions), [pause-lossless], [pause-tree] (spine and ToR
    both send XOFF, senders pause, buffers used), [reroute] (everything
    arrives after the spine dies, and the survivor carries more than the
    dead spine did), [shape]. *)

val congestion_contract :
  Report.Figures.congestion_cell list * Report.Figures.bursty_row list ->
  Violation.t list
(** Rules: [delivery] (every cell), [shape] (12 cells, both bursty rows),
    [ecn-lossless] (no drops, no PAUSE), [ecn-marks] (CE marked and
    echoed), [pause-lossless], [no-marks] (tail-drop and PAUSE cells never
    mark CE), [collapse] (some tail-drop cell drops), [sack-saves] (under
    the same bursty loss SACK resends fewer bytes than go-back-N, SACKs
    segments and accounts the savings; go-back-N times out and never
    SACKs). *)

val slo_contract :
  Report.Figures.slo_row list * Slo.verdict -> Violation.t list
(** Rules: [delivery] (every CLIC request answered, none stranded),
    [tail-bleed] (the CLIC fail-slow p999 exceeds the healthy one),
    [shape] (both CLIC rows present), plus every violation of the
    degradation verdict ({!Slo.run_contract}). *)
