(** The per-event passes every checked run carries: the lifecycle
    sanitizer plus a fresh instance of every registered invariant
    monitor, behind one probe sink. *)

type 'a run = {
  result : 'a option;  (** [None] when the run raised *)
  violations : Violation.t list;
      (** lifecycle findings by time, invariant findings in firing order,
          then the crash finding if any *)
  notes : string list;  (** {!Lifecycle.notes} *)
}

val run :
  leak_check:bool -> ?also:(Engine.Probe.event -> unit) -> (unit -> 'a) ->
  'a run
(** Runs [f] with the passes (and [also]) installed as the probe sink. *)
