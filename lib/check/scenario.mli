(** The checkable scenarios: one per {!Experiment.all} entry, in the same
    order, running the experiment's quick mode.  Scenario ["slo"] runs
    {!Report.Figures.slo_trace} instead, the trace-pinnable companion of
    the slo panel.

    The record is concrete so tests can build synthetic scenarios. *)

type t = {
  name : string;
  descr : string;
  truncated : bool;
      (** The run is deliberately cut mid-flight ([Net.run_for]): the
          leak check is waived and determinism is compared by common
          prefix instead of exact equality. *)
  run : Format.formatter -> unit;
}

val all : t list
val names : string list

val find : string -> t
(** @raise Invalid_argument on an unknown name, naming the known ones. *)
