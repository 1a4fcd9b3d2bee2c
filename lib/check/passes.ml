(* The per-event passes every checked run carries: the object-lifecycle
   sanitizer and a fresh instance of every registered invariant monitor,
   fed from one probe sink.  [Check] adds the determinism hash on top;
   [Soak] runs these alone. *)

open Engine

type 'a run = {
  result : 'a option;
  violations : Violation.t list;
  notes : string list;
}

(* Probe state is process-global: the sink is removed even when [f]
   raises, and the exception becomes a finding. *)
let run ~leak_check ?(also = ignore) f =
  let lifecycle = Lifecycle.create ~leak_check () in
  let monitors = Invariants.create_all () in
  let now = ref 0 in
  let found = ref [] in
  let rec monitor ev = function
    | [] -> ()
    | (m : Invariants.monitor) :: rest ->
        (match m.on_event ~now:!now ev with
        | Some detail ->
            found :=
              Violation.make ~pass:("invariant:" ^ m.name) ~rule:m.name
                ~time_ns:!now detail
              :: !found
        | None -> ());
        monitor ev rest
  in
  Probe.install (fun ev ->
      (match ev with
      | Probe.Clock { now = n } -> now := n
      | Probe.Sim_start -> now := 0
      | _ -> ());
      Lifecycle.on_event lifecycle ev;
      monitor ev monitors;
      also ev);
  let result, crash =
    Fun.protect ~finally:Probe.uninstall (fun () ->
        match f () with
        | x -> (Some x, [])
        | exception e ->
            ( None,
              [
                Violation.make ~pass:"crash" ~rule:"uncaught-exception"
                  ~time_ns:!now (Printexc.to_string e);
              ] ))
  in
  {
    result;
    violations = Lifecycle.finish lifecycle @ List.rev !found @ crash;
    notes = Lifecycle.notes lifecycle;
  }
