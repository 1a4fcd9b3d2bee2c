(* The checkable scenarios, derived from the experiment registry: each
   experiment's quick run with its output rendered.  The checker cares
   about behaviour, not curve resolution, so sweeps use their quick size
   lists; experiments without a quick mode run as the figure command
   does.

   [truncated] is set for ext4 only: that experiment deliberately cuts
   the run with [Net.run_for] while infinite TCP pump processes are still
   mid-flight.  At the cut, buffers legitimately remain live (so the leak
   check is off) and per-stream progress legitimately depends on timing
   (so the determinism pass compares traces by common prefix instead of
   exact equality). *)

type t = {
  name : string;
  descr : string;
  truncated : bool;
  run : Format.formatter -> unit;
}

(* The slo panel's request-response ordering is timing-coupled and cannot
   be trace-pinned (DESIGN §15), so scenario "slo" hashes the one-way
   companion run instead of the experiment's own. *)
let checked_run (e : Experiment.t) =
  if e.id = "slo" then fun fmt ->
    ignore (Report.Figures.slo_trace ~quick:true fmt)
  else fun fmt -> ignore (e.run ~quick:true fmt)

let of_experiment (e : Experiment.t) =
  { name = e.id; descr = e.descr; truncated = e.truncated; run = checked_run e }

let all = List.map of_experiment Experiment.all
let names = List.map (fun s -> s.name) all
let find name = of_experiment (Experiment.find name)
