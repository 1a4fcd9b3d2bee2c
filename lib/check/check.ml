(* The checker orchestrator: run a scenario under the three analysis
   passes and report what they found.

   A scenario is run once as the *baseline* — FIFO same-instant ordering —
   and then [seeds] more times, each under a different seeded permutation
   of same-instant event ordering.  Every run carries the full pass set:
   the lifecycle sanitizer, every invariant monitor, and the logical trace
   hash, so protocol correctness is checked under each permutation, not
   just the FIFO schedule.  A seeded run whose logical trace hash differs
   from the baseline is a determinism violation; a run whose rendered
   *measurements* differ while the logical trace is identical is reported
   as a note — the contention model legitimately resolves same-instant
   CPU/wire ties in permutation order, which moves timing-level numbers
   the way two runs on real hardware would.

   All probe state is process-global, so runs are strictly serialized and
   the sink / tie-break default are restored even when a scenario run
   raises. *)

open Engine

(* This module shares the library's name, so it is the library's public
   face: re-export the passes for callers (tests, the CLI). *)
module Violation = Violation
module Lifecycle = Lifecycle
module Invariants = Invariants
module Determinism = Determinism
module Experiment = Experiment
module Scenario = Scenario
module Soak = Soak
module Slo = Slo

type report = {
  scenario : string;
  violations : Violation.t list;
  notes : string list;
  baseline_hash : string;
  output : string;  (* rendered figure/stat text of the baseline run *)
  runs : int;  (* baseline + seeded re-runs completed *)
}

let ok r = r.violations = []

(* Renders the scenario into a buffer: the returned text doubles as the
   run's behavioural fingerprint for the determinism pass. *)
let render (sc : Scenario.t) =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  sc.run fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* Runs the scenario once with every pass attached: the passes' findings
   and rendered output ([result]), and the run's logical trace. *)
let one_run ?tie_break (sc : Scenario.t) =
  let trace = Determinism.create () in
  Sim.set_default_tie_break tie_break;
  let r =
    Passes.run ~leak_check:(not sc.truncated)
      ~also:(Determinism.on_event trace) (fun () -> render sc)
  in
  Sim.set_default_tie_break None;
  (r, trace)

let seed_of_index i = 0x5EED0 + (i * 7919)

let retag_seed seed (v : Violation.t) =
  { v with Violation.detail = Printf.sprintf "under seed %d: %s" seed v.detail }

let run_scenario ?(seeds = 3) (sc : Scenario.t) : report =
  let baseline, base_trace = one_run sc in
  let base_hash = Determinism.result base_trace in
  (* Seeded re-runs only make sense against a baseline that finished. *)
  let violations, notes, runs =
    if baseline.result = None then (baseline.violations, baseline.notes, 1)
    else
      let rec go i vs ns runs =
        if i > seeds then (vs, ns, runs)
        else
          let seed = seed_of_index i in
          let r, trace = one_run ~tie_break:seed sc in
          let hash = Determinism.result trace in
          let vs = vs @ List.map (retag_seed seed) r.violations in
          (* For runs truncated by a wall-clock bound, per-stream progress
             at the cut legitimately depends on timing: compare the common
             prefix of each stream instead of the full trace. *)
          let diverged_stream =
            if sc.truncated then
              match Determinism.prefix_divergence base_trace trace with
              | Some key -> Some (Printf.sprintf "stream %S diverges" key)
              | None -> None
            else if hash <> base_hash then
              Some
                (Printf.sprintf "trace hash %s differs from baseline %s" hash
                   base_hash)
            else None
          in
          let vs, ns =
            if r.result = None then (vs, ns)
            else
              match diverged_stream with
              | Some what ->
                  ( vs
                    @ [
                        Violation.make ~pass:"determinism"
                          ~rule:"trace-divergence" ~time_ns:0
                          (Printf.sprintf
                             "seed %d: %s (rendered results %s)" seed what
                             (if r.result = baseline.result then
                                "identical"
                              else "also differ"));
                      ],
                    ns )
              | None ->
                  if r.result <> baseline.result then
                    ( vs,
                      ns
                      @ [
                          Printf.sprintf
                            "seed %d: %s logical trace, but measured \
                             numbers shift with same-instant contention \
                             ordering"
                            seed
                            (if sc.truncated then "prefix-consistent"
                             else "identical");
                        ] )
                  else (vs, ns)
          in
          go (i + 1) vs ns (runs + 1)
      in
      go 1 baseline.violations baseline.notes 1
  in
  {
    scenario = sc.name;
    violations = List.sort Violation.by_time violations;
    notes;
    baseline_hash = base_hash;
    output = Option.value baseline.result ~default:"";
    runs;
  }

let pp_report fmt r =
  Format.fprintf fmt "@[<v>%s: %s (%d runs, hash %s)@," r.scenario
    (if ok r then "clean" else Printf.sprintf "%d violation(s)"
                                 (List.length r.violations))
    r.runs
    (String.sub r.baseline_hash 0 (min 12 (String.length r.baseline_hash)));
  List.iter (fun v -> Format.fprintf fmt "  %a@," Violation.pp v) r.violations;
  List.iter (fun n -> Format.fprintf fmt "  note: %s@," n) r.notes;
  Format.fprintf fmt "@]"
