(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation, times each regeneration, and measures the simulation
   engine's raw event throughput.

   Usage:
     dune exec bench/main.exe              # regenerate everything
     dune exec bench/main.exe -- fig5      # one experiment
     dune exec bench/main.exe -- --quick   # smaller sweeps
     dune exec bench/main.exe -- --csv DIR # also write fig4/5/6 as CSV
     dune exec bench/main.exe -- --time
         # wall-clock per experiment (quick mode), min over 3 runs
     dune exec bench/main.exe -- --bench [--out FILE]
         # engine events/sec microbenchmarks plus wall clock and
         # events/sec for every registered experiment (quick mode);
         # --out writes the results as JSON (the committed BENCH_*.json
         # files — see README "Benchmarks")

   Every experiment comes from the registry, [Check.Experiment.all].

   Simulated results are deterministic: re-running prints identical
   numbers.  Wall-clock timings of course are not; they are reported as
   the minimum over three in-process runs to damp scheduler noise. *)

let fmt = Format.std_formatter
let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* One timed closure per registered experiment: its quick run, output
   suppressed, contract judged. *)
let experiment_runs =
  List.map
    (fun (e : Check.Experiment.t) ->
      (e.id, fun () -> ignore (e.run ~quick:true null_fmt)))
    Check.Experiment.all

(* Wall-clock per experiment.  A single deterministic simulation per
   iteration makes direct min-of-N sampling the honest measurement. *)
let run_time ?(runs = 3) () =
  List.iter
    (fun (name, fn) ->
      let best = ref infinity in
      for _ = 1 to runs do
        let t0 = Unix.gettimeofday () in
        fn ();
        let w = Unix.gettimeofday () -. t0 in
        if w < !best then best := w
      done;
      Format.printf "time %-10s %8.3f s/run  (min of %d)@." name !best runs)
    experiment_runs

(* Every figure/scenario as an events/sec benchmark: the engine keeps a
   process-wide fired-event counter precisely so a scenario that builds
   its simulators internally can still report throughput. *)
let scenario_results ~runs =
  List.map
    (fun (id, fn) ->
      let f () =
        let e0 = Engine.Sim.global_events_executed () in
        fn ();
        Engine.Sim.global_events_executed () - e0
      in
      let events, wall_s = Bench_engine.time_min ~runs f in
      { Bench_engine.bench_id = "scenario/" ^ id; events; wall_s; nodes = 0 })
    experiment_runs

let json_of_results results =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "  {\"bench_id\": %S, \"events_per_sec\": %.1f, \"wall_s\": \
            %.6f, \"nodes\": %d}"
           r.Bench_engine.bench_id
           (Bench_engine.events_per_sec r)
           r.Bench_engine.wall_s r.Bench_engine.nodes))
    results;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let print_result r =
  Printf.printf "%-24s %12.0f ev/s  %8.4f s  (%d events)\n"
    r.Bench_engine.bench_id
    (Bench_engine.events_per_sec r)
    r.Bench_engine.wall_s r.Bench_engine.events

let flag_value name args =
  let rec go = function
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let write_csv dir name series =
  let path = Filename.concat dir (name ^ ".csv") in
  let oc = open_out path in
  output_string oc (Report.Render.series_csv ~x_label:"size_bytes" series);
  close_out oc;
  Format.printf "wrote %s@." path

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  if List.mem "--bench" args then begin
    (* min-of-3 even in quick mode: CI compares these numbers against the
       committed baseline, so damping scheduler noise matters more than
       the two extra sub-second runs. *)
    let runs = 3 in
    let results = Bench_engine.run ~runs ~quick () @ scenario_results ~runs in
    List.iter print_result results;
    (match flag_value "--out" args with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (json_of_results results);
        close_out oc;
        Printf.printf "wrote %s\n" path);
    exit 0
  end;
  if List.mem "--time" args then begin
    run_time ();
    exit 0
  end;
  let csv = flag_value "--csv" args in
  let ids =
    let rec strip = function
      | "--csv" :: _ :: rest -> strip rest
      | "--out" :: _ :: rest -> strip rest
      | a :: rest when String.length a > 2 && String.sub a 0 2 = "--" ->
          strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    strip args
  in
  let to_run =
    if ids = [] then Check.Experiment.all
    else
      try List.map Check.Experiment.find ids
      with Invalid_argument msg ->
        prerr_endline msg;
        exit 1
  in
  (* --csv needs the series, so fig4-6 call their drivers directly. *)
  let series =
    [ ("fig4", Report.Figures.fig4); ("fig5", Report.Figures.fig5);
      ("fig6", Report.Figures.fig6) ]
  in
  List.iter
    (fun (e : Check.Experiment.t) ->
      match (csv, List.assoc_opt e.id series) with
      | Some dir, Some figure -> write_csv dir e.id (figure ~quick fmt)
      | _ -> ignore (e.run ~quick fmt))
    to_run;
  Format.fprintf fmt "@."
