(* perfbench: the simulator's host-time benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]
     perfbench --record --workload NAME --seed N

   One process, one domain, one workload.  A warm-up pass fixes the
   reference outputs; measured passes then repeat the workload until S
   seconds have elapsed.  Every pass's simulated outputs must equal the
   warm-up's, and the warm-up's must equal the recorded goldens.  The
   last line of standard output is the JSON result; the lines before it
   are the same figures for a reader, with the run's metadata.

   [--record] prints golden lines for the given seed instead (for
   p2p_sweep: every size any seed can draw, which are seed-independent).
   Paths are relative to the repository root, where the benchmark runs. *)

open Pb_workloads

let usage () =
  prerr_endline
    "usage: perfbench --workload (p2p_sweep|fabric_mix|observed) --seed N \
     --seconds S --trace 0|1 [--commit ID] [--record]";
  exit 2

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable commit : string;
  mutable record : bool;
}

let parse () =
  let a =
    {
      workload = "";
      seed = 1;
      seconds = 10.;
      trace = false;
      commit = "unknown";
      record = false;
    }
  in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r -> a.workload <- v; go r
    | "--seed" :: v :: r -> a.seed <- int_of v; go r
    | "--seconds" :: v :: r -> a.seconds <- float_of_int (int_of v); go r
    | "--trace" :: ("0" | "1" as v) :: r -> a.trace <- v = "1"; go r
    | "--commit" :: v :: r -> a.commit <- v; go r
    | "--record" :: r -> a.record <- true; go r
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem a.workload names) || a.seconds <= 0. then usage ();
  a

(* ------------------------------------------------------------------ *)
(* Statistics *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* Golden outputs: "<seed|*> <key> <value...>" lines; "*" entries hold
   for every seed. *)

let goldens_dir = "perfbench/goldens"
let out_dir = "perfbench/out"

let load_goldens workload =
  let path = Filename.concat goldens_dir (workload ^ ".txt") in
  let tbl = Hashtbl.create 256 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         match String.index_opt line ' ' with
         | None -> ()
         | Some i -> (
             let seed = String.sub line 0 i in
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             match String.index_opt rest ' ' with
             | None -> ()
             | Some j ->
                 Hashtbl.replace tbl
                   (seed, String.sub rest 0 j)
                   (String.sub rest (j + 1) (String.length rest - j - 1)))
     done
   with End_of_file -> close_in ic);
  tbl

let golden_for tbl ~seed key =
  match Hashtbl.find_opt tbl (string_of_int seed, key) with
  | Some v -> Some v
  | None -> Hashtbl.find_opt tbl ("*", key)

(* ------------------------------------------------------------------ *)

let one_pass ~traced workload ~seed =
  (* Each pass starts from a collected heap, so set-up and run times do
     not depend on what the previous pass left behind. *)
  Gc.full_major ();
  Pb_trace.enabled := traced;
  let p = fresh_pass () in
  Fun.protect
    ~finally:(fun () -> Pb_trace.enabled := false)
    (fun () -> run_pass workload p ~seed);
  p

let record a =
  let p =
    if a.workload = "p2p_sweep" then begin
      let p = fresh_pass () in
      p2p_sweep ~sizes:all_sweep_sizes p ~seed:a.seed;
      p
    end
    else one_pass ~traced:false a.workload ~seed:a.seed
  in
  if p.failed > 0 then begin
    List.iter prerr_endline (List.rev p.problems);
    exit 1
  end;
  let tag = if a.workload = "p2p_sweep" then "*" else string_of_int a.seed in
  List.iter
    (fun (k, v) -> Printf.printf "%s %s %s\n" tag k v)
    (List.rev p.outputs)

let json_metric (name, value, unit) =
  Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name value unit

let main a =
  let goldens = load_goldens a.workload in
  let warm = one_pass ~traced:false a.workload ~seed:a.seed in
  let reference = List.rev warm.outputs in
  let mismatches = ref [] in
  let checked = ref 0 and unchecked = ref 0 in
  List.iter
    (fun (k, v) ->
      match golden_for goldens ~seed:a.seed k with
      | Some g ->
          incr checked;
          if g <> v then
            mismatches :=
              Printf.sprintf "%s: golden %S, simulated %S" k g v :: !mismatches
      | None -> incr unchecked)
    reference;
  (* The heap one execution of the workload needs: later passes add only
     fragmentation, whose extent depends on how many passes fit. *)
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let t_start = Pb_trace.now () in
  let plain = ref [] and traced = ref [] and cals = ref [] in
  let enough () =
    let n_plain = List.length !plain and n_traced = List.length !traced in
    Pb_trace.now () -. t_start >= a.seconds
    && n_plain >= 3
    && ((not a.trace) || n_traced >= 2)
  in
  while not (enough ()) do
    cals := Pb_cal.measure () :: !cals;
    let trace_next = a.trace && List.length !traced < List.length !plain in
    let p = one_pass ~traced:trace_next a.workload ~seed:a.seed in
    if List.rev p.outputs <> reference then
      mismatches := "pass outputs differ from the warm-up pass" :: !mismatches;
    if trace_next then traced := p :: !traced else plain := p :: !plain
  done;
  cals := Pb_cal.measure () :: !cals;
  let cal = median !cals in
  let scale = Pb_cal.reference_s /. cal in
  let passes = (warm :: !plain) @ !traced in
  let attempted = List.fold_left (fun n p -> n + p.attempted) 0 passes in
  let failed =
    List.fold_left (fun n p -> n + p.failed) 0 passes
    + List.length !mismatches
  in
  let problems =
    List.concat_map (fun p -> List.rev p.problems) passes @ List.rev !mismatches
  in
  let med f ps = median (List.map f ps) in
  (* Host times are reported at the reference host speed (see Pb_cal). *)
  let host f ps = med f ps *. scale in
  let wall = host (fun p -> p.wall_s) !plain in
  let setup = host (fun p -> p.setup_s) !plain in
  let peak_heap_mb = mb_of_words top_heap in
  let k = warm.k in
  let phase name p =
    List.fold_left
      (fun acc (n, d) -> if n = name then acc +. d else acc)
      0. p.phases
  in
  let per_event f =
    med
      (fun p -> if p.k.events = 0 then 0. else f p /. float_of_int p.k.events)
      !plain
  in
  let layer_host l =
    host (fun p -> p.acc.Pb_trace.host_s.(Pb_trace.layer_index l)) !traced
  in
  let tr = match !traced with p :: _ -> p.acc | [] -> warm.acc in
  let check_s = host (phase "check") !plain in
  let check_events = warm.recorded_events * warm.check_runs in
  let e2e =
    [
      ("wall_s", wall, "s");
      ("setup_s", setup, "s");
      ("peak_heap_mb", peak_heap_mb, "MB");
    ]
  in
  let per_layer =
    [
      ("engine.events", float_of_int k.events, "count");
      ( "engine.host_ns_per_event",
        per_event (fun p -> p.run_s *. 1e9) *. scale,
        "ns" );
      ("engine.minor_words_per_event", per_event (fun p -> p.minor_words), "words");
      ("engine.peak_pending", float_of_int tr.Pb_trace.peak_pending, "count");
      ("os.sched_blocks", float_of_int tr.Pb_trace.sched_blocks, "count");
      ("os.irqs", float_of_int k.irqs, "count");
      ("os.poll_passes", float_of_int k.poll_passes, "count");
      ("hw.nic.frames_tx", float_of_int k.nic_frames_tx, "count");
      ("hw.dma.busy_sim_ms", float_of_int tr.Pb_trace.dma_busy_ns /. 1e6, "ms");
      ("hw.link.busy_sim_ms", float_of_int tr.Pb_trace.link_busy_ns /. 1e6, "ms");
      ("hw.switch.frames_forwarded", float_of_int k.sw_forwarded, "count");
      ("hw.switch.drops", float_of_int k.sw_drops, "count");
      ("hw.switch.pause_frames", float_of_int k.sw_pause, "count");
      ("hw.switch.ecn_marks", float_of_int k.sw_ecn, "count");
      ("hw.switch.peak_buffer_bytes", float_of_int k.sw_peak_buffer, "bytes");
      ("clic.packets_sent", float_of_int k.clic_packets, "count");
      ("clic.retransmissions", float_of_int k.clic_retx, "count");
      ("clic.retx_bytes", float_of_int k.clic_retx_bytes, "bytes");
      ( "clic.useful_ratio",
        (if k.clic_packets = 0 then 0.
         else float_of_int k.clic_delivered /. float_of_int k.clic_packets),
        "ratio" );
      ("proto.tcp_segments", float_of_int k.tcp_segments, "count");
      ("mpi.sends", float_of_int k.mpi_sends, "count");
      ("cluster.stranded", float_of_int k.stranded, "count");
      ("cluster.mice_completed", float_of_int k.mice_completed, "count");
    ]
    @ List.map
        (fun l -> (Pb_trace.layer_name l ^ ".host_s", layer_host l, "s"))
        Pb_trace.layers
    @ [
        ("check.host_s", check_s, "s");
        ("check.probe_events", float_of_int check_events, "count");
        ( "check.host_ns_per_probe_event",
          (if check_events = 0 then 0.
           else check_s *. 1e9 /. float_of_int check_events),
          "ns" );
        ("obs.record_host_s", host (phase "record") !plain, "s");
        ("obs.metrics_host_s", host (phase "metrics") !plain, "s");
        ("obs.timeline_host_s", host (phase "timeline") !plain, "s");
        ("obs.recorded_events", float_of_int warm.recorded_events, "count");
        ("obs.record_peak_heap_mb", mb_of_words warm.record_heap_words, "MB");
        ("report.paper_err_pct", warm.paper_err_pct, "%");
        ( "trace.overhead_s",
          (if !traced = [] then 0.
           else host (fun p -> p.wall_s) !traced -. wall),
          "s" );
        ("bench.wall_unscaled_s", med (fun p -> p.wall_s) !plain, "s");
        ("bench.calibration_s", cal, "s");
      ]
  in
  (* The reader's report. *)
  Printf.printf "perfbench %s seed=%d seconds=%.0f trace=%d\n" a.workload
    a.seed a.seconds (if a.trace then 1 else 0);
  Printf.printf
    "host: nproc=%d ocaml=%s commit=%s\nsizes: %s\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version a.commit
    (match a.workload with
    | "p2p_sweep" ->
        Printf.sprintf "stacks=%s mtus=%s sizes=%s"
          (String.concat "," stacks)
          (String.concat "," (List.map string_of_int mtus))
          (String.concat "," (List.map string_of_int (sweep_sizes ~seed:a.seed)))
    | "fabric_mix" ->
        Printf.sprintf
          "leaf-spine %dx%d spines=%d elephants=%dx%dx%dB mice=%d/node \
           gap=%.0fus req=%dB resp=%dB"
          fabric_racks fabric_per_rack fabric_spines elephant_pairs
          elephant_messages elephant_size mice_per_node mice_gap_us mice_req
          mice_resp
    | _ ->
        Printf.sprintf "leaf-spine 2x4 spines=2 uniform_random %d msgs/node"
          observed_messages);
  Printf.printf "passes: %d measured untraced, %d traced, 1 warm-up\n"
    (List.length !plain) (List.length !traced);
  Printf.printf "golden: %d outputs checked, %d without a golden entry\n"
    !checked !unchecked;
  List.iter (fun m -> Printf.printf "FAILED %s\n" m) problems;
  let show (n, v, u) = Printf.printf "  %-32s %14.6g %s\n" n v u in
  print_endline "end-to-end (untraced, median over passes):";
  List.iter show e2e;
  show ("wall_s (unscaled)", med (fun p -> p.wall_s) !plain, "s");
  show ("setup_s (unscaled)", med (fun p -> p.setup_s) !plain, "s");
  show ("calibration kernel", cal, "s");
  show
    ( "ops_failed_ratio",
      float_of_int failed /. float_of_int (max 1 attempted),
      "ratio" );
  if a.workload = "p2p_sweep" then
    show ("paper_err_pct", warm.paper_err_pct, "%");
  if a.trace then begin
    print_endline "per-layer:";
    List.iter show per_layer;
    print_endline "spans (count, total s, self s):";
    List.iter
      (fun (name, (n, tot, self)) ->
        Printf.printf "  %-10s %6d %12.6f %12.6f\n" name n tot self)
      (Pb_trace.span_summary ());
    (try
       if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
       let path =
         Filename.concat out_dir
           (Printf.sprintf "spans-%s-seed%d.json" a.workload a.seed)
       in
       let oc = open_out path in
       output_string oc (Pb_trace.spans_json ());
       close_out oc;
       Printf.printf "spans written to %s\n" path
     with Sys_error e -> Printf.printf "spans not written: %s\n" e)
  end;
  let metrics = if a.trace then per_layer else e2e in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", " (List.map json_metric metrics))

let () =
  let a = parse () in
  if a.record then record a else main a
