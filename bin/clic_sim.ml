(* clic-sim: command-line driver for the CLIC reproduction.

   Subcommands:
     latency    ping-pong latency of any stack
     bandwidth  NetPIPE-style bandwidth of any stack at one message size
     stream     one-way saturation stream with CPU/interrupt statistics
     chaos      reliability soak under fault injection (sweep or custom)
     figure     run an experiment by id and judge its contract
     check      run the analysis passes over the paper experiments
     soak       randomized fault schedules under the analysis passes
     timeline   export a scenario's Perfetto/Chrome trace timeline
     metrics    export a scenario's time-series metrics (CSV/JSON)
     list       list experiment ids

   Every experiment id comes from [Check.Experiment.all].  A bad argument
   value (Invalid_argument) prints `clic-sim: <msg>' and exits 2. *)

open Cmdliner
open Cluster

let stacks = [ "clic"; "tcp"; "mpi-clic"; "mpi-tcp"; "pvm" ]

let stack_arg =
  let doc =
    Printf.sprintf "Communication stack: %s." (String.concat ", " stacks)
  in
  Arg.(value & opt (enum (List.map (fun s -> (s, s)) stacks)) "clic"
       & info [ "s"; "stack" ] ~docv:"STACK" ~doc)

let mtu_arg =
  Arg.(value & opt int 1500
       & info [ "m"; "mtu" ] ~docv:"BYTES" ~doc:"Link MTU (1500 or 9000).")

let size_arg =
  Arg.(value & opt int 1024
       & info [ "n"; "size" ] ~docv:"BYTES" ~doc:"Message size in bytes.")

let reps_arg =
  Arg.(value & opt int 10
       & info [ "r"; "reps" ] ~docv:"N" ~doc:"Timed repetitions.")

let zero_copy_arg =
  Arg.(value & opt bool true
       & info [ "zero-copy" ] ~docv:"BOOL"
           ~doc:"Use CLIC's 0-copy send path (path 2); false selects path 4.")

let verbose_arg =
  Arg.(value & flag
       & info [ "verbose" ] ~doc:"Enable protocol debug logging.")

let config_of ~mtu ~zero_copy =
  let clic_params =
    if zero_copy then Clic.Params.default else Clic.Params.one_copy
  in
  { Node.default_config with mtu; clic_params }

let run_latency verbose stack mtu zero_copy reps =
  ignore (verbose : bool);
  let c = Net.create ~config:(config_of ~mtu ~zero_copy) ~n:2 () in
  let pair = Report.Pairs.of_name stack c ~a:0 ~b:1 in
  let r = Measure.pingpong c pair ~size:0 ~reps () in
  Printf.printf "%s 0-byte one-way latency at MTU %d: %.2f us\n" stack mtu
    (Engine.Time.to_us r.Measure.one_way)

let run_bandwidth verbose stack mtu zero_copy size reps =
  ignore (verbose : bool);
  let c = Net.create ~config:(config_of ~mtu ~zero_copy) ~n:2 () in
  let pair = Report.Pairs.of_name stack c ~a:0 ~b:1 in
  let r = Measure.pingpong c pair ~size ~reps ~warmup:1 () in
  Printf.printf "%s %dB at MTU %d: %.1f Mbit/s (one-way %.1f us)\n" stack size
    mtu r.Measure.pp_bandwidth_mbps
    (Engine.Time.to_us r.Measure.one_way)

let run_stream verbose stack mtu zero_copy size reps =
  ignore (verbose : bool);
  let c = Net.create ~config:(config_of ~mtu ~zero_copy) ~n:2 () in
  let pair = Report.Pairs.of_name stack c ~a:0 ~b:1 in
  let messages = max reps 100 in
  let r = Measure.stream c pair ~a:0 ~b:1 ~size ~messages in
  Printf.printf
    "%s stream of %d x %dB at MTU %d: %.1f Mbit/s, sender CPU %.0f%%, \
     receiver CPU %.0f%%, %d interrupts\n"
    stack messages size mtu r.Measure.st_bandwidth_mbps
    (100. *. r.Measure.sender_cpu)
    (100. *. r.Measure.receiver_cpu)
    r.Measure.receiver_interrupts

(* One custom fault profile from the command line: uniform or bursty loss,
   duplication and delay jitter composed onto every link. *)
let run_chaos verbose quick loss burst dup jitter_us mtu size messages =
  ignore (verbose : bool);
  if loss < 0. || loss > 1. || dup < 0. || dup > 1. then
    invalid_arg "--loss and --dup must lie in [0,1]";
  let open Engine in
  if loss <= 0. && dup <= 0. && jitter_us <= 0. then
    ignore (Report.Figures.chaos ~quick Format.std_formatter)
  else begin
    let root = Rng.create ~seed:20030422 in
    let mk_fault () =
      let rng = Rng.split root in
      let stages =
        List.concat
          [
            (if loss > 0. then
               if burst > 1 then begin
                 (* Gilbert–Elliott with mean burst length [burst] frames
                    and average loss [loss]: bad state drops half its
                    frames, dwell times set the stationary bad fraction. *)
                 let loss_bad = 0.5 in
                 let frac_bad = min 0.9 (loss /. loss_bad) in
                 let p_bad_to_good = 1. /. float_of_int burst in
                 let p_good_to_bad =
                   frac_bad *. p_bad_to_good /. (1. -. frac_bad)
                 in
                 [
                   Hw.Fault.gilbert_elliott ~rng:(Rng.split rng)
                     ~p_good_to_bad ~p_bad_to_good ~loss_bad ();
                 ]
               end
               else [ Hw.Fault.drop ~rng:(Rng.split rng) ~prob:loss ]
             else []);
            (if dup > 0. then
               [ Hw.Fault.duplicate ~rng:(Rng.split rng) ~prob:dup ]
             else []);
            (if jitter_us > 0. then
               [
                 Hw.Fault.jitter ~rng:(Rng.split rng)
                   ~max_delay:(Time.us jitter_us);
               ]
             else []);
          ]
      in
      match stages with [ f ] -> f | fs -> Hw.Fault.compose fs
    in
    let config =
      { Node.default_config with mtu; link_fault = Some mk_fault }
    in
    let c = Net.create ~config ~n:2 () in
    let pair = Measure.clic_pair c ~a:0 ~b:1 () in
    let r = Measure.stream c pair ~a:0 ~b:1 ~size ~messages in
    let count name = Counters.total c.Net.sim ("channel." ^ name) in
    Printf.printf
      "chaos stream of %d x %dB at MTU %d (loss %.2f%%, burst %d, dup \
       %.2f%%, jitter %.0fus):\n\
      \  %.1f Mbit/s goodput in %.1f ms\n\
      \  %d retransmissions (%d timer, %d fast), %d duplicates dropped\n"
      messages size mtu (100. *. loss) burst (100. *. dup) jitter_us
      r.Measure.st_bandwidth_mbps
      (Time.to_us r.Measure.elapsed /. 1000.)
      (count "retransmissions") (count "timeouts") (count "fast_retransmits")
      (count "duplicates_dropped");
    (match
       Clic.Clic_module.channel_to (Clic.Api.kernel (Net.node c 0).Node.clic)
         ~peer:1
     with
    | Some ch ->
        let s = Clic.Channel.rto_stats ch in
        if Stats.Summary.count s > 0 then
          Printf.printf
            "  sender RTO: %.0f us mean, %.0f us max over %d armings%s\n"
            (Stats.Summary.mean s) (Stats.Summary.max s)
            (Stats.Summary.count s)
            (match Clic.Channel.srtt ch with
            | Some srtt ->
                Printf.sprintf " (srtt %.0f us)" (Time.to_us srtt)
            | None -> "")
    | None -> ())
  end

(* Render one experiment and judge its contract: non-zero exit on any
   violation, so CI can gate on it. *)
let run_figure verbose id quick =
  ignore (verbose : bool);
  let e = Check.Experiment.find id in
  let violations = e.run ~quick Format.std_formatter in
  Format.pp_print_flush Format.std_formatter ();
  if violations <> [] then begin
    List.iter
      (fun v ->
        Printf.eprintf "clic-sim %s: %s\n" id (Check.Violation.to_string v))
      violations;
    exit 1
  end

let latency_cmd =
  Cmd.v (Cmd.info "latency" ~doc:"Ping-pong 0-byte latency")
    Term.(const run_latency $ verbose_arg $ stack_arg $ mtu_arg $ zero_copy_arg $ reps_arg)

let bandwidth_cmd =
  Cmd.v (Cmd.info "bandwidth" ~doc:"NetPIPE-style bandwidth at one size")
    Term.(
      const run_bandwidth $ verbose_arg $ stack_arg $ mtu_arg $ zero_copy_arg
      $ size_arg $ reps_arg)

let stream_cmd =
  Cmd.v (Cmd.info "stream" ~doc:"Saturation stream with CPU statistics")
    Term.(
      const run_stream $ verbose_arg $ stack_arg $ mtu_arg $ zero_copy_arg
      $ size_arg $ reps_arg)

let chaos_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweep sizes.")
  in
  let loss =
    Arg.(value & opt float 0.
         & info [ "loss" ] ~docv:"PROB"
             ~doc:"Frame loss probability (e.g. 0.01 for 1%).")
  in
  let burst =
    Arg.(value & opt int 1
         & info [ "burst" ] ~docv:"FRAMES"
             ~doc:
               "Mean loss-burst length in frames; > 1 selects a \
                Gilbert-Elliott bursty profile at the same average loss.")
  in
  let dup =
    Arg.(value & opt float 0.
         & info [ "dup" ] ~docv:"PROB" ~doc:"Frame duplication probability.")
  in
  let jitter =
    Arg.(value & opt float 0.
         & info [ "jitter-us" ] ~docv:"US"
             ~doc:"Max extra per-frame delay (reorders frames).")
  in
  let messages =
    Arg.(value & opt int 400
         & info [ "messages" ] ~docv:"N" ~doc:"Stream length in messages.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Reliability soak under fault injection: with no fault flags, \
          sweep loss rate x burstiness (plus duplication, jitter and link \
          flaps); with flags, run one custom profile.")
    Term.(
      const run_chaos $ verbose_arg $ quick $ loss $ burst $ dup $ jitter
      $ mtu_arg $ size_arg $ messages)

(* Run the sanitizer, invariant monitors and determinism detector over the
   selected scenarios; non-zero exit on any finding so CI can gate on it. *)
let run_check verbose names seeds hashes =
  let scenarios =
    if names = [] then Check.Scenario.all
    else List.map Check.Scenario.find names
  in
  if hashes then
    (* One baseline run per scenario, full logical trace hash: the output
       format is exactly what test/golden/scenario_hashes.txt pins, so an
       intentional behaviour change regenerates the file with
       `clic-sim check --hashes > test/golden/scenario_hashes.txt`. *)
    List.iter
      (fun sc ->
        let r = Check.run_scenario ~seeds:0 sc in
        Printf.printf "%s %s\n" r.Check.scenario r.Check.baseline_hash)
      scenarios
  else begin
    let reports = List.map (Check.run_scenario ~seeds) scenarios in
    let bad = ref 0 in
    List.iter
      (fun r ->
        Format.printf "%a@." Check.pp_report r;
        if verbose then Format.printf "%s@." r.Check.output;
        if not (Check.ok r) then incr bad)
      reports;
    let total = List.length reports in
    if !bad = 0 then
      Format.printf "check: %d scenario(s) clean (%d tie-break seed(s))@."
        total seeds
    else begin
      Format.printf "check: %d of %d scenario(s) with violations@." !bad
        total;
      exit 1
    end
  end

let check_cmd =
  let scenarios =
    Arg.(value & opt_all string []
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:
               "Scenario to check (repeatable); default is every paper \
                experiment.  See `clic-sim list'.")
  in
  let seeds =
    Arg.(value & opt int 3
         & info [ "seeds" ] ~docv:"N"
             ~doc:
               "Number of seeded same-timestamp orderings to compare \
                against the FIFO baseline.")
  in
  let hashes =
    Arg.(value & flag
         & info [ "hashes" ]
             ~doc:
               "Print each scenario's baseline logical trace hash (one \
                `name hash' line per scenario) instead of checking; the \
                format of test/golden/scenario_hashes.txt.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the analysis passes (object-lifecycle sanitizer, protocol \
          invariant monitors, determinism detector) over paper experiments")
    Term.(const run_check $ verbose_arg $ scenarios $ seeds $ hashes)

(* The chaos soak: randomized fault schedules (link weather, pool
   pressure, interrupt storms, crash/reboot) under the sanitizer passes,
   with evidence counters proving each stress axis actually fired. *)
let run_soak _verbose seeds trials quick only list =
  if list then
    List.iter print_endline Check.Soak.template_names
  else begin
    let seeds = if seeds = [] then Check.Soak.default_seeds else seeds in
    let only = if only = [] then None else Some only in
    let report = Check.Soak.run ~seeds ?trials ~quick ?only () in
    Format.printf "%a@." Check.Soak.pp_summary report;
    let violations = Check.Soak.violations report in
    List.iter
      (fun v -> Format.printf "  %a@." Check.Violation.pp v)
      violations;
    let missing =
      if only = None then Check.Soak.missing_evidence report else []
    in
    List.iter
      (fun m -> Format.printf "  missing evidence: %s@." m)
      missing;
    if Check.Soak.ok ~require_evidence:(only = None) report then
      Format.printf "soak: %d trial(s) clean over %d seed(s)@."
        (List.length report.Check.Soak.s_trials)
        (List.length seeds)
    else begin
      Format.printf "soak: FAILED (%d violation(s), %d evidence gap(s))@."
        (List.length violations) (List.length missing);
      exit 1
    end
  end

let soak_cmd =
  let seeds =
    Arg.(value & opt_all int []
         & info [ "seed" ] ~docv:"N"
             ~doc:
               "Soak seed (repeatable); default is the pinned CI set \
                101, 202, 303.")
  in
  let trials =
    Arg.(value & opt (some int) None
         & info [ "trials" ] ~docv:"N"
             ~doc:
               "Trials per seed, rotating through the templates; default \
                one per template.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Quarter-size traffic volumes.")
  in
  let only =
    Arg.(value & opt_all string []
         & info [ "only" ] ~docv:"NAME"
             ~doc:
               "Restrict to one template (repeatable); evidence demands \
                are then waived.  See $(b,--list).")
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List soak templates.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Chaos-soak the stack: randomized fault schedules (link faults, \
          pool pressure, interrupt storms, node crash/reboot) under the \
          sanitizer and invariant monitors, with evidence counters")
    Term.(
      const run_soak $ verbose_arg $ seeds $ trials $ quick $ only $ list)

(* ------------------------------------------------------------------ *)
(* Observability: timeline and metrics exports over the probe stream *)

let write_output ~out content =
  match out with
  | "-" -> print_string content
  | path ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length content)

let scenario_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO"
       ~doc:"Scenario id (see `clic-sim list').")

let out_arg default =
  Arg.(value & opt string default
       & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file; `-' writes to stdout.")

let run_timeline verbose name out =
  ignore (verbose : bool);
  let sc = Check.Scenario.find name in
  let recorder, _rendered = Obs.Recorder.record sc in
  write_output ~out (Obs.Timeline.export recorder);
  if out <> "-" then
    Printf.printf
      "%d probe events; open in ui.perfetto.dev or chrome://tracing\n"
      (Obs.Recorder.count recorder)

let run_metrics verbose name out format bucket_us attribution =
  ignore (verbose : bool);
  let sc = Check.Scenario.find name in
  let recorder, _rendered = Obs.Recorder.record sc in
  let bucket_ns =
    if bucket_us <= 0. then None
    else Some (int_of_float (bucket_us *. 1000.))
  in
  let m = Obs.Metrics.build ?bucket_ns recorder in
  (match format with
  | "csv" -> write_output ~out (Obs.Metrics.to_csv m)
  | "json" -> write_output ~out (Obs.Metrics.to_json m)
  | "summary" | _ ->
      if out = "-" then Obs.Metrics.pp_summary Format.std_formatter m
      else begin
        let buf = Buffer.create 4096 in
        let fmt = Format.formatter_of_buffer buf in
        Obs.Metrics.pp_summary fmt m;
        Format.pp_print_flush fmt ();
        write_output ~out (Buffer.contents buf)
      end);
  if attribution then begin
    let msgs = Obs.Attribution.messages recorder in
    Format.printf "@.per-message latency attribution (%d messages):@."
      (List.length msgs);
    Obs.Attribution.pp_table Format.std_formatter msgs
  end

let timeline_cmd =
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Run a scenario under the probe and export a Chrome \
          trace-event/Perfetto timeline: per-node process, ISR, \
          bottom-half, CLIC-module, DMA and wire tracks, with flow arrows \
          from each send syscall to its delivery.")
    Term.(
      const run_timeline $ verbose_arg $ scenario_pos
      $ out_arg "timeline.json")

let metrics_cmd =
  let format =
    Arg.(value & opt (enum [ ("csv", "csv"); ("json", "json");
                             ("summary", "summary") ]) "summary"
         & info [ "f"; "format" ] ~docv:"FMT"
             ~doc:"Export format: csv, json or summary.")
  in
  let bucket =
    Arg.(value & opt float 0.
         & info [ "bucket-us" ] ~docv:"US"
             ~doc:
               "Bucket width for utilization/rate series; default divides \
                the run into ~200 buckets.")
  in
  let attribution =
    Arg.(value & flag
         & info [ "attribution" ]
             ~doc:
               "Also print the per-message latency attribution table (the \
                Figure 7 stage breakdown for every message).")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a scenario under the probe and export time-series metrics: \
          CPU/bus utilization, interrupt rates, ring and egress queue \
          depths, channel windows, kernel pool bytes, message counters.")
    Term.(
      const run_metrics $ verbose_arg $ scenario_pos $ out_arg "-" $ format
      $ bucket $ attribution)

let figure_cmd =
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID"
         ~doc:"Experiment id (see `clic-sim list').")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweep sizes.")
  in
  Cmd.v
    (Cmd.info "figure"
       ~doc:
         "Regenerate a paper figure, table or extension and judge its \
          contract; exits 1 on a violation.")
    Term.(const run_figure $ verbose_arg $ id $ quick)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List experiment ids")
    Term.(
      const (fun () ->
          List.iter
            (fun e -> print_endline e.Check.Experiment.id)
            Check.Experiment.all)
      $ const ())

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let () =
  (if Array.exists (String.equal "--verbose") Sys.argv then setup_logs true
   else setup_logs false);
  let info =
    Cmd.info "clic-sim" ~version:"1.0.0"
      ~doc:"Simulated reproduction of the CLIC lightweight protocol paper"
  in
  let cmd =
    Cmd.group info
      [ latency_cmd; bandwidth_cmd; stream_cmd; chaos_cmd; figure_cmd;
        check_cmd; soak_cmd; timeline_cmd; metrics_cmd; list_cmd ]
  in
  exit
    (try Cmd.eval ~catch:false cmd
     with Invalid_argument msg ->
       prerr_endline ("clic-sim: " ^ msg);
       2)
