(* Tests for the analysis layer: sim tie-break determinism hooks, the
   lifecycle sanitizer's true positives, the invariant monitors, and the
   determinism detector — including that the whole checker runs a real
   scenario clean end to end. *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Seeded tie-break: same set of same-instant events, permuted order *)

let fire_order ?tie_break () =
  let sim = Sim.create ?tie_break () in
  let order = ref [] in
  for i = 0 to 15 do
    ignore (Sim.schedule sim ~after:100 (fun () -> order := i :: !order))
  done;
  Sim.run sim;
  List.rev !order

let test_sim_tie_break () =
  let fifo = fire_order () in
  Alcotest.(check (list int))
    "no seed: scheduling order"
    (List.init 16 Fun.id)
    fifo;
  let seeded = fire_order ~tie_break:42 () in
  Alcotest.(check (list int))
    "seeded run is a permutation"
    (List.init 16 Fun.id)
    (List.sort compare seeded);
  check_bool "seed 42 actually permutes" true (seeded <> fifo);
  Alcotest.(check (list int))
    "same seed, same order" seeded
    (fire_order ~tie_break:42 ())

(* ------------------------------------------------------------------ *)
(* Lifecycle sanitizer true positives (synthetic event streams) *)

let lifecycle_rules ?(leak_check = true) evs =
  let l = Check.Lifecycle.create ~leak_check () in
  List.iter (Check.Lifecycle.on_event l) evs;
  List.map (fun v -> v.Check.Violation.rule) (Check.Lifecycle.finish l)

let alloc id =
  Probe.Obj_alloc
    { kind = Probe.Skb; id; bytes = 1500; owner = Probe.App; where = "test" }

let free id = Probe.Obj_free { kind = Probe.Skb; id; where = "test" }

let transfer id =
  Probe.Obj_transfer
    { kind = Probe.Skb; id; owner = Probe.Driver; where = "test" }

let test_lifecycle_double_free () =
  Alcotest.(check (list string))
    "double free caught" [ "double-free" ]
    (lifecycle_rules [ alloc 1; free 1; free 1 ])

let test_lifecycle_use_after_free () =
  Alcotest.(check (list string))
    "use after free caught" [ "use-after-free" ]
    (lifecycle_rules [ alloc 2; transfer 2; free 2; transfer 2 ])

let test_lifecycle_leak () =
  Alcotest.(check (list string))
    "leak at sim end caught" [ "leak" ]
    (lifecycle_rules [ alloc 3 ]);
  Alcotest.(check (list string))
    "leak check can be waived" []
    (lifecycle_rules ~leak_check:false [ alloc 3 ])

let test_lifecycle_pool_leak () =
  Alcotest.(check (list string))
    "outstanding pool bytes caught" [ "pool-leak" ]
    (lifecycle_rules
       [ Probe.Pool_alloc { pool = "p"; bytes = 64; used = 64; capacity = 1024 } ])

let test_lifecycle_clean () =
  Alcotest.(check (list string))
    "balanced lifecycle is clean" []
    (lifecycle_rules [ alloc 4; transfer 4; free 4 ])

(* The live-object counter: a freed id allocated again counts once more,
   and a simulation boundary starts the count from zero. *)
let test_lifecycle_peak_live () =
  let l = Check.Lifecycle.create ~leak_check:false () in
  List.iter
    (Check.Lifecycle.on_event l)
    ([ alloc 1; alloc 2; free 1; alloc 1; alloc 3; free 2; Probe.Sim_start ]
    @ List.map alloc [ 4; 5; 6; 7 ]);
  ignore (Check.Lifecycle.finish l);
  Alcotest.(check (list string))
    "peak after Sim_start" [ "peak live objects 4" ]
    (Check.Lifecycle.notes l)

let lifecycle_details evs =
  let l = Check.Lifecycle.create ~leak_check:false () in
  List.iter (Check.Lifecycle.on_event l) evs;
  List.map (fun v -> v.Check.Violation.detail) (Check.Lifecycle.finish l)

let at now ev = [ Probe.Clock { now }; ev ]

let step now ev where =
  at now
    (match ev with
    | `Alloc ->
        Probe.Obj_alloc
          { kind = Probe.Skb; id = 9; bytes = 64; owner = Probe.App; where }
    | `Transfer ->
        Probe.Obj_transfer
          { kind = Probe.Skb; id = 9; owner = Probe.Driver; where }
    | `Free -> Probe.Obj_free { kind = Probe.Skb; id = 9; where })

let test_lifecycle_detail_text () =
  Alcotest.(check (list string))
    "double-free detail"
    [
      "skbuff#9 freed again at d; t=10ns alloc at a (owner app); t=20ns \
       transfer to driver at b; t=30ns free at c";
    ]
    (lifecycle_details
       (step 10 `Alloc "a" @ step 20 `Transfer "b" @ step 30 `Free "c"
      @ step 40 `Free "d"));
  (* ten transfers overflow the 8-entry history: the allocation record
     stays, the oldest transfers go *)
  let transfers =
    List.concat_map
      (fun i -> step (100 * i) `Transfer (Printf.sprintf "x%d" i))
      (List.init 10 (fun i -> i + 1))
  in
  Alcotest.(check (list string))
    "use-after-free detail, trimmed history"
    [
      "skbuff#9 transferred to driver at late after free; t=0ns alloc at a \
       (owner app); t=500ns transfer to driver at x5; t=600ns transfer to \
       driver at x6; t=700ns transfer to driver at x7; t=800ns transfer to \
       driver at x8; t=900ns transfer to driver at x9; t=1000ns transfer to \
       driver at x10; t=1100ns free at f";
    ]
    (lifecycle_details
       (step 0 `Alloc "a" @ transfers @ step 1100 `Free "f"
      @ step 1200 `Transfer "late"))

(* The same double-free caught through the real instrumentation: a probe
   sink sees Os.Skbuff.release called twice on a real buffer. *)
let test_skbuff_double_free_probed () =
  let l = Check.Lifecycle.create ~leak_check:false () in
  Probe.install (Check.Lifecycle.on_event l);
  Fun.protect ~finally:Probe.uninstall (fun () ->
      let skb = Os_model.Skbuff.of_kernel ~header_bytes:42 1400 in
      Os_model.Skbuff.release skb ~where:"test:first";
      Os_model.Skbuff.release skb ~where:"test:second");
  match Check.Lifecycle.finish l with
  | [ v ] ->
      Alcotest.(check string) "rule" "double-free" v.Check.Violation.rule;
      check_bool "backtrace names both code points" true
        (contains v.Check.Violation.detail "test:first"
        && contains v.Check.Violation.detail "test:second")
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

(* ------------------------------------------------------------------ *)
(* Invariant monitors *)

let monitor_hits evs =
  let monitors = Check.Invariants.create_all () in
  List.concat_map
    (fun (m : Check.Invariants.monitor) ->
      List.filter_map (fun ev -> Option.map (fun _ -> m.name) (m.on_event ~now:0 ev)) evs
      |> List.sort_uniq compare)
    monitors

let deliver seq = Probe.Chan_deliver { chan = 1; node = 0; peer = 1; seq }

let test_invariant_duplicate_delivery () =
  Alcotest.(check (list string))
    "duplicate channel delivery caught" [ "chan-deliver-in-order" ]
    (monitor_hits [ deliver 0; deliver 1; deliver 1 ]);
  Alcotest.(check (list string))
    "sequence gap caught" [ "chan-deliver-in-order" ]
    (monitor_hits [ deliver 0; deliver 2 ]);
  Alcotest.(check (list string))
    "in-order delivery clean" []
    (monitor_hits [ deliver 0; deliver 1; deliver 2 ])

let test_invariant_msg_once () =
  let msg id = Probe.Msg_deliver { node = 0; src = 1; port = 7; msg_id = id; epoch = 0 } in
  Alcotest.(check (list string))
    "duplicate app delivery caught" [ "msg-deliver-once" ]
    (monitor_hits [ msg 5; msg 5 ]);
  Alcotest.(check (list string)) "distinct ids clean" []
    (monitor_hits [ msg 5; msg 6 ])

(* A retransmit of a sequence number under a standing SACK block is
   waste; once the cumulative ack passes it, the block is retired. *)
let test_invariant_sack_no_spurious_retx () =
  let sack = Probe.Sack_rx { chan = 1; node = 0; peer = 1; blocks = [ (5, 8) ] } in
  let una snd_una = Probe.Snd_una { chan = 1; node = 0; peer = 1; snd_una } in
  let retx seq = Probe.Chan_retx { chan = 1; node = 0; peer = 1; seq } in
  Alcotest.(check (list string))
    "retransmit under a standing block caught" [ "sack-no-spurious-retx" ]
    (monitor_hits [ sack; retx 6 ]);
  Alcotest.(check (list string))
    "block partly retired: the rest still stands" [ "sack-no-spurious-retx" ]
    (monitor_hits [ sack; una 6; retx 7 ]);
  Alcotest.(check (list string))
    "retired by the cumulative ack: clean" []
    (monitor_hits [ sack; una 8; retx 6; retx 7 ]);
  Alcotest.(check (list string))
    "uncovered hole: clean" [] (monitor_hits [ sack; retx 4 ])

let test_invariant_ack_monotone () =
  let ack c = Probe.Ack_tx { chan = 1; node = 0; peer = 1; cum_seq = c } in
  Alcotest.(check (list string))
    "cumulative ack regression caught" [ "ack-monotone" ]
    (monitor_hits [ ack 4; ack 2 ])

let test_invariant_window_bound () =
  let w outstanding =
    Probe.Window { chan = 1; node = 0; peer = 1; outstanding; limit = 8 }
  in
  Alcotest.(check (list string))
    "window overrun caught" [ "window-bound" ]
    (monitor_hits [ w 9 ]);
  Alcotest.(check (list string)) "full window is legal" [] (monitor_hits [ w 8 ])

let test_invariant_poll_budget () =
  let pass processed =
    Probe.Poll_pass { host = "host1"; processed; budget = 4 }
  in
  Alcotest.(check (list string))
    "budget overrun caught" [ "poll-budget" ]
    (monitor_hits [ pass 5 ]);
  Alcotest.(check (list string))
    "negative count caught" [ "poll-budget" ]
    (monitor_hits [ pass (-1) ]);
  Alcotest.(check (list string))
    "full-budget pass is legal" []
    (monitor_hits [ pass 4; pass 0 ])

let test_invariant_epoch_monotone () =
  let msg ~epoch id =
    Probe.Msg_deliver { node = 0; src = 1; port = 7; msg_id = id; epoch }
  in
  Alcotest.(check (list string))
    "stale-epoch delivery caught" [ "epoch-monotone-delivery" ]
    (monitor_hits [ msg ~epoch:2 0; msg ~epoch:1 1 ]);
  Alcotest.(check (list string))
    "epoch may only grow" []
    (monitor_hits [ msg ~epoch:0 0; msg ~epoch:1 1; msg ~epoch:1 2 ])

let test_invariant_pool_balance () =
  let palloc used bytes =
    Probe.Pool_alloc { pool = "kmem9"; bytes; used; capacity = 1024 }
  in
  let pfree used bytes = Probe.Pool_free { pool = "kmem9"; bytes; used } in
  Alcotest.(check (list string))
    "balanced alloc/free clean" []
    (monitor_hits [ palloc 64 64; palloc 96 32; pfree 32 64; pfree 0 32 ]);
  Alcotest.(check (list string))
    "reported usage drifting from the event stream caught"
    [ "pool-balance" ]
    (monitor_hits [ palloc 64 64; pfree 40 64 ]);
  Alcotest.(check (list string))
    "usage beyond capacity caught" [ "pool-balance" ]
    (monitor_hits [ palloc 1024 1024; palloc 1088 64 ])

let test_invariant_register () =
  let saved = !Check.Invariants.registry in
  Fun.protect
    ~finally:(fun () -> Check.Invariants.registry := saved)
    (fun () ->
      Check.Invariants.register (fun () ->
          {
            Check.Invariants.name = "no-ivar-at-all";
            on_event =
              (fun ~now:_ ev ->
                match ev with
                | Probe.Ivar_fill _ -> Some "ivar use forbidden"
                | _ -> None);
          });
      Alcotest.(check (list string))
        "registered monitor runs" [ "no-ivar-at-all" ]
        (monitor_hits [ Probe.Ivar_fill { id = 1 } ]))

(* ------------------------------------------------------------------ *)
(* Determinism trace hash *)

let hash_of evs =
  let d = Check.Determinism.create () in
  List.iter (Check.Determinism.on_event d) evs;
  Check.Determinism.result d

let test_determinism_hash () =
  let msg src id = Probe.Msg_deliver { node = 0; src; port = 7; msg_id = id; epoch = 0 } in
  (* cross-stream interleaving is not part of the logical trace *)
  Alcotest.(check string)
    "interleaving-invariant"
    (hash_of [ msg 1 0; msg 2 0; msg 1 1; msg 2 1 ])
    (hash_of [ msg 2 0; msg 1 0; msg 2 1; msg 1 1 ]);
  (* but per-stream content and order are *)
  check_bool "content-sensitive" true
    (hash_of [ msg 1 0; msg 1 1 ] <> hash_of [ msg 1 1; msg 1 0 ]);
  check_bool "delivery-sequence-sensitive" true
    (hash_of [ deliver 0; deliver 1 ] <> hash_of [ deliver 0; deliver 1; deliver 2 ])

let test_determinism_prefix () =
  let trace evs =
    let d = Check.Determinism.create () in
    List.iter (Check.Determinism.on_event d) evs;
    d
  in
  let short = trace [ deliver 0; deliver 1 ] in
  let long = trace [ deliver 0; deliver 1; deliver 2 ] in
  let conflicting = trace [ deliver 0; deliver 2 ] in
  Alcotest.(check (option string))
    "prefix of longer run is consistent" None
    (Check.Determinism.prefix_divergence short long);
  Alcotest.(check (option string))
    "and symmetrically" None
    (Check.Determinism.prefix_divergence long short);
  check_bool "conflicting common prefix flagged" true
    (Check.Determinism.prefix_divergence short conflicting <> None)

(* ------------------------------------------------------------------ *)
(* The full checker, end to end *)

let quiet_scenario ?(truncated = false) name run =
  { Check.Scenario.name; descr = name; truncated; run = (fun _fmt -> run ()) }

(* A deliberate hidden ordering race: eight same-instant events draw
   message ids from a shared counter, so the (source -> id) binding
   depends on same-instant firing order.  The seeded permutation runs
   must expose it. *)
let test_check_catches_race () =
  let sc =
    quiet_scenario "race" (fun () ->
        let sim = Sim.create () in
        let next = ref 0 in
        for src = 1 to 8 do
          ignore
            (Sim.schedule sim ~after:50 (fun () ->
                 let id = !next in
                 incr next;
                 Probe.emit
                   (Probe.Msg_deliver { node = 0; src; port = 1; msg_id = id; epoch = 0 })))
        done;
        Sim.run sim)
  in
  let r = Check.run_scenario ~seeds:3 sc in
  check_bool "race detected" false (Check.ok r);
  check_bool "as a trace divergence" true
    (List.exists
       (fun v -> v.Check.Violation.rule = "trace-divergence")
       r.Check.violations)

(* The same shape without the shared counter is order-independent and
   must pass clean under every permutation. *)
let test_check_clean_synthetic () =
  let sc =
    quiet_scenario "no-race" (fun () ->
        let sim = Sim.create () in
        for src = 1 to 8 do
          ignore
            (Sim.schedule sim ~after:50 (fun () ->
                 Probe.emit
                   (Probe.Msg_deliver { node = 0; src; port = 1; msg_id = src; epoch = 0 })))
        done;
        Sim.run sim)
  in
  let r = Check.run_scenario ~seeds:3 sc in
  check_bool "clean" true (Check.ok r);
  check_int "baseline + 3 seeded runs" 4 r.Check.runs

(* A real two-node CLIC ping-pong through the whole stack: zero
   violations, zero leaks, stable logical trace across seeds. *)
let test_check_real_scenario_clean () =
  let sc =
    quiet_scenario "mini-pingpong" (fun () ->
        let c = Cluster.Net.create ~n:2 () in
        let pair = Cluster.Measure.clic_pair c ~a:0 ~b:1 () in
        ignore (Cluster.Measure.pingpong c pair ~size:1024 ~reps:4 ~warmup:1 ()))
  in
  let r = Check.run_scenario ~seeds:2 sc in
  List.iter
    (fun v -> Printf.printf "unexpected: %s\n" (Check.Violation.to_string v))
    r.Check.violations;
  check_bool "full stack runs clean" true (Check.ok r);
  check_bool "objects were actually tracked" true
    (List.exists
       (fun n -> n <> "peak live objects 0")
       r.Check.notes)

(* ------------------------------------------------------------------ *)
(* The chaos-soak harness *)

let test_soak_argument_checks () =
  check_bool "templates registered" true
    (List.length Check.Soak.template_names >= 5);
  check_bool "incast storm registered" true
    (List.mem "incast-storm" Check.Soak.template_names);
  Alcotest.(check (list int)) "CI seeds pinned" [ 101; 202; 303 ]
    Check.Soak.default_seeds;
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "trials <= 0 rejected" true
    (raises (fun () -> Check.Soak.run ~trials:0 ()));
  check_bool "unknown template rejected" true
    (raises (fun () -> Check.Soak.run ~only:[ "no-such-template" ] ()))

(* A soak report's evidence count, read by its printed label. *)
let evidence r label =
  match
    List.find_opt
      (fun row -> String.equal row.Check.Soak.label label)
      r.Check.Soak.s_evidence
  with
  | Some row -> row.Check.Soak.count
  | None -> Alcotest.failf "no evidence row %S" label

let test_soak_smoke () =
  (* One seed over every template in quick mode: the full harness — node
     crash/reboot, pool crunch, interrupt storm, composed link weather,
     incast stampede — must come back with zero violations and every
     stress axis evidenced. *)
  let r = Check.Soak.run ~seeds:[ 101 ] ~quick:true () in
  List.iter
    (fun v -> Printf.printf "unexpected: %s\n" (Check.Violation.to_string v))
    (Check.Soak.violations r);
  List.iter (Printf.printf "missing evidence: %s\n") (Check.Soak.missing_evidence r);
  check_bool "soak clean with full evidence" true (Check.Soak.ok r);
  check_int "one trial per template ran"
    (List.length Check.Soak.template_names)
    (List.length r.Check.Soak.s_trials);
  let ev = evidence r in
  check_bool "a crash happened" true (ev "node crashes" > 0);
  check_bool "hard watermark dropped frames" true
    (ev "hard-watermark ingress drops" > 0);
  check_bool "polling engaged" true (ev "poll-mode switches" > 0);
  check_bool "the switch dropped frames somewhere" true
    (ev "switch drops (ingress + egress)" > 0);
  check_bool "802.3x PAUSE frames flowed" true
    (ev "802.3x PAUSE frames generated" > 0);
  check_bool "transmitters spent time XOFFed" true
    (ev "tx time XOFFed (ns)" > 0)

let test_soak_incast_storm_focused () =
  (* The incast template alone, two seeds: the stampede must run under
     the full monitor set with zero violations in both fabrics, and both
     arms must leave their fingerprints (PAUSE signalling from the
     flow-controlled run, switch drops from the tail-drop run). *)
  let r =
    Check.Soak.run ~seeds:[ 11; 12 ] ~quick:true ~only:[ "incast-storm" ] ()
  in
  List.iter
    (fun v -> Printf.printf "unexpected: %s\n" (Check.Violation.to_string v))
    (Check.Soak.violations r);
  check_bool "incast storm runs clean" true (Check.Soak.ok r);
  List.iter
    (fun tr ->
      Alcotest.(check string)
        "template" "incast-storm" tr.Check.Soak.tr_template)
    r.Check.Soak.s_trials;
  let ev = evidence r in
  check_bool "tail-drop arm lost frames at the switch" true
    (ev "switch drops (ingress + egress)" > 0);
  check_bool "flow-controlled arm got XOFFed" true
    (ev "802.3x PAUSE frames generated" > 0 && ev "tx time XOFFed (ns)" > 0);
  check_bool "traffic actually flowed" true (ev "messages delivered" > 0)

let test_soak_fabric_cut_focused () =
  (* The fabric template alone: a spine failure plus a node crash on a
     2-spine leaf/spine, clean under the full monitor set, with frames
     actually crossing trunks and the spine really failing mid-trial. *)
  let r = Check.Soak.run ~seeds:[ 21 ] ~quick:true ~only:[ "fabric-cut" ] () in
  List.iter
    (fun v -> Printf.printf "unexpected: %s\n" (Check.Violation.to_string v))
    (Check.Soak.violations r);
  check_bool "fabric-cut runs clean" true (Check.Soak.ok r);
  let ev = evidence r in
  check_bool "frames crossed trunks" true (ev "frames carried on trunks" > 0);
  check_bool "a switch failed mid-trial" true
    (ev "switches failed mid-trial" > 0);
  check_bool "a node crashed mid-trial" true (ev "node crashes" > 0);
  check_bool "traffic actually flowed" true (ev "messages delivered" > 0)

(* An evidence gap names the registry counters that convicted it.  A
   narrowed run waives the demands; judged as if the full set had run,
   the irq-storm template alone leaves the fabric rows empty. *)
let test_soak_missing_evidence_names_counters () =
  let r =
    Check.Soak.run ~seeds:[ 101 ] ~trials:1 ~quick:true ~only:[ "irq-storm" ]
      ()
  in
  Alcotest.(check (list string)) "a narrowed run demands nothing" []
    (Check.Soak.missing_evidence r);
  let missing =
    Check.Soak.missing_evidence { r with Check.Soak.s_full_set = true }
  in
  let has m = List.mem m missing in
  check_bool "one counter" true
    (has "no frame was ever CE-marked (switch.ecn_marked = 0)");
  check_bool "several counters, in row order" true
    (has
       "no switch ever dropped a frame (switch.ingress_drops = 0, \
        switch.egress_drops = 0)");
  check_bool "a template-fed row names no counter" true
    (has "no switch was ever failed mid-trial");
  check_bool "evidenced rows are not reported" false
    (List.exists
       (fun m -> String.starts_with ~prefix:"driver never switched" m)
       missing)

(* golden/soak.quick.txt is `clic-sim soak --trials 8 --quick`'s standard
   output, the summary the CI soak job diffs. *)
let test_soak_quick_golden () =
  let r = Check.Soak.run ~trials:8 ~quick:true () in
  check_bool "soak clean" true (Check.Soak.ok r);
  let text =
    Format.asprintf "%a@.soak: %d trial(s) clean over %d seed(s)@."
      Check.Soak.pp_summary r
      (List.length r.Check.Soak.s_trials)
      (List.length Check.Soak.default_seeds)
  in
  let ic = open_in_bin "golden/soak.quick.txt" in
  let golden =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "soak summary equals golden/soak.quick.txt" golden
    text

(* The compatibility contract: every scenario's logical trace stays where
   test/golden/scenario_hashes.txt pins it.  The full sweep runs in CI
   (`clic-sim check --hashes` against the golden file); in-suite, a fast
   subset pins the hashes on every `dune runtest`. *)
let fast_hash_scenarios =
  [ "fig1"; "fig7"; "sec2"; "sec3"; "ext2"; "ext3"; "chaos"; "incast"; "fabric" ]

(* (name, hash) lines of the golden file, in file order. *)
let golden_hashes () =
  let ic = open_in "golden/scenario_hashes.txt" in
  let rec loop acc =
    match input_line ic with
    | line -> (
        match String.split_on_char ' ' line with
        | [ name; hash ] -> loop ((name, hash) :: acc)
        | _ -> loop acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  loop []

let test_scenario_hashes_pinned () =
  let golden = golden_hashes () in
  check_bool "golden file pins every scenario" true (List.length golden >= 16);
  List.iter
    (fun name ->
      if not (List.mem_assoc name golden) then
        Alcotest.failf "scenario %s missing from the golden file" name)
    fast_hash_scenarios;
  let reports =
    List.map
      (fun name -> Check.run_scenario ~seeds:0 (Check.Scenario.find name))
      fast_hash_scenarios
  in
  List.iter
    (fun r ->
      Alcotest.(check string)
        (r.Check.scenario
       ^ ": logical trace hash pinned by test/golden/scenario_hashes.txt")
        (List.assoc r.Check.scenario golden)
        r.Check.baseline_hash)
    reports

(* The probe-enabled flag is consulted on the engine's hottest path, so a
   probe-off run and a probe-on run of a full scenario must render
   byte-identical output — observation cannot perturb behaviour. *)
let test_probe_on_off_equivalence () =
  let sc = Check.Scenario.find "ext3" in
  let render () =
    let buf = Buffer.create 4096 in
    let fmt = Format.formatter_of_buffer buf in
    sc.Check.Scenario.run fmt;
    Format.pp_print_flush fmt ();
    Buffer.contents buf
  in
  check_bool "probes start off" false !Probe.on;
  let off = render () in
  let seen = ref 0 in
  Probe.install (fun _ -> incr seen);
  let on_ = Fun.protect ~finally:Probe.uninstall render in
  check_bool "probe saw the run" true (!seen > 0);
  check_bool "probes off again" false !Probe.on;
  Alcotest.(check string) "identical rendered trace with probes on" off on_

(* ------------------------------------------------------------------ *)
(* The experiment registry *)

let registry_ids = List.map (fun e -> e.Check.Experiment.id) Check.Experiment.all

let test_registry_ids_unique () =
  check_int "no duplicate ids"
    (List.length registry_ids)
    (List.length (List.sort_uniq compare registry_ids))

let test_scenarios_match_golden () =
  Alcotest.(check (list string))
    "scenario names are the golden file's keys, in order"
    (List.map fst (golden_hashes ()))
    Check.Scenario.names

let render f =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Regression: `figure <id> --quick` once ignored --quick for every id
   outside a hand-kept list.  The registry's quick run of each experiment
   with a quick mode must render what the driver's own quick mode does
   (slo appends its degradation verdict after the panel).  The other
   drivers take no quick flag. *)
let test_quick_honoured () =
  let open Report.Figures in
  let quick_drivers =
    [ ("fig4", fun fmt -> ignore (fig4 ~quick:true fmt));
      ("fig5", fun fmt -> ignore (fig5 ~quick:true fmt));
      ("fig6", fun fmt -> ignore (fig6 ~quick:true fmt));
      ("tab1", fun fmt -> ignore (tab1 ~quick:true fmt));
      ("fig1", fun fmt -> ignore (fig1 ~quick:true fmt));
      ("chaos", fun fmt -> ignore (chaos ~quick:true fmt));
      ("incast", fun fmt -> ignore (incast ~quick:true fmt));
      ("fabric", fun fmt -> ignore (fabric ~quick:true fmt));
      ("congestion", fun fmt -> ignore (congestion_matrix ~quick:true fmt));
      ("slo", fun fmt -> ignore (slo ~quick:true fmt)) ]
  in
  let no_quick_mode =
    [ "fig7"; "sec2"; "sec3"; "ext1"; "ext2"; "ext3"; "ext4"; "stress" ]
  in
  List.iter
    (fun (e : Check.Experiment.t) ->
      match List.assoc_opt e.id quick_drivers with
      | Some driver ->
          let expected = render driver in
          let got = render (fun fmt -> ignore (e.run ~quick:true fmt)) in
          check_bool (e.id ^ " --quick renders the quick driver") true
            (starts_with ~prefix:expected got)
      | None ->
          check_bool (e.id ^ " has no quick mode") true
            (List.mem e.id no_quick_mode))
    Check.Experiment.all

(* Each contract rule convicts a hand-built result broken in exactly one
   place, and nothing convicts the unbroken one. *)
let rules vs =
  List.sort_uniq compare (List.map (fun v -> v.Check.Violation.rule) vs)

let check_rules name contract good broken =
  Alcotest.(check (list string)) (name ^ ": intact result holds") []
    (rules (contract good));
  List.iter
    (fun (rule, bad) ->
      Alcotest.(check (list string)) (name ^ ": " ^ rule) [ rule ]
        (rules (contract bad)))
    broken

let test_incast_contract_rules () =
  let open Report.Figures in
  let tail =
    { in_regime = `Tail_drop; in_sent = 48; in_delivered = 48;
      in_elapsed_ms = 9.; in_retx = 91; in_ingress_drops = 5;
      in_egress_drops = 46; in_pause_tx = 0; in_tx_paused_us = 0.;
      in_peak_buffer = 19734 }
  and pause =
    { in_regime = `Pause; in_sent = 48; in_delivered = 48;
      in_elapsed_ms = 4.; in_retx = 0; in_ingress_drops = 0;
      in_egress_drops = 0; in_pause_tx = 8; in_tx_paused_us = 500.;
      in_peak_buffer = 40000 }
  in
  let gather = [ (`Tail_drop, 900., 3, 3, 0, 0.); (`Pause, 800., 0, 0, 0, 0.) ] in
  let with_rows rows = (rows, gather) in
  check_rules "incast" Check.Experiment.incast_contract ([ tail; pause ], gather)
    [ ("delivery", with_rows [ { tail with in_delivered = 47 }; pause ]);
      ("workload",
        with_rows [ { tail with in_sent = 12; in_delivered = 12 }; pause ]);
      ("collapse", with_rows [ { tail with in_egress_drops = 0 }; pause ]);
      ("collapse", ([ tail; pause ], [ (`Tail_drop, 900., 0, 0, 0, 0.);
                                        (`Pause, 800., 0, 0, 0, 0.) ]));
      ("pause-lossless", with_rows [ tail; { pause with in_ingress_drops = 1 } ]);
      ("pause-lossless", ([ tail; pause ], [ (`Tail_drop, 900., 3, 3, 0, 0.);
                                              (`Pause, 800., 1, 1, 0, 0.) ]));
      ("pause-engaged", with_rows [ tail; { pause with in_pause_tx = 0 } ]);
      ("pause-engaged", with_rows [ tail; { pause with in_tx_paused_us = 0. } ]);
      ("shape", with_rows [ tail ]) ]

let test_fabric_contract_rules () =
  let open Report.Figures in
  let tail =
    { fb_regime = `Tail_drop; fb_sent = 48; fb_delivered = 48;
      fb_elapsed_ms = 8.5; fb_retx = 134; fb_drops = 82; fb_spine_pause = 0;
      fb_tor_pause = 0; fb_paused_us = 0.; fb_peak_buf = 18998 }
  and pause =
    { fb_regime = `Pause; fb_sent = 48; fb_delivered = 48;
      fb_elapsed_ms = 3.7; fb_retx = 0; fb_drops = 0; fb_spine_pause = 10;
      fb_tor_pause = 4; fb_paused_us = 736.; fb_peak_buf = 47196 }
  and reroute =
    { rr_sent = 48; rr_delivered = 48; rr_retx = 1; rr_spine0_tx = 10;
      rr_spine1_tx = 90; rr_down_drops = 1 }
  in
  let with_rows rows = (rows, reroute) in
  check_rules "fabric" Check.Experiment.fabric_contract ([ tail; pause ], reroute)
    [ ("delivery", with_rows [ tail; { pause with fb_delivered = 40 } ]);
      ("workload",
        with_rows [ tail; { pause with fb_sent = 8; fb_delivered = 8 } ]);
      ("collapse", with_rows [ { tail with fb_drops = 0 }; pause ]);
      ("pause-lossless", with_rows [ tail; { pause with fb_drops = 2 } ]);
      ("pause-tree", with_rows [ tail; { pause with fb_spine_pause = 0 } ]);
      ("pause-tree", with_rows [ tail; { pause with fb_tor_pause = 0 } ]);
      ("reroute", ([ tail; pause ], { reroute with rr_delivered = 47 }));
      ("reroute", ([ tail; pause ], { reroute with rr_spine1_tx = 10 }));
      ("shape", with_rows [ pause ]) ]

let test_congestion_contract_rules () =
  let open Report.Figures in
  let cell regime topo scheme =
    let lossy = regime = `Tail_drop in
    { cg_regime = regime; cg_topo = topo; cg_scheme = scheme; cg_sent = 32;
      cg_delivered = 32; cg_elapsed_ms = 5.; cg_retx = (if lossy then 40 else 0);
      cg_retx_bytes = (if lossy then 50000 else 0);
      cg_switch_drops = (if lossy then 40 else 0);
      cg_pause_tx = (if regime = `Pause then 8 else 0);
      cg_ecn_marks = (if regime = `Ecn then 60 else 0);
      cg_ce_echoes = (if regime = `Ecn then 36 else 0); cg_sacked = 0 }
  in
  let cells =
    List.concat_map
      (fun regime ->
        List.concat_map
          (fun topo -> [ cell regime topo `Go_back_n; cell regime topo `Sack ])
          [ "incast"; "cross-rack" ])
      [ `Tail_drop; `Pause; `Ecn ]
  in
  let gbn =
    { bu_scheme = `Go_back_n; bu_delivered = 40; bu_elapsed_ms = 20.;
      bu_retx = 100; bu_retx_bytes = 120000; bu_retx_bytes_saved = 0;
      bu_sacked = 0; bu_timeouts = 9 }
  in
  let sack =
    { gbn with bu_scheme = `Sack; bu_retx_bytes = 70000;
               bu_retx_bytes_saved = 50000; bu_sacked = 30 }
  in
  (* the intact matrix with cell [i] replaced *)
  let with_cell i f = (List.mapi (fun j c -> if i = j then f c else c) cells,
                       [ gbn; sack ]) in
  let first regime =
    let rec go i = function
      | c :: rest -> if c.cg_regime = regime then i else go (i + 1) rest
      | [] -> Alcotest.fail "regime missing from the hand-built matrix"
    in
    go 0 cells
  in
  check_rules "congestion" Check.Experiment.congestion_contract
    (cells, [ gbn; sack ])
    [ ("delivery", with_cell 0 (fun c -> { c with cg_delivered = 31 }));
      ("shape", (List.tl cells, [ gbn; sack ]));
      ("shape", (cells, [ gbn ]));
      ("ecn-lossless",
        with_cell (first `Ecn) (fun c -> { c with cg_switch_drops = 1 }));
      ("ecn-lossless",
        with_cell (first `Ecn) (fun c -> { c with cg_pause_tx = 1 }));
      ("ecn-marks", with_cell (first `Ecn) (fun c -> { c with cg_ce_echoes = 0 }));
      ("pause-lossless",
        with_cell (first `Pause) (fun c -> { c with cg_switch_drops = 1 }));
      ("no-marks", with_cell (first `Pause) (fun c -> { c with cg_ecn_marks = 1 }));
      ("collapse",
        ( List.map
            (fun c ->
              if c.cg_regime = `Tail_drop then { c with cg_switch_drops = 0 }
              else c)
            cells,
          [ gbn; sack ] ));
      ("sack-saves", (cells, [ gbn; { sack with bu_retx_bytes = 120000 } ]));
      ("sack-saves", (cells, [ { gbn with bu_timeouts = 0 }; sack ])) ]

let test_slo_contract_rules () =
  let open Report.Figures in
  let row system condition p999 =
    { sl_system = system; sl_condition = condition; sl_requests = 160;
      sl_completed = 160; sl_stranded = 0; sl_timeouts = 0; sl_p50_us = 250.;
      sl_p99_us = p999 /. 2.; sl_p999_us = p999; sl_goodput_mbps = 240. }
  in
  let healthy = row `Clic `Healthy 473.
  and slow = row `Clic `Fail_slow 1943.
  and lossy = row `Clic `Fail_slow_loss 4104.
  (* TCP is the comparison, not the contract: its tail may do anything *)
  and tcp = { (row `Tcp `Healthy 55342.) with sl_completed = 150;
                                              sl_stranded = 10 } in
  let verdict =
    { Check.Slo.v_contract = Check.Slo.default; v_healthy = 43;
      v_degraded = 68; v_recovered = 110; v_healthy_p999_us = 906.;
      v_degraded_p999_us = 1957.7; v_recovered_p999_us = 686.;
      v_violations = [] }
  in
  let with_rows rows = (rows, verdict) in
  check_rules "slo" Check.Experiment.slo_contract
    ([ healthy; slow; lossy; tcp ], verdict)
    [ ("delivery", with_rows [ healthy; { slow with sl_completed = 159 }; lossy ]);
      ("delivery", with_rows [ healthy; slow; { lossy with sl_stranded = 1 } ]);
      ("tail-bleed", with_rows [ healthy; { slow with sl_p999_us = 400. }; lossy ]);
      ("shape", with_rows [ healthy; lossy; tcp ]);
      ( "bounded-bleed",
        ( [ healthy; slow; lossy ],
          { verdict with
            Check.Slo.v_violations =
              [ Check.Violation.make ~pass:"slo" ~rule:"bounded-bleed"
                  ~time_ns:0 "degraded p999 over bound" ] } ) ) ]


(* ------------------------------------------------------------------ *)
(* SLO degradation contracts: validation and phase classification
   against a hand-built latency record *)

let mk_slo samples =
  let lats = Array.map snd samples in
  {
    Cluster.Workload.slo_requests = Array.length samples;
    slo_completed = Array.length samples;
    slo_timeouts = 0;
    slo_stranded = 0;
    slo_p50_us = Cluster.Workload.quantile lats 50.;
    slo_p99_us = Cluster.Workload.quantile lats 99.;
    slo_p999_us = Cluster.Workload.quantile lats 99.9;
    slo_mean_us = 0.;
    slo_max_us = 0.;
    slo_goodput_mbps = 0.;
    slo_elapsed = Time.ms 1.;
    slo_samples = samples;
  }

let test_slo_validate () =
  let expect msg c =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        Check.Slo.validate c)
  in
  let d = Check.Slo.default in
  Check.Slo.validate d;
  expect "Slo.validate: healthy_p999_us <= 0"
    { d with Check.Slo.healthy_p999_us = 0. };
  expect "Slo.validate: bleed_ratio < 1" { d with Check.Slo.bleed_ratio = 0.9 };
  expect "Slo.validate: recovery_deadline <= 0"
    { d with Check.Slo.recovery_deadline = 0 }

(* A hand-built record: fault window [100us, 200us), recovery deadline
   50us.  Arrivals at 10/50us are healthy, 120/180us degraded, 210/240us
   inside the (unjudged) recovery window, 260/300us recovered. *)
let test_slo_evaluate_phases () =
  let c =
    {
      Check.Slo.healthy_p999_us = 100.;
      bleed_ratio = 3.;
      recovery_deadline = Time.us 50.;
    }
  in
  let us = Time.us in
  let eval lat_recovering lat_recovered =
    Check.Slo.evaluate c
      ~slo:
        (mk_slo
           [|
             (us 10., 40.);
             (us 50., 80.);
             (us 120., 250.);
             (us 180., 290.);
             (us 210., lat_recovering);
             (us 240., lat_recovering);
             (us 260., lat_recovered);
             (us 300., 60.);
           |])
      ~fault_from:(us 100.) ~fault_until:(us 200.)
  in
  let v = eval 9_000. 90. in
  check_int "healthy samples" 2 v.Check.Slo.v_healthy;
  check_int "degraded samples" 2 v.Check.Slo.v_degraded;
  check_int "recovered samples" 2 v.Check.Slo.v_recovered;
  Alcotest.(check (float 0.001)) "healthy p999" 80. v.Check.Slo.v_healthy_p999_us;
  Alcotest.(check (float 0.001)) "degraded p999" 290.
    v.Check.Slo.v_degraded_p999_us;
  check_bool "contract holds: recovery-window samples are never judged" true
    (Check.Slo.ok v);
  (* push the recovered tail over the healthy bound *)
  let v = eval 10. 900. in
  (match v.Check.Slo.v_violations with
  | [ viol ] ->
      Alcotest.(check string) "rule" "recovery-deadline"
        viol.Check.Violation.rule
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l));
  (* a degraded tail above bleed_ratio * healthy bound trips
     bounded-bleed; healthy stays under its absolute bound *)
  let v =
    Check.Slo.evaluate c
      ~slo:
        (mk_slo
           [| (us 10., 40.); (us 120., 500.); (us 260., 60.) |])
      ~fault_from:(us 100.) ~fault_until:(us 200.)
  in
  (match v.Check.Slo.v_violations with
  | [ viol ] ->
      Alcotest.(check string) "rule" "bounded-bleed" viol.Check.Violation.rule
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l));
  (* an empty phase voids the certification *)
  let v =
    Check.Slo.evaluate c
      ~slo:(mk_slo [| (us 120., 50.); (us 260., 50.) |])
      ~fault_from:(us 100.) ~fault_until:(us 200.)
  in
  (match v.Check.Slo.v_violations with
  | [ viol ] ->
      Alcotest.(check string) "rule" "phase-empty" viol.Check.Violation.rule
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l));
  Alcotest.check_raises "window validation"
    (Invalid_argument "Slo.evaluate: empty or negative fault window")
    (fun () ->
      ignore
        (Check.Slo.evaluate c
           ~slo:(mk_slo [||])
           ~fault_from:(us 200.) ~fault_until:(us 100.)))

let test_slo_contract_run () =
  let v, slo = Check.Slo.run_contract ~quick:true () in
  check_int "no stranded requests" 0 slo.Cluster.Workload.slo_stranded;
  check_bool "healthy phase populated" true (v.Check.Slo.v_healthy > 0);
  check_bool "degraded phase populated" true (v.Check.Slo.v_degraded > 0);
  check_bool "recovered phase populated" true (v.Check.Slo.v_recovered > 0);
  List.iter
    (fun viol ->
      Printf.printf "unexpected violation: %s\n"
        (Check.Violation.to_string viol))
    v.Check.Slo.v_violations;
  check_bool "default contract holds on the canonical run" true
    (Check.Slo.ok v)

(* ------------------------------------------------------------------ *)
(* Satellite: the clic-lint static analyzer *)

module Lint = Lint_core.Lint_project
module Ldiag = Lint_core.Lint_diag

let fixture name = Filename.concat "lint_fixtures" name

(* Every bad fixture must trigger — and trigger ONLY — its own rule. *)
let test_lint_bad_fixtures () =
  let expect file rule =
    let r = Lint.run_files [ fixture file ] in
    match r.Lint.r_findings with
    | [] -> Alcotest.failf "%s: expected %s findings, got none" file rule
    | findings ->
        List.iter
          (fun (d : Ldiag.t) ->
            Alcotest.(check string)
              (file ^ " triggers exactly its rule")
              rule
              (Ldiag.rule_id d.Ldiag.d_rule))
          findings
  in
  expect "bad_sleep_in_isr.ml" "R1";
  expect "bad_unguarded_magic.ml" "R2";
  expect "bad_hot_alloc.ml" "R3";
  expect "bad_unguarded_probe.ml" "R4";
  expect "bad_waiver_no_reason.ml" "R2"

let test_lint_good_fixture () =
  let r = Lint.run_files [ fixture "good_clean.ml" ] in
  check_int "no findings" 0 (List.length r.Lint.r_findings);
  check_int "one waiver collected" 1 (List.length r.Lint.r_waivers);
  List.iter
    (fun (w : Ldiag.waiver) ->
      check_bool "waiver carries a reason" true (w.Ldiag.w_reason <> None))
    r.Lint.r_waivers

let test_lint_rule_filter () =
  let r = Lint.run_files [ fixture "bad_hot_alloc.ml" ] in
  let only rules =
    (Lint.filter_rules (Some rules) r).Lint.r_findings |> List.length
  in
  check_int "R3 filter keeps the findings" (List.length r.Lint.r_findings)
    (only [ Ldiag.R3 ]);
  check_int "R1 filter drops them" 0 (only [ Ldiag.R1 ])

(* Whole-repo clean run: the test binary runs from the build context,
   which mirrors the source tree, so ../lib is exactly the library code
   this binary was compiled from. *)
let test_lint_repo_clean () =
  let r = Lint.run_all ~root:".." in
  List.iter
    (fun (d : Ldiag.t) ->
      Printf.printf "unexpected finding: %s\n" (Ldiag.to_string d))
    r.Lint.r_findings;
  check_int "repository lints clean" 0 (List.length r.Lint.r_findings);
  check_bool "scanned a realistic file count" true (r.Lint.r_files > 60);
  check_bool "the repo carries reasoned waivers" true
    (r.Lint.r_waivers <> []);
  List.iter
    (fun (w : Ldiag.waiver) ->
      check_bool
        ("waiver has a reason: " ^ Ldiag.waiver_to_string w)
        true
        (w.Ldiag.w_reason <> None))
    r.Lint.r_waivers

let test_lint_mli_coverage () =
  let root = Filename.temp_file "clic_lint" ".d" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Sys.mkdir (Filename.concat root "lib") 0o755;
  let ml = Filename.concat (Filename.concat root "lib") "naked.ml" in
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  write ml "let x = 1\n";
  (match Lint.mli_coverage ~root with
  | [ d ] -> Alcotest.(check string) "rule" "R5" (Ldiag.rule_id d.Ldiag.d_rule)
  | l -> Alcotest.failf "expected exactly one R5 finding, got %d"
           (List.length l));
  write (ml ^ "i") "val x : int\n";
  check_int "clean once the interface exists" 0
    (List.length (Lint.mli_coverage ~root))

(* R6 on the known-bad mini root: one module, one export nothing else
   references. *)
let test_lint_r6_fixture () =
  let r = Lint.run_all ~root:(fixture "r6_root") in
  match r.Lint.r_findings with
  | [ d ] ->
      Alcotest.(check string) "rule" "R6" (Ldiag.rule_id d.Ldiag.d_rule);
      check_bool "names M.unused" true
        (String.starts_with ~prefix:"exported value M.unused " d.Ldiag.d_msg)
  | l ->
      List.iter (fun d -> print_endline (Ldiag.to_string d)) l;
      Alcotest.failf "expected exactly one R6 finding, got %d" (List.length l)

(* R6's reference resolution, one export per form: qualified, through a
   module alias, a bare name under [open], under a local [M.( )] open, a
   submodule value, and one used only inside its own module. *)
let test_lint_r6_resolution () =
  let root = Filename.temp_file "clic_lint" ".d" in
  Sys.remove root;
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  List.iter
    (fun d -> Sys.mkdir (Filename.concat root d) 0o755)
    [ ""; "lib"; "lib/m"; "bin" ];
  write (Filename.concat root "lib/m/m.mli")
    "val a : int\nval b : int\nval c : int\nval d : int\n\
     module Sub : sig val e : int end\nval own : int\n";
  write (Filename.concat root "lib/m/m.ml")
    "let a = 1\nlet b = 2\nlet c = 3\nlet d = 4\n\
     module Sub = struct let e = 5 end\nlet own = a + Sub.e\n";
  write (Filename.concat root "bin/main.ml")
    "module X = Lib.M\nlet () = ignore (Lib.M.a + X.b + Lib.M.(d) + M.Sub.e)\n\
     open M\nlet () = ignore c\n";
  let dead =
    List.map
      (fun (d : Ldiag.t) -> d.Ldiag.d_msg)
      (Lint.run_all ~root).Lint.r_findings
  in
  match dead with
  | [ msg ] ->
      check_bool "only M.own is unreferenced" true
        (String.starts_with ~prefix:"exported value M.own " msg)
  | l -> Alcotest.failf "expected one finding, got: %s" (String.concat "; " l)

let suite =
  [
    Alcotest.test_case "sim: seeded tie-break permutes same-instant events"
      `Quick test_sim_tie_break;
    Alcotest.test_case "lifecycle: double free" `Quick
      test_lifecycle_double_free;
    Alcotest.test_case "lifecycle: use after free" `Quick
      test_lifecycle_use_after_free;
    Alcotest.test_case "lifecycle: leak at sim end" `Quick test_lifecycle_leak;
    Alcotest.test_case "lifecycle: pool bytes outstanding" `Quick
      test_lifecycle_pool_leak;
    Alcotest.test_case "lifecycle: balanced run is clean" `Quick
      test_lifecycle_clean;
    Alcotest.test_case "lifecycle: peak live objects across Sim_start" `Quick
      test_lifecycle_peak_live;
    Alcotest.test_case "lifecycle: violation detail text" `Quick
      test_lifecycle_detail_text;
    Alcotest.test_case "invariants: sack no spurious retransmit" `Quick
      test_invariant_sack_no_spurious_retx;
    Alcotest.test_case "lifecycle: real skbuff double free" `Quick
      test_skbuff_double_free_probed;
    Alcotest.test_case "invariants: duplicate/gap delivery" `Quick
      test_invariant_duplicate_delivery;
    Alcotest.test_case "invariants: duplicate app message" `Quick
      test_invariant_msg_once;
    Alcotest.test_case "invariants: ack monotonicity" `Quick
      test_invariant_ack_monotone;
    Alcotest.test_case "invariants: window bound" `Quick
      test_invariant_window_bound;
    Alcotest.test_case "invariants: poll budget" `Quick
      test_invariant_poll_budget;
    Alcotest.test_case "invariants: epoch-monotone delivery" `Quick
      test_invariant_epoch_monotone;
    Alcotest.test_case "invariants: pool balance" `Quick
      test_invariant_pool_balance;
    Alcotest.test_case "invariants: custom registration" `Quick
      test_invariant_register;
    Alcotest.test_case "determinism: logical trace hash" `Quick
      test_determinism_hash;
    Alcotest.test_case "determinism: truncated-run prefix compare" `Quick
      test_determinism_prefix;
    Alcotest.test_case "check: catches a seeded ordering race" `Quick
      test_check_catches_race;
    Alcotest.test_case "check: clean synthetic scenario" `Quick
      test_check_clean_synthetic;
    Alcotest.test_case "check: real CLIC ping-pong end to end" `Quick
      test_check_real_scenario_clean;
    Alcotest.test_case "soak: argument checks" `Quick test_soak_argument_checks;
    Alcotest.test_case "soak: one-seed smoke run" `Quick test_soak_smoke;
    Alcotest.test_case "soak: incast-storm focused" `Quick
      test_soak_incast_storm_focused;
    Alcotest.test_case "soak: fabric-cut focused" `Quick
      test_soak_fabric_cut_focused;
    Alcotest.test_case "soak: evidence gaps name their counters" `Quick
      test_soak_missing_evidence_names_counters;
    Alcotest.test_case "soak: quick summary equals its golden" `Quick
      test_soak_quick_golden;
    Alcotest.test_case "slo: contract validation" `Quick test_slo_validate;
    Alcotest.test_case "slo: phase classification by arrival" `Quick
      test_slo_evaluate_phases;
    Alcotest.test_case "slo: canonical contract run holds" `Quick
      test_slo_contract_run;
    Alcotest.test_case "check: scenario trace hashes pinned" `Slow
      test_scenario_hashes_pinned;
    Alcotest.test_case "probe on/off trace equivalence" `Quick
      test_probe_on_off_equivalence;
    Alcotest.test_case "experiment: registry ids are unique" `Quick
      test_registry_ids_unique;
    Alcotest.test_case "experiment: scenarios match the golden file" `Quick
      test_scenarios_match_golden;
    Alcotest.test_case "experiment: --quick reaches every driver" `Slow
      test_quick_honoured;
    Alcotest.test_case "contract: incast rules" `Quick
      test_incast_contract_rules;
    Alcotest.test_case "contract: fabric rules" `Quick
      test_fabric_contract_rules;
    Alcotest.test_case "contract: congestion rules" `Quick
      test_congestion_contract_rules;
    Alcotest.test_case "contract: slo rules" `Quick test_slo_contract_rules;
    Alcotest.test_case "lint: bad fixtures trigger exactly their rule" `Quick
      test_lint_bad_fixtures;
    Alcotest.test_case "lint: clean fixture has zero findings" `Quick
      test_lint_good_fixture;
    Alcotest.test_case "lint: --rule narrows findings" `Quick
      test_lint_rule_filter;
    Alcotest.test_case "lint: whole repository is clean" `Quick
      test_lint_repo_clean;
    Alcotest.test_case "lint: mli coverage (R5)" `Quick
      test_lint_mli_coverage;
    Alcotest.test_case "lint: unreferenced export fixture (R6)" `Quick
      test_lint_r6_fixture;
    Alcotest.test_case "lint: R6 reference resolution" `Quick
      test_lint_r6_resolution;
  ]
