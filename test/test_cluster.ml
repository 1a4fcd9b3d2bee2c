(* Tests for cluster assembly and the measurement harnesses: construction,
   determinism, conservation, and multi-node traffic. *)

open Engine
open Cluster

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_cluster_shape () =
  let c = Net.create ~n:4 () in
  check_int "size" 4 (Net.size c);
  check_int "one switch per NIC rank" 1 (List.length c.Net.switches);
  for i = 0 to 3 do
    check_int "node id" i (Net.node c i).Node.id
  done;
  Alcotest.check_raises "n<=0" (Invalid_argument "Cluster.create: n <= 0")
    (fun () -> ignore (Net.create ~n:0 ()))

let test_bonded_cluster_has_parallel_switches () =
  let config = { Node.default_config with nics = 2 } in
  let c = Net.create ~config ~n:2 () in
  check_int "two switches" 2 (List.length c.Net.switches);
  check_int "two NICs per node" 2 (List.length (Net.node c 0).Node.nics)

(* Non-positive repetition or message counts are argument errors, not a
   division by zero or a silently empty run. *)
let test_measure_rejects_non_positive_counts () =
  let pair_on () =
    let c = Net.create ~n:2 () in
    (c, Measure.clic_pair c ~a:0 ~b:1 ())
  in
  let rejects msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        let c, pair = pair_on () in
        ignore (f c pair))
  in
  rejects "Measure.pingpong: reps must be >= 1 (got 0)" (fun c pair ->
      Measure.pingpong c pair ~size:0 ~reps:0 ());
  rejects "Measure.pingpong: reps must be >= 1 (got -1)" (fun c pair ->
      Measure.pingpong c pair ~size:0 ~reps:(-1) ());
  rejects "Measure.latency_samples: reps must be >= 1 (got 0)" (fun c pair ->
      Measure.latency_samples c pair ~size:0 ~reps:0 ());
  rejects "Measure.stream: messages must be >= 1 (got -2)" (fun c pair ->
      Measure.stream c pair ~a:0 ~b:1 ~size:1024 ~messages:(-2))

let test_determinism_same_run_same_numbers () =
  let measure () =
    let c = Net.create ~n:2 () in
    let pair = Measure.clic_pair c ~a:0 ~b:1 () in
    let r = Measure.pingpong c pair ~size:4096 ~reps:5 ~warmup:1 () in
    r.Measure.one_way
  in
  let a = measure () and b = measure () in
  check_int "bit-identical repeat" a b

let test_stream_conserves_messages () =
  let c = Net.create ~n:2 () in
  let pair = Measure.clic_pair c ~a:0 ~b:1 () in
  let r = Measure.stream c pair ~a:0 ~b:1 ~size:2000 ~messages:50 in
  check_bool "positive bandwidth" true (r.Measure.st_bandwidth_mbps > 0.);
  check_int "every message delivered" 50
    (Counters.total c.Net.sim ~scope:"node1.clic" "clic.messages_delivered")

let test_pingpong_latency_increases_with_size () =
  let lat size =
    let c = Net.create ~n:2 () in
    let pair = Measure.clic_pair c ~a:0 ~b:1 () in
    (Measure.pingpong c pair ~size ~reps:3 ~warmup:1 ()).Measure.one_way
  in
  let l0 = lat 0 and l64k = lat 65536 in
  check_bool "64KB slower than 0B" true (l64k > l0);
  check_bool "0B latency sane (10..100us)" true
    (l0 > Time.us 10. && l0 < Time.us 100.)

let test_all_to_all_traffic () =
  let n = 4 in
  let c = Net.create ~n () in
  let expected = n * (n - 1) in
  let delivered = ref 0 in
  for me = 0 to n - 1 do
    let node = Net.node c me in
    Node.spawn node (fun () ->
        for peer = 0 to n - 1 do
          if peer <> me then
            Clic.Api.send node.Node.clic ~dst:peer ~port:1 1000
        done);
    Node.spawn node (fun () ->
        for _ = 1 to n - 1 do
          ignore (Clic.Api.recv node.Node.clic ~port:1);
          incr delivered
        done)
  done;
  Net.run c;
  check_int "n*(n-1) messages" expected !delivered

let test_both_stacks_share_one_node () =
  (* CLIC and TCP traffic on the same nodes, simultaneously. *)
  let c = Net.create ~n:2 () in
  let na = Net.node c 0 and nb = Net.node c 1 in
  Proto.Tcp.listen nb.Node.tcp ~port:80;
  let tcp_done = ref false and clic_done = ref false in
  Node.spawn nb (fun () ->
      let conn = Proto.Tcp.accept nb.Node.tcp ~port:80 in
      Proto.Tcp.recv conn 50_000;
      tcp_done := true);
  Node.spawn nb (fun () ->
      ignore (Clic.Api.recv nb.Node.clic ~port:5);
      clic_done := true);
  Node.spawn na (fun () ->
      let conn = Proto.Tcp.connect na.Node.tcp ~dst:1 ~port:80 in
      Proto.Tcp.send conn 50_000);
  Node.spawn na (fun () -> Clic.Api.send na.Node.clic ~dst:1 ~port:5 50_000);
  Net.run c;
  check_bool "tcp completed" true !tcp_done;
  check_bool "clic completed" true !clic_done

let test_run_for_bounds_time () =
  let c = Net.create ~n:2 () in
  let na = Net.node c 0 in
  Node.spawn na (fun () ->
      let rec forever () =
        Process.delay (Time.ms 1.);
        forever ()
      in
      forever ());
  Net.run_for c (Time.ms 10.);
  check_int "clock advanced exactly" (Time.ms 10.) (Sim.now c.Net.sim)

let test_workload_uniform_random_conserves () =
  let c = Net.create ~n:4 () in
  let s = Workload.uniform_random c ~seed:3 ~messages_per_node:20 () in
  check_int "sent" 80 s.Workload.sent;
  check_int "all delivered" 80 s.Workload.delivered;
  check_int "no stranded messages" 0 s.Workload.stranded;
  check_bool "bytes moved" true (s.Workload.bytes > 0)

let test_workload_uniform_random_under_loss () =
  let config =
    { Node.default_config with
      link_fault =
        Some (fun () -> Hw.Fault.drop ~rng:(Rng.create ~seed:17) ~prob:0.02)
    }
  in
  let c = Net.create ~config ~n:4 () in
  let s = Workload.uniform_random c ~seed:5 ~messages_per_node:15 () in
  check_int "exactly-once despite drops" s.Workload.sent s.Workload.delivered

let test_workload_hotspot_incast () =
  let c = Net.create ~n:5 () in
  let s = Workload.hotspot c ~seed:9 ~target:0 ~messages_per_node:30 () in
  check_int "sent" 120 s.Workload.sent;
  check_int "target absorbed everything" 120 s.Workload.delivered

let test_workload_ring_rounds () =
  let c = Net.create ~n:4 () in
  let s = Workload.ring c ~rounds:10 () in
  check_int "sent" 40 s.Workload.sent;
  check_int "delivered" 40 s.Workload.delivered;
  check_int "no stranded messages" 0 s.Workload.stranded

let test_workload_determinism () =
  let run () =
    let c = Net.create ~n:3 () in
    (Workload.uniform_random c ~seed:42 ~messages_per_node:10 ()).Workload.elapsed
  in
  check_int "same seed, same elapsed" (run ()) (run ())

let test_incast_with_finite_switch_buffers () =
  (* Five senders converge on one port whose egress buffer holds only a
     few frames: the switch tail-drops, and CLIC must recover every
     message anyway. *)
  let config = { Node.default_config with switch_egress_frames = Some 8 } in
  let c = Net.create ~config ~n:6 () in
  let s = Workload.hotspot c ~seed:4 ~target:0 ~messages_per_node:40 () in
  check_int "exactly once despite congestion drops" s.Workload.sent
    s.Workload.delivered;
  let drops = Hw.Switch.egress_drops (List.hd c.Net.switches) in
  check_bool
    (Printf.sprintf "switch actually dropped (%d)" drops)
    true (drops > 0)

(* ------------------------------------------------------------------ *)
(* Node crash and recovery *)

let snappy =
  (* fast failure detection so the test stays small: the peer is declared
     dead after ~2.5ms of silence instead of the default tens of ms *)
  { Clic.Params.default with
    retransmit_timeout = Time.us 500.; rto_min = Time.us 100.;
    rto_max = Time.ms 1.; max_retries = 3 }

(* A crashed boot's kernel objects stay registered beside the rebooted
   boot's: the run-wide total sums both boots, and each boot reads apart
   under its own scope. *)
let test_counters_span_boots () =
  let config = { Node.default_config with clic_params = snappy } in
  let c = Net.create ~config ~n:2 () in
  let na = Net.node c 0 and nb = Net.node c 1 in
  let recv_one () = ignore (Clic.Api.recv nb.Node.clic ~port:5) in
  Node.spawn nb recv_one;
  Node.spawn na (fun () ->
      Clic.Api.send na.Node.clic ~dst:1 ~port:5 1_000;
      Process.delay (Time.ms 1.);
      Node.crash nb;
      (* lost: the channel to the dead boot retransmits, then dies *)
      Clic.Api.send na.Node.clic ~dst:1 ~port:5 2_000;
      Process.delay (Time.ms 8.);
      Node.reboot nb;
      Node.spawn nb recv_one;
      let rec resend () =
        try Clic.Api.send na.Node.clic ~dst:1 ~port:5 3_000
        with Clic.Channel.Dead _ ->
          Process.delay (Time.us 300.);
          resend ()
      in
      resend ());
  Net.run c;
  let delivered ?scope () =
    Counters.total c.Net.sim ?scope "clic.messages_delivered"
  in
  check_int "the crashed boot delivered the first message" 1
    (delivered ~scope:"node1.clic" ());
  check_int "the rebooted boot delivered the second" 1
    (delivered ~scope:"node1.clic#1" ());
  check_int "the run-wide total sums both boots" 2 (delivered ());
  check_bool "each boot had its own NIC" true
    (Counters.total c.Net.sim ~scope:"nic1.0" "nic.rx_packets" > 0
    && Counters.total c.Net.sim ~scope:"nic1.0#1" "nic.rx_packets" > 0)

let test_node_crash_recovery_reestablishes () =
  let config = { Node.default_config with clic_params = snappy } in
  let c = Net.create ~config ~n:2 () in
  let na = Net.node c 0 and nb = Net.node c 1 in
  let first = ref 0 and second = ref 0 and dead_seen = ref 0 in
  let pool_after_crash = ref (-1) in
  Node.spawn nb (fun () ->
      first := (Clic.Api.recv nb.Node.clic ~port:5).Clic.Clic_module.msg_bytes);
  Node.spawn na (fun () ->
      (* phase 1: normal delivery *)
      Clic.Api.send na.Node.clic ~dst:1 ~port:5 1_000;
      (* phase 2: the peer is down; the confirmed send must fail after
         max_retries instead of blocking forever *)
      Process.delay (Time.ms 2.);
      (try
         Clic.Api.send_sync na.Node.clic ~dst:1 ~port:5 2_000;
         Alcotest.fail "send to a crashed node succeeded"
       with Clic.Channel.Dead peer ->
         check_int "exception names the peer" 1 peer;
         incr dead_seen);
      (* phase 3: the peer is back with a higher epoch — retry until the
         fresh kernel answers *)
      Process.delay (Time.ms 8.);
      let rec resend () =
        try Clic.Api.send na.Node.clic ~dst:1 ~port:5 3_000
        with Clic.Channel.Dead _ ->
          Process.delay (Time.us 300.);
          resend ()
      in
      resend ());
  Node.spawn na (fun () ->
      Process.delay (Time.ms 1.);
      let pool = (Clic.Clic_module.env_of (Clic.Api.kernel nb.Node.clic)).Proto.Hostenv.kmem in
      Node.crash nb;
      (* crash cleanup returned every staged byte: the accounting identity
         holds across the crash *)
      pool_after_crash := Os_model.Kmem.in_use pool;
      Process.delay (Time.ms 5.);
      Node.reboot nb;
      Node.spawn nb (fun () ->
          second :=
            (Clic.Api.recv nb.Node.clic ~port:5).Clic.Clic_module.msg_bytes));
  Net.run c;
  check_int "phase 1 delivered" 1_000 !first;
  check_int "dead peer detected exactly once" 1 !dead_seen;
  check_int "phase 3 delivered on the new boot" 3_000 !second;
  check_bool "node back up" true (Node.is_up nb);
  check_int "boot epoch bumped" 1 (Node.epoch nb);
  check_int "one crash recorded" 1
    (Counters.total c.Net.sim ~scope:"node1" "node.crashes");
  check_int "dead kernel's pool fully returned" 0 !pool_after_crash;
  let survivor name = Counters.total c.Net.sim ~scope:"node0.clic" name in
  check_bool "survivor noticed the reboot" true
    (survivor "clic.peer_reboots" >= 1);
  check_bool "survivor re-established the channel" true
    (survivor "clic.reestablishments" >= 1);
  check_int "fresh kernel starts at the new epoch" 1
    (Clic.Clic_module.epoch (Clic.Api.kernel nb.Node.clic))

let test_node_crash_reboot_guards () =
  let c = Net.create ~n:2 () in
  let nb = Net.node c 1 in
  Node.spawn (Net.node c 0) (fun () ->
      check_bool "up initially" true (Node.is_up nb);
      Alcotest.check_raises "reboot while up"
        (Invalid_argument "Node.reboot: still up") (fun () -> Node.reboot nb);
      Node.crash nb;
      check_bool "down after crash" false (Node.is_up nb);
      Alcotest.check_raises "double crash"
        (Invalid_argument "Node.crash: already down") (fun () -> Node.crash nb);
      Process.delay (Time.ms 1.);
      Node.reboot nb;
      check_bool "up after reboot" true (Node.is_up nb);
      check_int "epoch counts boots" 1 (Node.epoch nb));
  Net.run c

(* ------------------------------------------------------------------ *)
(* Fabric topologies: the DSL, compiled routes, and multi-hop clusters *)

let raw ~src ~dst n =
  Hw.Eth_frame.make ~src:(Hw.Mac.of_node src) ~dst:(Hw.Mac.of_node dst)
    ~ethertype:0x88 ~payload_bytes:n (Hw.Eth_frame.Raw n)

let test_topology_star_compat () =
  let t = Topology.star ~n:4 in
  check_int "hosts" 4 (Topology.n t);
  Alcotest.(check (list string))
    "the legacy single prefix" [ "switch" ] (Topology.switches t);
  check_int "no trunks" 0 (List.length (Topology.trunks t));
  for id = 0 to 3 do
    Alcotest.(check string) "everyone on the one switch" "switch"
      (Topology.attach t id)
  done;
  check_int "diameter" 0 (Topology.diameter t);
  check_int "no routes to compile" 0 (List.length (Topology.routes t))

let test_topology_validation () =
  let mk ?ttl ~switches ~trunks ~hosts () =
    ignore (Topology.make ?ttl ~switches ~trunks ~hosts ())
  in
  Alcotest.check_raises "duplicate switch"
    (Invalid_argument "Topology: duplicate switch s") (fun () ->
      mk ~switches:[ "s"; "s" ] ~trunks:[] ~hosts:[| "s" |] ());
  Alcotest.check_raises "self trunk"
    (Invalid_argument "Topology: self-trunk s") (fun () ->
      mk ~switches:[ "s" ] ~trunks:[ ("s", "s") ] ~hosts:[| "s" |] ());
  Alcotest.check_raises "unknown trunk end"
    (Invalid_argument "Topology: trunk to unknown switch t") (fun () ->
      mk ~switches:[ "s" ] ~trunks:[ ("s", "t") ] ~hosts:[| "s" |] ());
  Alcotest.check_raises "disconnected fabric"
    (Invalid_argument "Topology: switch t is disconnected") (fun () ->
      mk ~switches:[ "s"; "t" ] ~trunks:[] ~hosts:[| "s" |] ());
  Alcotest.check_raises "ttl below the diameter"
    (Invalid_argument "Topology: ttl below the fabric diameter") (fun () ->
      mk ~ttl:2
        ~switches:[ "s"; "t"; "u" ]
        ~trunks:[ ("s", "t"); ("t", "u") ]
        ~hosts:[| "s"; "u" |] ());
  Alcotest.check_raises "fat tree wants even k"
    (Invalid_argument "Topology.fat_tree: k must be even and >= 2") (fun () ->
      ignore (Topology.fat_tree ~k:3 ()))

let test_topology_linear_routes () =
  let t = Topology.linear ~racks:3 ~per_rack:2 () in
  check_int "hosts" 6 (Topology.n t);
  check_int "diameter of the chain" 2 (Topology.diameter t);
  Alcotest.(check string) "host 5 in the last rack" "s2." (Topology.attach t 5);
  let routes = Topology.routes t in
  let via at dst =
    match
      List.find_opt (fun (a, d, _) -> a = at && d = dst) routes
    with
    | Some (_, _, v) -> v
    | None -> []
  in
  Alcotest.(check (list string)) "s0 reaches rack 2 through s1" [ "s1." ]
    (via "s0." 5);
  Alcotest.(check (list string)) "middle rack goes left for rack 0" [ "s0." ]
    (via "s1." 0);
  Alcotest.(check (list string)) "no route entry for a local host" []
    (via "s0." 0)

let test_topology_leaf_spine_shape () =
  let t = Topology.leaf_spine ~racks:3 ~per_rack:2 ~spines:2 () in
  check_int "hosts" 6 (Topology.n t);
  check_int "tors + spines" 5 (List.length (Topology.switches t));
  check_int "full tor x spine mesh" 6 (List.length (Topology.trunks t));
  check_int "two-hop diameter via any spine" 2 (Topology.diameter t);
  (* every cross-rack destination gets the full equal-cost spine set *)
  List.iter
    (fun (at, dst, via) ->
      if String.length at >= 3 && String.sub at 0 3 = "tor" then
        check_int
          (Printf.sprintf "ECMP width at %s for %d" at dst)
          2 (List.length via))
    (List.filter (fun (_, _, via) -> via <> []) (Topology.routes t))

let test_topology_fat_tree_shape () =
  let t = Topology.fat_tree ~k:4 () in
  check_int "k^3/4 hosts" 16 (Topology.n t);
  check_int "edge + aggregation + core" 20 (List.length (Topology.switches t));
  (* k pods x (k/2 edge x k/2 agg) + (k/2)^2 cores x k pods *)
  check_int "trunks" 32 (List.length (Topology.trunks t));
  check_int "diameter edge-agg-core-agg-edge" 4 (Topology.diameter t);
  check_bool "default ttl clears the diameter" true
    (Topology.ttl t >= Topology.diameter t + 1);
  (* same-pod, different-edge traffic has k/2 equal-cost aggregations *)
  let routes = Topology.routes t in
  match
    List.find_opt (fun (at, dst, _) -> at = "e0_0." && dst = 2) routes
  with
  | Some (_, _, via) -> check_int "in-pod ECMP width" 2 (List.length via)
  | None -> Alcotest.fail "no route from e0_0. to host 2"

let test_topology_reroute_excluding () =
  let t = Topology.leaf_spine ~racks:2 ~per_rack:1 ~spines:2 () in
  let via excluding =
    match
      List.find_opt
        (fun (at, dst, _) -> at = "tor0." && dst = 1)
        (Topology.routes ~excluding t)
    with
    | Some (_, _, v) -> v
    | None -> []
  in
  Alcotest.(check (list string))
    "healthy: both spines equal cost" [ "spine0."; "spine1." ] (via []);
  Alcotest.(check (list string))
    "spine0 dead: the survivor carries all" [ "spine1." ] (via [ "spine0." ]);
  Alcotest.(check (list string))
    "both spines dead: the destination vanishes" []
    (via [ "spine0."; "spine1." ])

(* Instantiate a topology's rank-0 fabric with bare counting stations —
   the switch-level view the qcheck properties drive directly, mirroring
   what [Net.create_topo] wires per NIC rank. *)
let build_fabric sim topo =
  let phys p = p ^ "0" in
  let sws =
    List.map
      (fun p ->
        ( p,
          Hw.Switch.create sim ~name:(phys p) ~bits_per_s:1e9
            ~learning:(Topology.learning topo) ~ttl:(Topology.ttl topo) () ))
      (Topology.switches topo)
  in
  let sw p = List.assoc p sws in
  List.iter
    (fun (x, y) -> Hw.Switch.add_trunk (sw x) (sw y))
    (Topology.trunks topo);
  for id = 0 to Topology.n topo - 1 do
    Hw.Switch.add_port (sw (Topology.attach topo id)) ~node:id
  done;
  if not (Topology.learning topo) then
    List.iter
      (fun (at, dst, via) ->
        Hw.Switch.set_route (sw at) ~dst ~via:(List.map phys via))
      (Topology.routes topo);
  sws

let topo_arb =
  let print t =
    Printf.sprintf "{n=%d; switches=%s%s}" (Topology.n t)
      (String.concat "," (Topology.switches t))
      (if Topology.learning t then "; learning" else "")
  in
  QCheck.make ~print
    QCheck.Gen.(
      oneof
        [
          map2
            (fun racks per_rack -> Topology.linear ~racks ~per_rack ())
            (int_range 1 4) (int_range 1 3);
          map2
            (fun racks per_rack ->
              Topology.linear ~learning:true ~racks ~per_rack ())
            (int_range 1 3) (int_range 1 2);
          map3
            (fun racks per_rack spines ->
              Topology.leaf_spine ~racks ~per_rack ~spines ())
            (int_range 2 4) (int_range 1 3) (int_range 1 3);
          return (Topology.fat_tree ~k:2 ());
          return (Topology.fat_tree ~k:4 ());
          return (Topology.star ~n:5);
        ])

let prop_fabric_all_pairs_delivery =
  QCheck.Test.make ~count:20 ~name:"fabric: all-pairs delivery, loop-free"
    topo_arb
    (fun topo ->
      let sim = Sim.create () in
      let sws = build_fabric sim topo in
      let n = Topology.n topo in
      let got = Array.make n 0 in
      for id = 0 to n - 1 do
        let sw = List.assoc (Topology.attach topo id) sws in
        Hw.Switch.connect_node sw ~node:id (fun f ->
            (* learning fabrics flood unknown destinations to every
               station: count only frames addressed to this one *)
            if Hw.Mac.equal f.Hw.Eth_frame.dst (Hw.Mac.of_node id) then
              got.(id) <- got.(id) + 1)
      done;
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          if s <> d then
            Hw.Link.send
              (Hw.Switch.uplink (List.assoc (Topology.attach topo s) sws)
                 ~node:s)
              (raw ~src:s ~dst:d 200)
        done
      done;
      Sim.run sim;
      Array.for_all (fun c -> c = n - 1) got
      && Counters.total sim "switch.frames_ttl_dropped" = 0
      && Counters.total sim "switch.frames_unroutable" = 0)

let prop_fabric_flood_bounded_by_ttl =
  (* a broadcast on a cyclic static-routed fabric storms around the spine
     loops; the TTL must bound it and every station must still hear it *)
  QCheck.Test.make ~count:15 ~name:"fabric: broadcast storm dies at the TTL"
    (QCheck.make
       ~print:(fun (s, r) -> Printf.sprintf "spines=%d racks=%d" s r)
       QCheck.Gen.(pair (int_range 2 3) (int_range 2 3)))
    (fun (spines, racks) ->
      let topo = Topology.leaf_spine ~racks ~per_rack:2 ~spines () in
      let sim = Sim.create () in
      let sws = build_fabric sim topo in
      let n = Topology.n topo in
      let heard = Array.make n 0 in
      for id = 0 to n - 1 do
        let sw = List.assoc (Topology.attach topo id) sws in
        Hw.Switch.connect_node sw ~node:id (fun f ->
            if Hw.Mac.equal f.Hw.Eth_frame.dst Hw.Mac.broadcast then
              heard.(id) <- heard.(id) + 1)
      done;
      Hw.Link.send
        (Hw.Switch.uplink (List.assoc (Topology.attach topo 0) sws) ~node:0)
        (Hw.Eth_frame.make ~src:(Hw.Mac.of_node 0) ~dst:Hw.Mac.broadcast
           ~ethertype:0x88 ~payload_bytes:100 (Hw.Eth_frame.Raw 100));
      Sim.run sim (* termination itself is the property under test *);
      let ttl_drops = Counters.total sim "switch.frames_ttl_dropped" in
      (* with >= 2 spines the flood loops, so the TTL must have fired;
         looped copies may even circle back to the sender's own switch *)
      ttl_drops > 0
      && Array.for_all (fun c -> c >= 1) (Array.sub heard 1 (n - 1)))

let prop_fabric_ecmp_spreads_load =
  QCheck.Test.make ~count:15 ~name:"fabric: ECMP loads every spine trunk"
    (QCheck.make
       ~print:(fun (s, p) -> Printf.sprintf "spines=%d per_rack=%d" s p)
       QCheck.Gen.(pair (int_range 2 4) (int_range 2 3)))
    (fun (spines, per_rack) ->
      let topo = Topology.leaf_spine ~racks:2 ~per_rack ~spines () in
      let sim = Sim.create () in
      let sws = build_fabric sim topo in
      let n = Topology.n topo in
      let got = ref 0 in
      for id = 0 to n - 1 do
        let sw = List.assoc (Topology.attach topo id) sws in
        Hw.Switch.connect_node sw ~node:id (fun f ->
            if Hw.Mac.equal f.Hw.Eth_frame.dst (Hw.Mac.of_node id) then
              incr got)
      done;
      (* every cross-rack ordered pair, both directions, two frames each *)
      let flows = ref 0 in
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          if Topology.attach topo s <> Topology.attach topo d then begin
            incr flows;
            for _ = 1 to 2 do
              Hw.Link.send
                (Hw.Switch.uplink (List.assoc (Topology.attach topo s) sws)
                   ~node:s)
                (raw ~src:s ~dst:d 200)
            done
          end
        done
      done;
      Sim.run sim;
      (* pigeonhole honesty: a handful of flows cannot promise to land in
         every one of [spines] hash bins, so the per-flow hash is judged
         fabric-wide — across both ToRs every spine must carry load, and
         no single spine may swallow everything *)
      let load sp =
        Hw.Switch.trunk_tx_frames (List.assoc "tor0." sws) ~peer:(sp ^ "0")
        + Hw.Switch.trunk_tx_frames (List.assoc "tor1." sws) ~peer:(sp ^ "0")
      in
      let loads = List.init spines (fun i -> load (Printf.sprintf "spine%d." i)) in
      !got = 2 * !flows
      && List.fold_left ( + ) 0 loads = 2 * !flows
      && List.for_all (fun l -> l > 0 && l < 2 * !flows) loads)

let test_net_fail_switch_reroutes () =
  let topo = Topology.leaf_spine ~racks:2 ~per_rack:1 ~spines:2 () in
  let c = Net.create_topo ~topo () in
  Alcotest.(check (list string))
    "nothing failed initially" [] (Net.failed_switches c);
  Alcotest.check_raises "unknown prefix"
    (Invalid_argument "Net.switch: unknown xx") (fun () ->
      ignore (Net.switch c "xx"));
  Net.fail_switch c "spine0.";
  Net.fail_switch c "spine0." (* idempotent *);
  Alcotest.(check (list string))
    "failure recorded once" [ "spine0." ] (Net.failed_switches c);
  check_bool "switch powered down" true
    (Hw.Switch.is_down (Net.switch c "spine0."));
  let pair = Measure.clic_pair c ~a:0 ~b:1 () in
  let r = Measure.pingpong c pair ~size:1024 ~reps:2 ~warmup:1 () in
  check_bool "traffic survives on the remaining spine" true
    (r.Measure.one_way > 0);
  check_int "the dead spine carried nothing"
    0
    (Hw.Switch.trunk_tx_frames (Net.switch c "tor0.") ~peer:"spine0.0");
  Net.restore_switch c "spine0.";
  Alcotest.(check (list string))
    "restored" [] (Net.failed_switches c);
  check_bool "switch back up" false
    (Hw.Switch.is_down (Net.switch c "spine0."))

let test_fabric_crash_reboot_rewires () =
  (* the satellite regression: crash/reboot must rewire the node into its
     own ToR on a multi-switch fabric, not a hard-coded single star *)
  let config = { Node.default_config with clic_params = snappy } in
  let topo = Topology.leaf_spine ~racks:2 ~per_rack:1 ~spines:1 () in
  let c = Net.create_topo ~config ~topo () in
  let na = Net.node c 0 and nb = Net.node c 1 in
  let first = ref 0 and second = ref 0 in
  Node.spawn nb (fun () ->
      first := (Clic.Api.recv nb.Node.clic ~port:7).Clic.Clic_module.msg_bytes);
  Node.spawn na (fun () ->
      Clic.Api.send na.Node.clic ~dst:1 ~port:7 500;
      (* while the peer is down, a confirmed send must detect the death —
         this also tears the stale-epoch channel down for phase 3 *)
      Process.delay (Time.us 2_500.);
      (try
         Clic.Api.send_sync na.Node.clic ~dst:1 ~port:7 2_000;
         Alcotest.fail "send to a crashed node succeeded"
       with Clic.Channel.Dead _ -> ());
      Process.delay (Time.ms 8.);
      let rec resend () =
        try Clic.Api.send na.Node.clic ~dst:1 ~port:7 1_500
        with Clic.Channel.Dead _ ->
          Process.delay (Time.us 300.);
          resend ()
      in
      resend ());
  Node.spawn na (fun () ->
      Process.delay (Time.ms 2.);
      Node.crash nb;
      Process.delay (Time.ms 4.);
      Node.reboot nb;
      Node.spawn nb (fun () ->
          second :=
            (Clic.Api.recv nb.Node.clic ~port:7).Clic.Clic_module.msg_bytes));
  Net.run c;
  check_int "pre-crash message crossed the fabric" 500 !first;
  check_int "post-reboot message reaches the rewired NIC" 1_500 !second;
  check_int "one boot recorded" 1 (Node.epoch nb)

let test_workload_hotspot_explicit_senders () =
  let c = Net.create ~n:5 () in
  let s =
    Workload.hotspot c ~seed:3 ~target:0 ~senders:[ 2; 4 ]
      ~messages_per_node:10 ()
  in
  check_int "only the two senders sent" 20 s.Workload.sent;
  check_int "delivered exactly once" 20 s.Workload.delivered;
  let c2 = Net.create ~n:5 () in
  Alcotest.check_raises "the target cannot send to itself"
    (Invalid_argument "Workload.hotspot: bad sender id") (fun () ->
      ignore
        (Workload.hotspot c2 ~seed:3 ~target:0 ~senders:[ 0 ]
           ~messages_per_node:1 ()))

(* ------------------------------------------------------------------ *)
(* Open-loop SLO workloads *)

let test_workload_open_loop_completes () =
  let c = Net.create ~n:4 () in
  let s, slo =
    Workload.open_loop c ~seed:11
      ~arrival:(Workload.Poisson { mean_gap = Time.us 20. })
      ~requests_per_node:25 ()
  in
  check_int "all requests fired" 100 slo.Workload.slo_requests;
  check_int "all requests answered" 100 slo.Workload.slo_completed;
  check_int "no stranded requests" 0 slo.Workload.slo_stranded;
  check_int "no stranded messages" 0 s.Workload.stranded;
  check_int "one sample per completion" 100
    (Array.length slo.Workload.slo_samples);
  check_bool "quantiles ordered" true
    (slo.Workload.slo_p50_us <= slo.Workload.slo_p99_us
    && slo.Workload.slo_p99_us <= slo.Workload.slo_p999_us
    && slo.Workload.slo_p999_us <= slo.Workload.slo_max_us);
  check_bool "goodput positive" true (slo.Workload.slo_goodput_mbps > 0.)

let test_workload_open_loop_deterministic () =
  let run seed =
    let c = Net.create ~n:3 () in
    let _, slo =
      Workload.open_loop c ~seed
        ~arrival:(Workload.Poisson { mean_gap = Time.us 15. })
        ~requests_per_node:20 ()
    in
    (slo.Workload.slo_p999_us, slo.Workload.slo_elapsed)
  in
  check_bool "same seed, same tail" true (run 21 = run 21);
  check_bool "different seed, different run" true (run 21 <> run 22)

let test_workload_open_loop_pareto_and_deadline () =
  let c = Net.create ~n:3 () in
  let _, slo =
    Workload.open_loop c ~seed:5
      ~arrival:(Workload.Pareto { shape = 2.5; min_gap = Time.us 10. })
      ~requests_per_node:15 ~deadline:1 ()
  in
  check_int "completed under heavy-tailed arrivals" slo.Workload.slo_requests
    slo.Workload.slo_completed;
  (* a 1 ns deadline is unmeetable: every completion is a timeout *)
  check_int "deadline counts timeouts" slo.Workload.slo_completed
    slo.Workload.slo_timeouts

let test_workload_open_loop_oneway () =
  let run () =
    let c = Net.create ~n:4 () in
    Workload.open_loop_oneway c ~seed:17
      ~arrival:(Workload.Poisson { mean_gap = Time.us 20. })
      ~requests_per_node:25 ()
  in
  let s, slo = run () in
  check_int "all requests fired" 100 slo.Workload.slo_requests;
  check_int "all requests delivered" 100 slo.Workload.slo_completed;
  check_int "no stranded requests" 0 slo.Workload.slo_stranded;
  check_int "no stranded messages" 0 s.Workload.stranded;
  check_bool "quantiles ordered" true
    (slo.Workload.slo_p50_us <= slo.Workload.slo_p99_us
    && slo.Workload.slo_p99_us <= slo.Workload.slo_p999_us);
  (* one-way latency has no response leg: cheaper than the echo variant *)
  check_bool "latency measured" true (slo.Workload.slo_p50_us > 0.);
  let _, slo2 = run () in
  check_bool "same seed, same samples" true
    (slo.Workload.slo_samples = slo2.Workload.slo_samples)

let test_workload_arrival_validation () =
  Alcotest.check_raises "poisson gap"
    (Invalid_argument "Workload: Poisson mean_gap <= 0") (fun () ->
      Workload.validate_arrival (Workload.Poisson { mean_gap = 0 }));
  Alcotest.check_raises "pareto shape"
    (Invalid_argument
       "Workload: Pareto shape <= 1 (mean inter-arrival time would not \
        exist)") (fun () ->
      Workload.validate_arrival
        (Workload.Pareto { shape = 1.0; min_gap = Time.us 5. }));
  Alcotest.check_raises "pareto gap"
    (Invalid_argument "Workload: Pareto min_gap <= 0") (fun () ->
      Workload.validate_arrival (Workload.Pareto { shape = 2.; min_gap = 0 }))

let test_workload_quantile_hand_computed () =
  let samples = [| 9.; 1.; 8.; 2.; 7.; 3.; 6.; 4.; 5.; 10. |] in
  check_bool "p0 is the minimum" true (Workload.quantile samples 0. = 1.);
  (* nearest-rank on n=10: index floor(50/100*10) = 5 of the sorted array *)
  check_bool "p50 by hand" true (Workload.quantile samples 50. = 6.);
  check_bool "p99 is the maximum" true (Workload.quantile samples 99. = 10.);
  check_bool "p100 clamps to the maximum" true
    (Workload.quantile samples 100. = 10.);
  check_bool "empty array" true (Workload.quantile [||] 50. = 0.);
  Alcotest.check_raises "percentile range"
    (Invalid_argument "Workload.quantile: percentile outside [0,100]")
    (fun () -> ignore (Workload.quantile samples 101.))

let test_workload_partition_aggregate () =
  let c = Net.create ~n:5 () in
  let s, slo, fo =
    Workload.partition_aggregate c ~seed:8 ~queries:15 ()
  in
  check_int "queries fired" 15 fo.Workload.fo_queries;
  check_int "queries completed" 15 fo.Workload.fo_completed;
  check_int "slo mirrors queries" 15 slo.Workload.slo_completed;
  (* each query fans out to all 4 leaves: 15 requests + 60 leaf responses
     were matched, nothing stranded *)
  check_int "no stranded messages" 0 s.Workload.stranded;
  check_int "no stranded queries" 0 slo.Workload.slo_stranded;
  check_bool "leaf tail measured" true (fo.Workload.fo_leaf_p99_us > 0.)

let test_workload_elephants_mice () =
  let c = Net.create ~n:4 () in
  let m = Workload.elephants_mice c ~seed:6 ~requests_per_node:20 () in
  check_int "elephants conserved" m.Workload.mix_elephants.Workload.sent
    m.Workload.mix_elephants.Workload.delivered;
  check_int "no stranded elephants" 0
    m.Workload.mix_elephants.Workload.stranded;
  check_int "no stranded mice" 0 m.Workload.mix_mice.Workload.stranded;
  check_int "mice answered" 80 m.Workload.mix_slo.Workload.slo_completed;
  check_bool "mice tail measured" true (m.Workload.mix_slo.Workload.slo_p99_us > 0.)

let test_gray_failures_degrade_tail_with_evidence () =
  let arrival = Workload.Poisson { mean_gap = Time.us 25. } in
  let healthy =
    let c = Net.create ~n:4 () in
    let _, slo = Workload.open_loop c ~seed:31 ~arrival
        ~requests_per_node:40 () in
    slo
  in
  (* same offered load, but the fabric is quietly sick: every link sags
     to an eighth of its rate mid-run, NICs 1 and 2 serve 6x slower, and
     node 3's switch port stalls periodically *)
  let config =
    { Node.default_config with
      link_fault =
        Some
          (fun () ->
            Hw.Fault.brownout ~fraction:0.125 ~from_:(Time.us 100.)
              ~until_:(Time.ms 2.) ())
    }
  in
  let c = Net.create ~config ~n:4 () in
  Workload.inject_gray c ~nic_nodes:[ 1; 2 ] ~nic_factor:6.0
    ~stall_nodes:[ 3 ] ~from_:(Time.us 100.) ~until_:(Time.ms 2.) ();
  let s, slo = Workload.open_loop c ~seed:31 ~arrival
      ~requests_per_node:40 () in
  check_int "every request still answered" slo.Workload.slo_requests
    slo.Workload.slo_completed;
  check_int "no stranded messages" 0 s.Workload.stranded;
  check_bool "gray failures fatten the tail" true
    (slo.Workload.slo_p99_us > healthy.Workload.slo_p99_us);
  (* evidence: each fail-slow mechanism actually engaged *)
  let count ?scope name = Counters.total c.Net.sim ?scope name in
  check_bool "link brownout engaged" true (count "fault.slowed" > 0);
  let nic_extra =
    count ~scope:"nic1.0" "nic.slow_extra_ns"
    + count ~scope:"nic2.0" "nic.slow_extra_ns"
  in
  check_bool "nic fail-slow engaged" true (nic_extra > 0);
  check_bool "switch stalls engaged" true (count "switch.egress_stall_ns" > 0)

let test_gray_validation () =
  let c = Net.create ~n:3 () in
  Alcotest.check_raises "factor below one"
    (Invalid_argument "Workload.inject_gray: nic_factor < 1") (fun () ->
      Workload.inject_gray c ~nic_nodes:[ 0 ] ~nic_factor:0.5 ~from_:0
        ~until_:(Time.us 1.) ());
  Alcotest.check_raises "empty window"
    (Invalid_argument "Workload.inject_gray: empty or negative window")
    (fun () ->
      Workload.inject_gray c ~nic_nodes:[ 0 ] ~from_:(Time.us 2.)
        ~until_:(Time.us 2.) ());
  Alcotest.check_raises "unknown node"
    (Invalid_argument "Workload.inject_gray: unknown node 7") (fun () ->
      Workload.inject_gray c ~nic_nodes:[ 7 ] ~from_:0 ~until_:(Time.us 1.) ())

let fabric_qprops =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fabric_all_pairs_delivery;
      prop_fabric_flood_bounded_by_ttl;
      prop_fabric_ecmp_spreads_load;
    ]

let suite =
  [
    ("counters: crashed and rebooted boots", `Quick, test_counters_span_boots);
    ("cluster shape", `Quick, test_cluster_shape);
    ("bonded switches", `Quick, test_bonded_cluster_has_parallel_switches);
    ("determinism", `Quick, test_determinism_same_run_same_numbers);
    ("measure rejects non-positive counts", `Quick,
     test_measure_rejects_non_positive_counts);
    ("stream conservation", `Quick, test_stream_conserves_messages);
    ("latency vs size", `Quick, test_pingpong_latency_increases_with_size);
    ("all-to-all", `Quick, test_all_to_all_traffic);
    ("stacks coexist", `Quick, test_both_stacks_share_one_node);
    ("run_for bound", `Quick, test_run_for_bounds_time);
    ("workload uniform", `Quick, test_workload_uniform_random_conserves);
    ("workload under loss", `Quick, test_workload_uniform_random_under_loss);
    ("workload hotspot", `Quick, test_workload_hotspot_incast);
    ("workload ring", `Quick, test_workload_ring_rounds);
    ("workload determinism", `Quick, test_workload_determinism);
    ("incast + finite buffers", `Quick, test_incast_with_finite_switch_buffers);
    ("open-loop completes", `Quick, test_workload_open_loop_completes);
    ("open-loop deterministic", `Quick, test_workload_open_loop_deterministic);
    ("open-loop pareto/deadline", `Quick,
      test_workload_open_loop_pareto_and_deadline);
    ("open-loop one-way", `Quick, test_workload_open_loop_oneway);
    ("arrival validation", `Quick, test_workload_arrival_validation);
    ("quantile by hand", `Quick, test_workload_quantile_hand_computed);
    ("partition-aggregate", `Quick, test_workload_partition_aggregate);
    ("elephants and mice", `Quick, test_workload_elephants_mice);
    ("gray failures degrade tail", `Quick,
      test_gray_failures_degrade_tail_with_evidence);
    ("gray injection validation", `Quick, test_gray_validation);
    ("node crash & recovery", `Quick, test_node_crash_recovery_reestablishes);
    ("crash/reboot guards", `Quick, test_node_crash_reboot_guards);
    ("topology star compat", `Quick, test_topology_star_compat);
    ("topology validation", `Quick, test_topology_validation);
    ("topology linear routes", `Quick, test_topology_linear_routes);
    ("topology leaf/spine shape", `Quick, test_topology_leaf_spine_shape);
    ("topology fat tree shape", `Quick, test_topology_fat_tree_shape);
    ("topology reroute excluding", `Quick, test_topology_reroute_excluding);
    ("net fail/restore switch", `Quick, test_net_fail_switch_reroutes);
    ("fabric crash/reboot rewire", `Quick, test_fabric_crash_reboot_rewires);
    ("workload hotspot senders", `Quick, test_workload_hotspot_explicit_senders);
  ]
  @ fabric_qprops
