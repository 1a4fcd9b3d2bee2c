(* The benchmark's three workloads, driven only through the library's
   public entry points.  One call of [run_pass] is one pass: every
   simulation of the workload once, timed on the host clock, with the
   simulated outputs collected for the correctness oracle and the layer
   counters read from public accessors after each simulation. *)

open Engine
open Cluster

let now = Pb_trace.now

(* Per-layer counters summed over a pass (maxima where named peak). *)
type counters = {
  mutable events : int;
  mutable nic_frames_tx : int;
  mutable irqs : int;
  mutable poll_passes : int;
  mutable sw_forwarded : int;
  mutable sw_drops : int;
  mutable sw_pause : int;
  mutable sw_ecn : int;
  mutable sw_peak_buffer : int;
  mutable clic_packets : int;
  mutable clic_retx : int;
  mutable clic_retx_bytes : int;
  mutable clic_delivered : int;
  mutable tcp_segments : int;
  mutable mpi_sends : int;
  mutable stranded : int;
  mutable mice_completed : int;
}

type pass = {
  mutable wall_s : float;  (** setup + run host time of every operation *)
  mutable setup_s : float;
  mutable run_s : float;  (** host time inside simulation runs *)
  mutable minor_words : float;  (** allocated inside simulation runs *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
  mutable outputs : (string * string) list;  (** newest first *)
  mutable phases : (string * float) list;  (** probe-on tooling timings *)
  mutable recorded_events : int;
  mutable check_runs : int;
  mutable record_heap_words : int;
  mutable paper_err_pct : float;
  k : counters;
  acc : Pb_trace.acc;
}

let fresh_pass () =
  {
    wall_s = 0.;
    setup_s = 0.;
    run_s = 0.;
    minor_words = 0.;
    attempted = 0;
    failed = 0;
    problems = [];
    outputs = [];
    phases = [];
    recorded_events = 0;
    check_runs = 0;
    record_heap_words = 0;
    paper_err_pct = 0.;
    k =
      {
        events = 0;
        nic_frames_tx = 0;
        irqs = 0;
        poll_passes = 0;
        sw_forwarded = 0;
        sw_drops = 0;
        sw_pause = 0;
        sw_ecn = 0;
        sw_peak_buffer = 0;
        clic_packets = 0;
        clic_retx = 0;
        clic_retx_bytes = 0;
        clic_delivered = 0;
        tcp_segments = 0;
        mpi_sends = 0;
        stranded = 0;
        mice_completed = 0;
      };
    acc = Pb_trace.fresh_acc ();
  }

let output p key value = p.outputs <- (key, value) :: p.outputs
let fl x = Printf.sprintf "%.17g" x

let read_counters p (c : Net.t) =
  let k = p.k in
  k.events <- k.events + Sim.events_executed c.Net.sim;
  let n = Net.size c in
  Array.iter
    (fun (node : Node.t) ->
      List.iter
        (fun nic -> k.nic_frames_tx <- k.nic_frames_tx + Hw.Nic.tx_packets nic)
        node.Node.nics;
      k.irqs <- k.irqs + Os_model.Interrupt.irqs_delivered node.Node.intr;
      k.poll_passes <-
        k.poll_passes
        + Os_model.Driver.poll_passes node.Node.env.Proto.Hostenv.driver;
      k.tcp_segments <- k.tcp_segments + Proto.Tcp.segments_sent node.Node.tcp;
      let m = Clic.Api.kernel node.Node.clic in
      k.clic_packets <- k.clic_packets + Clic.Clic_module.packets_sent m;
      k.clic_retx <- k.clic_retx + Clic.Clic_module.retransmissions m;
      k.clic_retx_bytes <- k.clic_retx_bytes + Clic.Clic_module.retx_bytes m;
      for peer = 0 to n - 1 do
        match Clic.Clic_module.channel_to m ~peer with
        | Some ch -> k.clic_delivered <- k.clic_delivered + Clic.Channel.delivered ch
        | None -> ()
      done)
    c.Net.nodes;
  List.iter
    (fun sw ->
      k.sw_forwarded <- k.sw_forwarded + Hw.Switch.frames_forwarded sw;
      k.sw_drops <-
        k.sw_drops + Hw.Switch.ingress_drops sw + Hw.Switch.egress_drops sw;
      k.sw_pause <- k.sw_pause + Hw.Switch.pause_frames_tx sw;
      k.sw_ecn <- k.sw_ecn + Hw.Switch.ecn_marked sw;
      k.sw_peak_buffer <-
        max k.sw_peak_buffer (Hw.Switch.peak_buffer_occupied sw))
    c.Net.switches

let fail p id problems =
  p.failed <- p.failed + 1;
  p.problems <-
    List.rev_append (List.map (fun m -> id ^ ": " ^ m) problems) p.problems

(* One operation that is a single simulation: [setup] builds the cluster
   and inputs (timed as set-up), [run] drives the simulation to its
   result, [verify] reads counters and returns structural problems.
   [layer] takes the host time of events that emit no layer-tagged probe
   in the traced run. *)
let sim_op p ~id ~layer ~setup ~run ~verify =
  Pb_trace.with_span "sim" ~attrs:id (fun () ->
      p.attempted <- p.attempted + 1;
      match
        let t0 = now () in
        let c, x = Pb_trace.with_span "setup" setup in
        let t1 = now () in
        let mw0 = Gc.minor_words () in
        let y =
          Pb_trace.with_span "run" (fun () ->
              Pb_trace.layered ~acc:p.acc ~sim:c.Net.sim ~layer (fun () ->
                  run c x))
        in
        let t2 = now () in
        p.minor_words <- p.minor_words +. (Gc.minor_words () -. mw0);
        p.setup_s <- p.setup_s +. (t1 -. t0);
        p.run_s <- p.run_s +. (t2 -. t1);
        p.wall_s <- p.wall_s +. (t2 -. t0);
        Pb_trace.with_span "verify" (fun () ->
            read_counters p c;
            verify c x y)
      with
      | [] -> ()
      | problems -> fail p id problems
      | exception e -> fail p id [ Printexc.to_string e ])

let check cond msg = if cond then [] else [ msg ]

(* ------------------------------------------------------------------ *)
(* p2p_sweep: Figures 4-6 and Table 1 *)

let stacks = [ "clic"; "tcp"; "mpi-clic" ]
let mtus = [ 1500; 9000 ]

(* NetPIPE measures each power-of-two size and perturbations of it; the
   seed picks one perturbation in [-3, 3] per base size.  The 0-byte and
   4 MiB anchors are Table 1's points and stay fixed. *)
let bases = [ 64; 1024; 16384; 262144 ]
let big = 4194304
let perturbations = [ -3; -2; -1; 0; 1; 2; 3 ]

let sweep_sizes ~seed =
  let rng = Rng.create ~seed in
  (0 :: List.map (fun b -> b + Rng.int rng 7 - 3) bases) @ [ big ]

(* Every size any seed can draw: the p2p oracle covers all of them. *)
let all_sweep_sizes =
  (0 :: List.concat_map (fun b -> List.map (( + ) b) perturbations) bases)
  @ [ big ]

(* Table 1's measurement parameters for the anchors, the figures'
   [reps_for] elsewhere. *)
let pingpong_shape size =
  if size = 0 then (20, 4)
  else ((if size >= 262144 then 3 else if size >= 16384 then 5 else 8), 1)

let stream_messages size =
  if size >= big then 2 else max 4 (min 64 (1048576 / size))

let make_pair p stack (c : Net.t) =
  match stack with
  | "clic" -> Measure.clic_pair c ~a:0 ~b:1 ()
  | "tcp" -> Measure.tcp_pair c ~a:0 ~b:1 ()
  | _ ->
      let pair = Report.Pairs.mpi_clic c ~a:0 ~b:1 in
      let counted f n =
        p.k.mpi_sends <- p.k.mpi_sends + 1;
        f n
      in
      {
        pair with
        Measure.a_send = counted pair.Measure.a_send;
        b_send = counted pair.Measure.b_send;
      }

let stack_layer = function
  | "clic" -> Pb_trace.Engine_l
  | "tcp" -> Pb_trace.Proto_l
  | _ -> Pb_trace.Mpi_l

let line_rate_mbps = 1000.

let p2p_point p ~stack ~mtu ~size =
  let config = { Node.default_config with mtu } in
  let point = Printf.sprintf "%s/%d/%d" stack mtu size in
  let layer = stack_layer stack in
  let setup () =
    let c = Net.create ~config ~n:2 () in
    (c, make_pair p stack c)
  in
  let clean (c : Net.t) =
    let retx i =
      Clic.Clic_module.retransmissions (Clic.Api.kernel (Net.node c i).Node.clic)
    in
    check (retx 0 + retx 1 = 0) "retransmissions on a clean point-to-point link"
  in
  let reps, warmup = pingpong_shape size in
  let result = ref None in
  sim_op p ~id:("pp:" ^ point) ~layer ~setup
    ~run:(fun c pair -> Measure.pingpong c pair ~size ~reps ~warmup ())
    ~verify:(fun c _ r ->
      let ow = r.Measure.one_way and bw = r.Measure.pp_bandwidth_mbps in
      result := Some r;
      output p ("pp:" ^ point) (Printf.sprintf "%d %s" ow (fl bw));
      check (ow > 0) "non-positive one-way time"
      @ check (bw <= line_rate_mbps) "ping-pong faster than the wire"
      @ clean c);
  if size > 0 then begin
    let messages = stream_messages size in
    sim_op p ~id:("st:" ^ point) ~layer ~setup
      ~run:(fun c pair -> Measure.stream c pair ~a:0 ~b:1 ~size ~messages)
      ~verify:(fun c _ r ->
        let bw = r.Measure.st_bandwidth_mbps in
        output p ("st:" ^ point)
          (Printf.sprintf "%d %s" r.Measure.elapsed (fl bw));
        check (bw > 0. && bw <= line_rate_mbps) "stream bandwidth out of range"
        @ clean c)
  end;
  !result

(* Largest relative error (%) of the 0-byte latency and the two CLIC
   asymptotes against the paper's published scalars. *)
let paper_err ~lat ~a9000 ~a1500 =
  let rel sim paper = Float.abs (sim -. paper) /. paper *. 100. in
  List.fold_left Float.max 0.
    [
      rel (Time.to_us lat.Measure.one_way) Report.Paper.zero_byte_latency_us;
      rel a9000.Measure.pp_bandwidth_mbps
        Report.Paper.clic_asymptote_mtu9000_mbps;
      rel a1500.Measure.pp_bandwidth_mbps
        Report.Paper.clic_asymptote_mtu1500_mbps;
    ]

let p2p_sweep ?(sizes = []) p ~seed =
  let sizes = if sizes = [] then sweep_sizes ~seed else sizes in
  let anchors = Hashtbl.create 4 in
  List.iter
    (fun stack ->
      List.iter
        (fun mtu ->
          List.iter
            (fun size ->
              match p2p_point p ~stack ~mtu ~size with
              | Some r when stack = "clic" && (size = 0 || size = big) ->
                  Hashtbl.replace anchors (mtu, size) r
              | _ -> ())
            sizes)
        mtus)
    stacks;
  match
    ( Hashtbl.find_opt anchors (1500, 0),
      Hashtbl.find_opt anchors (9000, big),
      Hashtbl.find_opt anchors (1500, big) )
  with
  | Some lat, Some a9000, Some a1500 ->
      p.paper_err_pct <- paper_err ~lat ~a9000 ~a1500
  | _ -> fail p "p2p_sweep" [ "Table 1 anchor points missing" ]

(* ------------------------------------------------------------------ *)
(* fabric_mix: 32-node leaf-spine, elephants beside open-loop mice *)

let fabric_racks = 4
let fabric_per_rack = 8
let fabric_spines = 2
let elephant_pairs = 16
let elephant_messages = 24
let elephant_size = 65536
let mice_per_node = 100
let mice_gap_us = 100.
let mice_req = 512
let mice_resp = 2048

let fabric_config ~seed =
  let clic_params =
    { Clic.Params.congestion with retx_scheme = `Sack; dctcp = true }
  in
  (* Light bursty loss on every link (stationary rate ~0.04%), seeded per
     run so the retransmission path runs on reproducible weather. *)
  let weather = Rng.create ~seed:(seed lxor 0x5eed) in
  {
    Node.default_config with
    clic_params;
    pci_width_bytes = 8;
    pci_efficiency = 0.9;
    switch_buffer =
      Some
        {
          Hw.Switch.default_buffer with
          pause = true;
          ecn_threshold = clic_params.Clic.Params.ecn_threshold;
        };
    nic_pause = Some Hw.Nic.pause_802_3x;
    link_fault =
      Some
        (fun () ->
          Hw.Fault.gilbert_elliott ~rng:(Rng.split weather)
            ~p_good_to_bad:0.0002 ~p_bad_to_good:0.25 ~loss_bad:0.5 ());
  }

let fabric_mix p ~seed =
  let setup () =
    let topo =
      Topology.leaf_spine ~racks:fabric_racks ~per_rack:fabric_per_rack
        ~spines:fabric_spines ()
    in
    (Net.create_topo ~config:(fabric_config ~seed) ~topo (), ())
  in
  sim_op p ~id:"fabric" ~layer:Pb_trace.Engine_l ~setup
    ~run:(fun c () ->
      Workload.elephants_mice c ~seed ~elephant_pairs ~elephant_messages
        ~elephant_size
        ~arrival:(Workload.Poisson { mean_gap = Time.us mice_gap_us })
        ~requests_per_node:mice_per_node ~req_size:mice_req
        ~resp_size:mice_resp ())
    ~verify:(fun c () m ->
      let slo = m.Workload.mix_slo and e = m.Workload.mix_elephants in
      let requests = Net.size c * mice_per_node in
      let stranded =
        slo.Workload.slo_stranded + m.Workload.mix_mice.Workload.stranded
        + e.Workload.stranded
      in
      p.k.stranded <- p.k.stranded + stranded;
      p.k.mice_completed <- p.k.mice_completed + slo.Workload.slo_completed;
      output p "mice"
        (Printf.sprintf "%d %s %s %s" slo.Workload.slo_completed
           (fl slo.Workload.slo_p50_us) (fl slo.Workload.slo_p99_us)
           (fl slo.Workload.slo_p999_us));
      output p "elephants" (string_of_int e.Workload.bytes);
      check (stranded = 0) (Printf.sprintf "%d stranded" stranded)
      @ check
          (slo.Workload.slo_completed = requests)
          (Printf.sprintf "%d/%d mice completed" slo.Workload.slo_completed
             requests)
      @ check
          (e.Workload.bytes = elephant_pairs * elephant_messages * elephant_size)
          (Printf.sprintf "elephants delivered %d bytes" e.Workload.bytes))

(* ------------------------------------------------------------------ *)
(* observed: a pinnable fabric run through the probe-on tooling *)

let observed_messages = 24

let observed_net () =
  Net.create_topo
    ~topo:(Topology.leaf_spine ~racks:2 ~per_rack:4 ~spines:2 ())
    ()

let observed_traffic c ~seed =
  Workload.uniform_random c ~seed ~messages_per_node:observed_messages ()

let observed_scenario p ~seed =
  let run fmt =
    let t0 = now () in
    let c = observed_net () in
    p.setup_s <- p.setup_s +. (now () -. t0);
    let s = observed_traffic c ~seed in
    Format.fprintf fmt "sent %d delivered %d bytes %d stranded %d elapsed %d@."
      s.Workload.sent s.Workload.delivered s.Workload.bytes s.Workload.stranded
      s.Workload.elapsed
  in
  {
    Check.Scenario.name = "perfbench-observed";
    descr = "8-node leaf-spine, closed-loop uniform_random";
    truncated = false;
    run;
  }

(* A timed phase of the probe-on tooling, counted in [wall_s]. *)
let phase p name f =
  let t0 = now () in
  let x = Pb_trace.with_span name f in
  let d = now () -. t0 in
  p.wall_s <- p.wall_s +. d;
  p.phases <- (name, d) :: p.phases;
  x

(* One operation made of timed phases; [body] returns structural
   problems and is responsible for its own [verify] span. *)
let tool_op p ~id body =
  Pb_trace.with_span "sim" ~attrs:id (fun () ->
      p.attempted <- p.attempted + 1;
      match body () with
      | [] -> ()
      | problems -> fail p id problems
      | exception e -> fail p id [ Printexc.to_string e ])

let observed p ~seed =
  let sc = observed_scenario p ~seed in
  sim_op p ~id:"plain" ~layer:Pb_trace.Engine_l
    ~setup:(fun () -> (observed_net (), ()))
    ~run:(fun c () -> observed_traffic c ~seed)
    ~verify:(fun c () s ->
      p.k.stranded <- p.k.stranded + s.Workload.stranded;
      output p "plain"
        (Printf.sprintf "%d %d %d" s.Workload.delivered s.Workload.bytes
           s.Workload.elapsed);
      check (s.Workload.stranded = 0) "stranded messages"
      @ check
          (s.Workload.delivered = Net.size c * observed_messages)
          "lost messages");
  tool_op p ~id:"check" (fun () ->
      let r = phase p "check" (fun () -> Check.run_scenario ~seeds:1 sc) in
      Pb_trace.with_span "verify" (fun () ->
          p.check_runs <- p.check_runs + r.Check.runs;
          output p "check"
            (Printf.sprintf "%b %s %d" (Check.ok r) r.Check.baseline_hash
               r.Check.runs);
          check (Check.ok r)
            (Printf.sprintf "check report not clean: %d violations"
               (List.length r.Check.violations))));
  tool_op p ~id:"record" (fun () ->
      let recording, text = phase p "record" (fun () -> Obs.Recorder.record sc) in
      p.record_heap_words <- (Gc.quick_stat ()).Gc.top_heap_words;
      let metrics = phase p "metrics" (fun () -> Obs.Metrics.build recording) in
      let timeline = phase p "timeline" (fun () -> Obs.Timeline.export recording) in
      Pb_trace.with_span "verify" (fun () ->
          let n = Obs.Recorder.count recording in
          p.recorded_events <- p.recorded_events + n;
          output p "record"
            (Printf.sprintf "%d %s %s %s" n
               (Digest.to_hex (Digest.string text))
               (Digest.to_hex (Digest.string (Obs.Metrics.to_csv metrics)))
               (Digest.to_hex (Digest.string timeline)));
          check (n > 0) "empty recording"))

let names = [ "p2p_sweep"; "fabric_mix"; "observed" ]

let run_pass name p ~seed =
  Pb_trace.with_span "workload" ~attrs:name (fun () ->
      match name with
      | "p2p_sweep" -> p2p_sweep p ~seed
      | "fabric_mix" -> fabric_mix p ~seed
      | "observed" -> observed p ~seed
      | _ -> invalid_arg ("unknown workload " ^ name))
