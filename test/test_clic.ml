(* Tests for the CLIC protocol: the reliability channel, CLIC_MODULE's
   send/receive paths, data-path configurations, staging, remote writes,
   broadcast, same-node messages and channel bonding. *)

open Engine
open Cluster
open Clic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let two_nodes ?config () =
  let c = Net.create ?config ~n:2 () in
  (c, Net.node c 0, Net.node c 1)

(* Registry reads: a standalone test channel counts into the record its
   rig registered; node [i]'s CLIC kernel counts under "node<i>.clic". *)
let chan_count sim name = Counters.total sim ("channel." ^ name)

let clic_count c ~node name =
  Counters.total c.Net.sim ~scope:(Printf.sprintf "node%d.clic" node) name

let config_with ?(mtu = 1500) ?clic ?fault ?(nics = 1) () =
  let base = { Node.default_config with mtu; nics } in
  let base =
    match clic with None -> base | Some p -> { base with clic_params = p }
  in
  match fault with
  | None -> base
  | Some f -> { base with link_fault = Some f }

(* ------------------------------------------------------------------ *)
(* Channel (unit level) *)

let channel_rig ?(params = Params.default) () =
  let sim = Sim.create () in
  let sent = ref [] and delivered = ref [] and acks = ref [] in
  let chan =
    Channel.create sim ~self:0 ~peer:1 ~params
      ~counters:(Channel.counters sim ~scope:"chan")
      ~transmit:(fun pkt ~retransmission ->
        sent := (pkt, retransmission) :: !sent)
      ~deliver:(fun pkt -> delivered := pkt :: !delivered)
      ~send_ack:(fun ~cum_seq ~sacks:_ ~ce_echo:_ -> acks := cum_seq :: !acks)
      ()
  in
  (sim, chan, sent, delivered, acks)

let mk_data ?(bytes = 100) seq =
  { Wire.src = 1; epoch = 0; chan_seq = Some seq; data_bytes = bytes;
    ce = false;
    kind =
      Wire.Data
        { port = 1; sync = false;
          frag = { Wire.msg_id = seq; frag_index = 0; frag_count = 1;
                   msg_bytes = bytes } } }

let test_channel_in_order_delivery () =
  let sim, chan, _, delivered, _ = channel_rig () in
  Process.spawn sim (fun () ->
      Channel.rx chan (mk_data 0);
      Channel.rx chan (mk_data 1);
      Channel.rx chan (mk_data 2));
  Sim.run sim;
  check_int "three delivered" 3 (List.length !delivered);
  check_int "channel count" 3 (Channel.delivered chan)

let test_channel_reorders_ooo () =
  let sim, chan, _, delivered, _ = channel_rig () in
  Process.spawn sim (fun () ->
      Channel.rx chan (mk_data 2);
      Channel.rx chan (mk_data 0);
      check_int "only seq 0 so far" 1 (List.length !delivered);
      Channel.rx chan (mk_data 1));
  Sim.run sim;
  let seqs =
    List.rev_map (fun p -> Option.get p.Wire.chan_seq) !delivered
  in
  Alcotest.(check (list int)) "ordered" [ 0; 1; 2 ] seqs

let test_channel_drops_duplicates () =
  let sim, chan, _, delivered, _ = channel_rig () in
  Process.spawn sim (fun () ->
      Channel.rx chan (mk_data 0);
      Channel.rx chan (mk_data 0);
      Channel.rx chan (mk_data 1);
      Channel.rx chan (mk_data 1));
  Sim.run sim;
  check_int "no duplicate delivery" 2 (List.length !delivered);
  check_int "duplicates counted" 2 (chan_count sim "duplicates_dropped")

let test_channel_retransmits_on_timeout () =
  let sim, chan, sent, _, _ = channel_rig () in
  Process.spawn sim (fun () ->
      let pkt =
        Channel.next_seq chan ~data_bytes:10
          (Wire.Data
             { port = 1; sync = false;
               frag = { Wire.msg_id = 0; frag_index = 0; frag_count = 1;
                        msg_bytes = 10 } })
      in
      ignore pkt);
  Sim.run sim;
  (* No ack ever arrives: the timer must have fired at least once. *)
  check_bool "retransmissions" true (chan_count sim "retransmissions" > 0);
  check_bool "retransmission flagged" true
    (List.exists (fun (_, retx) -> retx) !sent)

let test_channel_ack_frees_window () =
  let params = { Params.default with tx_window = 2 } in
  let sim, chan, _, _, _ = channel_rig ~params () in
  let progressed = ref 0 in
  Process.spawn sim (fun () ->
      for i = 0 to 3 do
        ignore
          (Channel.next_seq chan ~data_bytes:1
             (Wire.Msg_ack { msg_id = i }));
        incr progressed
      done);
  Process.spawn sim ~delay:(Time.us 10.) (fun () ->
      check_int "window blocked at 2" 2 !progressed;
      Channel.rx_ack chan 2);
  Sim.run sim;
  check_int "all sent after ack" 4 !progressed;
  check_int "outstanding" 2 (Channel.outstanding chan)

let test_channel_rejects_unreliable_kind () =
  let _, chan, _, _, _ = channel_rig () in
  Alcotest.check_raises "unreliable"
    (Invalid_argument "Channel.next_seq: unreliable kind") (fun () ->
      ignore
        (Channel.next_seq chan ~data_bytes:0
           (Wire.Chan_ack
              { cum_seq = 0; window = 8; ce_echo = false; sacks = [] })))

let test_channel_rtt_adaptation () =
  let params = { Params.default with rto_min = Time.us 200. } in
  let sim, chan, _, _, _ = channel_rig ~params () in
  Process.spawn sim (fun () ->
      for i = 0 to 9 do
        ignore
          (Channel.next_seq chan ~data_bytes:10 (Wire.Msg_ack { msg_id = i }));
        (* the ack comes back exactly 50 us after the send *)
        Process.delay (Time.us 50.);
        Channel.rx_ack chan (i + 1)
      done);
  Sim.run sim;
  check_int "every ack sampled" 10 (chan_count sim "rtt_samples");
  (match Channel.srtt chan with
  | Some srtt -> check_int "srtt converged to the path RTT" (Time.us 50.) srtt
  | None -> Alcotest.fail "no srtt after samples");
  (* RTO decayed from the 20 ms initial value down to the floor: with zero
     variance, srtt + 4*rttvar sinks below rto_min *)
  check_int "rto pinned at the floor" (Time.us 200.) (Channel.rto chan);
  check_bool "rto adapted below the initial timeout" true
    (Channel.rto chan < Params.default.Params.retransmit_timeout)

let test_channel_rto_backoff_growth () =
  let params =
    { Params.default with retransmit_timeout = Time.ms 1.;
      rto_min = Time.us 500.; rto_max = Time.ms 8.; max_retries = 5 }
  in
  let sim = Sim.create () in
  let retx_at = ref [] in
  let chan =
    Channel.create sim ~self:0 ~peer:1 ~params
      ~counters:(Channel.counters sim ~scope:"chan")
      ~transmit:(fun _ ~retransmission ->
        if retransmission then retx_at := Sim.now sim :: !retx_at)
      ~deliver:(fun _ -> ())
      ~send_ack:(fun ~cum_seq ~sacks:_ ~ce_echo:_ -> ignore cum_seq)
      ()
  in
  Process.spawn sim (fun () ->
      ignore
        (Channel.next_seq chan ~data_bytes:10 (Wire.Msg_ack { msg_id = 0 })));
  Sim.run sim;
  (* no ack ever arrives: resends at +1, +3, +7, +15, +23 ms (doubling
     gaps capped at rto_max), then the retry cap declares the peer dead *)
  check_bool "declared dead" true (Channel.is_dead chan);
  check_int "one resend per timeout" 5 (chan_count sim "timeouts");
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b - a) :: gaps rest
    | _ -> []
  in
  Alcotest.(check (list int))
    "gaps double then cap"
    [ Time.ms 2.; Time.ms 4.; Time.ms 8.; Time.ms 8. ]
    (gaps (List.rev !retx_at));
  check_int "largest armed rto hit the cap" (Time.ms 8.)
    (Time.us (Stats.Summary.max (Channel.rto_stats chan)))

let test_channel_fast_retransmit_on_dup_acks () =
  let sim, chan, sent, _, _ = channel_rig () in
  Process.spawn sim (fun () ->
      for i = 0 to 3 do
        ignore
          (Channel.next_seq chan ~data_bytes:10 (Wire.Msg_ack { msg_id = i }))
      done;
      Channel.rx_ack chan 1;
      (* duplicate cumulative acks naming seq 1 as the hole *)
      Channel.rx_ack chan 1;
      Channel.rx_ack chan 1;
      check_int "below the threshold" 0 (chan_count sim "fast_retransmits");
      Channel.rx_ack chan 1;
      check_int "third duplicate fires" 1 (chan_count sim "fast_retransmits");
      (* more duplicates must not resend the same hole again *)
      Channel.rx_ack chan 1;
      Channel.rx_ack chan 1;
      Channel.rx_ack chan 1;
      check_int "once per hole" 1 (chan_count sim "fast_retransmits");
      (* let the channel finish cleanly *)
      Channel.rx_ack chan 4);
  Sim.run sim;
  let hole_resends =
    List.filter (fun (p, retx) -> retx && p.Wire.chan_seq = Some 1) !sent
  in
  check_int "exactly the hole was resent" 1 (List.length hole_resends);
  check_bool "no timer expiry involved" true (chan_count sim "timeouts" = 0)

let test_channel_dead_releases_blocked_senders () =
  let params =
    { Params.default with tx_window = 2; retransmit_timeout = Time.ms 1.;
      rto_max = Time.ms 2.; max_retries = 2 }
  in
  let sim, chan, _, _, _ = channel_rig ~params () in
  let sent_ok = ref 0 and got_dead = ref 0 in
  for _ = 1 to 2 do
    Process.spawn sim (fun () ->
        try
          for i = 0 to 2 do
            ignore
              (Channel.next_seq chan ~data_bytes:10
                 (Wire.Msg_ack { msg_id = i }));
            incr sent_ok
          done
        with Channel.Dead peer ->
          check_int "exception names the peer" 1 peer;
          incr got_dead)
  done;
  (* Sim.run must terminate: both blocked senders are woken at teardown
     instead of waiting on the window forever. *)
  Sim.run sim;
  check_bool "declared dead" true (Channel.is_dead chan);
  check_int "window slots granted before death" 2 !sent_ok;
  check_int "both blocked senders released" 2 !got_dead;
  (* later sends fail immediately rather than blocking *)
  Process.spawn sim (fun () ->
      match Channel.next_seq chan ~data_bytes:1 (Wire.Msg_ack { msg_id = 9 })
      with
      | _ -> Alcotest.fail "send on a dead channel succeeded"
      | exception Channel.Dead _ -> incr got_dead);
  Sim.run sim;
  check_int "immediate error after death" 3 !got_dead

let test_channel_ooo_duplicate_counted () =
  let sim, chan, _, delivered, acks = channel_rig () in
  Process.spawn sim (fun () ->
      Channel.rx chan (mk_data 2);
      Channel.rx chan (mk_data 2);
      (* a duplicate of a packet still parked in the hold queue *)
      Channel.rx chan (mk_data 0);
      Channel.rx chan (mk_data 1));
  Sim.run sim;
  check_int "each delivered once" 3 (List.length !delivered);
  check_int "held duplicate counted" 1 (chan_count sim "duplicates_dropped");
  (* the out-of-order arrival provoked an immediate ack naming the hole *)
  check_bool "hole announced" true (List.mem 0 !acks)

let test_channel_rto_resends_ascending () =
  (* Regression for the retransmit ordering contract: a timeout under
     go-back-N must resend the outstanding window oldest-first, so the
     receiver's cumulative sequence can advance on every arrival instead
     of parking everything in the hold queue. *)
  let params =
    { Params.default with retransmit_timeout = Time.ms 1.;
      rto_min = Time.us 500.; rto_max = Time.ms 2.; max_retries = 2 }
  in
  let sim, chan, sent, _, _ = channel_rig ~params () in
  Process.spawn sim (fun () ->
      for i = 0 to 3 do
        ignore
          (Channel.next_seq chan ~data_bytes:10 (Wire.Msg_ack { msg_id = i }))
      done);
  Sim.run sim;
  check_bool "declared dead after the retry cap" true (Channel.is_dead chan);
  let retx_seqs =
    List.rev !sent
    |> List.filter_map (fun (p, retx) -> if retx then p.Wire.chan_seq else None)
  in
  Alcotest.(check (list int))
    "each timeout resent the window in ascending order"
    [ 0; 1; 2; 3; 0; 1; 2; 3 ] retx_seqs

let test_channel_sack_rto_skips_held_segments () =
  (* SACK mode: the peer advertises [2, 4) as held, so the timeout resends
     only the holes 0 and 1 (ascending), credits the skipped segments to
     [retx_bytes_saved], and never re-sends a still-SACKed segment. *)
  let params =
    { Params.default with retx_scheme = `Sack;
      retransmit_timeout = Time.ms 1.; rto_min = Time.us 500.;
      rto_max = Time.ms 4.; max_retries = 4 }
  in
  let sim, chan, sent, _, _ = channel_rig ~params () in
  Process.spawn sim (fun () ->
      for i = 0 to 3 do
        ignore
          (Channel.next_seq chan ~data_bytes:10 (Wire.Msg_ack { msg_id = i }))
      done;
      Channel.rx_ack chan ~sacks:[ (2, 4) ] 0;
      check_int "both held segments marked" 2
        (chan_count sim "sacked_segments");
      (* one RTO fires at +1ms; the ack then retires everything *)
      Process.delay (Time.ms 1.5);
      Channel.rx_ack chan 4);
  Sim.run sim;
  check_bool "completed without teardown" true (not (Channel.is_dead chan));
  check_int "one timeout" 1 (chan_count sim "timeouts");
  let retx_seqs =
    List.rev !sent
    |> List.filter_map (fun (p, retx) -> if retx then p.Wire.chan_seq else None)
  in
  Alcotest.(check (list int)) "only the holes, oldest first" [ 0; 1 ]
    retx_seqs;
  check_bool "skipped bytes credited"
    true (chan_count sim "retx_bytes_saved" > 0);
  check_bool "resent bytes billed" true (chan_count sim "retx_bytes" > 0)

let test_channel_receiver_echoes_ce () =
  (* The receiver notes a CE-marked arrival and raises the echo bit on the
     next ack it emits — and only that one (DCTCP needs the echo stream to
     mirror the mark stream, not to latch). *)
  let sim = Sim.create () in
  let echoes = ref [] in
  let chan =
    Channel.create sim ~self:0 ~peer:1 ~params:Params.default
      ~counters:(Channel.counters sim ~scope:"chan")
      ~transmit:(fun _ ~retransmission:_ -> ())
      ~deliver:(fun _ -> ())
      ~send_ack:(fun ~cum_seq ~sacks:_ ~ce_echo ->
        echoes := (cum_seq, ce_echo) :: !echoes)
      ()
  in
  Process.spawn sim (fun () ->
      Channel.rx chan { (mk_data 0) with Wire.ce = true };
      Channel.rx chan (mk_data 1);
      (* ack_every = 2: the echo-carrying ack covers both *)
      Channel.rx chan (mk_data 2);
      Channel.rx chan (mk_data 3));
  Sim.run sim;
  check_int "one CE mark seen" 1 (chan_count sim "ce_marks_rx");
  Alcotest.(check (list (pair int bool)))
    "echo raised once, then clear"
    [ (2, true); (4, false) ]
    (List.rev !echoes)

let test_channel_dctcp_alpha_and_window_cut () =
  let params = { Params.default with dctcp = true; tx_window = 8 } in
  let sim, chan, _, _, _ = channel_rig ~params () in
  let alpha_after_mark = ref 0. in
  Process.spawn sim (fun () ->
      for i = 0 to 3 do
        ignore
          (Channel.next_seq chan ~data_bytes:10 (Wire.Msg_ack { msg_id = i }))
      done;
      check_int "cwnd starts at the transmit window" 8 (Channel.cwnd chan);
      (* a marked window: alpha rises from 0, cwnd is cut *)
      Channel.rx_ack chan ~ce_echo:true 4;
      alpha_after_mark := Channel.dctcp_alpha chan;
      check_bool "alpha learned the mark" true (!alpha_after_mark > 0.);
      check_bool "window cut below tx_window" true (Channel.cwnd chan < 8);
      check_int "echo counted" 1 (chan_count sim "ce_echoes");
      (* a clean window: alpha decays, additive increase resumes *)
      for i = 4 to 5 do
        ignore
          (Channel.next_seq chan ~data_bytes:10 (Wire.Msg_ack { msg_id = i }))
      done;
      Channel.rx_ack chan 6);
  Sim.run sim;
  check_bool "alpha decays on an unmarked window" true
    (Channel.dctcp_alpha chan < !alpha_after_mark)

(* ------------------------------------------------------------------ *)
(* CLIC end to end *)

let test_clic_roundtrip_message () =
  let c, na, nb = two_nodes () in
  let got = ref None in
  Node.spawn nb (fun () ->
      let msg = Api.recv nb.Node.clic ~port:5 in
      got := Some (msg.Clic_module.msg_src, msg.Clic_module.msg_bytes));
  Node.spawn na (fun () -> Api.send na.Node.clic ~dst:1 ~port:5 1234);
  Net.run c;
  Alcotest.(check (option (pair int int))) "message" (Some (0, 1234)) !got

let test_clic_multi_fragment_message () =
  let c, na, nb = two_nodes () in
  let got = ref 0 in
  Node.spawn nb (fun () ->
      let msg = Api.recv nb.Node.clic ~port:5 in
      got := msg.Clic_module.msg_bytes);
  Node.spawn na (fun () -> Api.send na.Node.clic ~dst:1 ~port:5 100_000);
  Net.run c;
  check_int "reassembled size" 100_000 !got;
  (* 100000 / (1500-12) = 68 packets *)
  check_bool "fragmented into packets" true
    (Clic_module.packets_sent (Api.kernel na.Node.clic) >= 68)

let test_clic_try_recv_nonblocking () =
  let c, na, nb = two_nodes () in
  let before = ref (Some 0) and after = ref None in
  Node.spawn nb (fun () ->
      before := Option.map (fun _ -> 1) (Api.try_recv nb.Node.clic ~port:5);
      Process.delay (Time.ms 1.);
      after :=
        Option.map
          (fun m -> m.Clic_module.msg_bytes)
          (Api.try_recv nb.Node.clic ~port:5));
  Node.spawn na (fun () -> Api.send na.Node.clic ~dst:1 ~port:5 64);
  Net.run c;
  Alcotest.(check (option int)) "nothing at t=0" None !before;
  Alcotest.(check (option int)) "message after delay" (Some 64) !after

let test_clic_ports_are_independent () =
  let c, na, nb = two_nodes () in
  let on_5 = ref 0 and on_6 = ref 0 in
  Node.spawn nb (fun () ->
      on_5 := (Api.recv nb.Node.clic ~port:5).Clic_module.msg_bytes);
  Node.spawn nb (fun () ->
      on_6 := (Api.recv nb.Node.clic ~port:6).Clic_module.msg_bytes);
  Node.spawn na (fun () ->
      Api.send na.Node.clic ~dst:1 ~port:6 600;
      Api.send na.Node.clic ~dst:1 ~port:5 500);
  Net.run c;
  check_int "port 5" 500 !on_5;
  check_int "port 6" 600 !on_6

let test_clic_sync_send_waits_for_delivery () =
  let c, na, nb = two_nodes () in
  let sender_done_at = ref 0 and receiver_got_at = ref 0 in
  Node.spawn nb (fun () ->
      ignore (Api.recv nb.Node.clic ~port:5);
      receiver_got_at := Sim.now c.Net.sim);
  Node.spawn na (fun () ->
      Api.send_sync na.Node.clic ~dst:1 ~port:5 10_000;
      sender_done_at := Sim.now c.Net.sim);
  Net.run c;
  check_bool "receiver got it" true (!receiver_got_at > 0);
  check_bool "confirmation after delivery" true
    (!sender_done_at > !receiver_got_at)

let test_clic_async_send_returns_early () =
  let c, na, nb = two_nodes () in
  let sender_done_at = ref 0 and receiver_got_at = ref 0 in
  Node.spawn nb (fun () ->
      ignore (Api.recv nb.Node.clic ~port:5);
      receiver_got_at := Sim.now c.Net.sim);
  Node.spawn na (fun () ->
      Api.send na.Node.clic ~dst:1 ~port:5 100_000;
      sender_done_at := Sim.now c.Net.sim);
  Net.run c;
  check_bool "async send returns before delivery" true
    (!sender_done_at < !receiver_got_at)

let test_clic_remote_write () =
  let c, na, nb = two_nodes () in
  let notified = ref None in
  Api.register_region nb.Node.clic ~region:3 (fun ~bytes ~src ->
      notified := Some (src, bytes));
  Node.spawn na (fun () ->
      Api.remote_write na.Node.clic ~dst:1 ~region:3 50_000);
  Net.run c;
  Alcotest.(check (option (pair int int))) "notified" (Some (0, 50_000))
    !notified;
  check_int "bytes landed" 50_000 (Api.region_bytes nb.Node.clic ~region:3)

let test_clic_local_message () =
  let c, na, _ = two_nodes () in
  let got = ref 0 in
  Node.spawn na (fun () ->
      Api.send na.Node.clic ~dst:0 ~port:5 777;
      got := (Api.recv na.Node.clic ~port:5).Clic_module.msg_bytes);
  Net.run c;
  check_int "same-node delivery" 777 !got;
  check_int "local counter" 1
    (clic_count c ~node:0 "clic.local_messages");
  (* local messages must not touch the NIC *)
  check_int "no wire packets" 0 (Hw.Nic.tx_packets (List.hd na.Node.nics))

let test_clic_broadcast () =
  let n = 4 in
  let c = Net.create ~n () in
  let got = Array.make n 0 in
  for i = 1 to n - 1 do
    let node = Net.node c i in
    Node.spawn node (fun () ->
        got.(i) <- (Api.recv node.Node.clic ~port:9).Clic_module.msg_bytes)
  done;
  Node.spawn (Net.node c 0) (fun () ->
      Api.broadcast (Net.node c 0).Node.clic ~port:9 2000);
  Net.run c;
  Alcotest.(check (array int)) "all peers" [| 0; 2000; 2000; 2000 |] got

let test_clic_reliability_under_loss () =
  let fault () = Hw.Fault.drop ~rng:(Rng.create ~seed:11) ~prob:0.03 in
  let c, na, nb = two_nodes ~config:(config_with ~fault ()) () in
  let sizes = [ 5_000; 40_000; 120_000 ] in
  let got = ref [] in
  Node.spawn nb (fun () ->
      List.iter
        (fun _ ->
          let m = Api.recv nb.Node.clic ~port:5 in
          got := m.Clic_module.msg_bytes :: !got)
        sizes);
  Node.spawn na (fun () ->
      List.iter (fun s -> Api.send na.Node.clic ~dst:1 ~port:5 s) sizes);
  Net.run c;
  Alcotest.(check (list int)) "in-order exactly-once delivery" sizes
    (List.rev !got);
  check_bool "loss actually recovered" true
    (Clic_module.retransmissions (Api.kernel na.Node.clic) > 0)

(* Deterministic loss on every link: each of the four link directions
   (both uplinks, both downlinks) gets its own [drop_nth] instance, so
   both data frames and the acknowledgements coming back are hit.  The
   period is 5 on 4 links: were it 4, the per-link phases could cover
   every residue and kill each retransmit-ack cycle at the tail of the
   stream — with one spare residue at least every 5th cycle completes. *)
let test_clic_drop_nth_data_and_ack_paths () =
  let fault () = Hw.Fault.drop_nth ~every:5 in
  let c, na, nb = two_nodes ~config:(config_with ~fault ()) () in
  let sizes = List.init 12 (fun i -> 2_000 + (i * 1_000)) in
  let got = ref [] in
  Node.spawn nb (fun () ->
      List.iter
        (fun _ ->
          let m = Api.recv nb.Node.clic ~port:7 in
          got := m.Clic_module.msg_bytes :: !got)
        sizes);
  Node.spawn na (fun () ->
      List.iter (fun s -> Api.send na.Node.clic ~dst:1 ~port:7 s) sizes);
  Net.run c;
  Alcotest.(check (list int)) "in-order exactly-once delivery" sizes
    (List.rev !got);
  let ka = Api.kernel na.Node.clic in
  check_bool "losses recovered" true (Clic_module.retransmissions ka > 0);
  (* ~90 data packets at 20% frame loss: go-back-N resends a window per
     loss event at worst, but recovery must stay far from pathological *)
  check_bool "retransmissions bounded" true
    (Clic_module.retransmissions ka < 600);
  check_bool "recovery used the adaptive machinery" true
    (clic_count c ~node:0 "channel.timeouts"
     + clic_count c ~node:0 "channel.fast_retransmits"
    > 0)

let test_clic_staging_when_ring_full () =
  (* A tiny transmit ring with a large window forces the "data cannot be
     sent now" path: CLIC stages into system memory and returns. *)
  let clic = { Params.default with tx_window = 128 } in
  let c = Net.create ~config:(config_with ~clic ()) ~n:2 () in
  let na = Net.node c 0 and nb = Net.node c 1 in
  (* shrink the ring below the burst size by replacing the NIC? simpler:
     burst enough packets to outrun a 64-slot ring *)
  let got = ref 0 in
  Node.spawn nb (fun () ->
      for _ = 1 to 120 do
        ignore (Api.recv nb.Node.clic ~port:5)
      done;
      got := 120);
  Node.spawn na (fun () ->
      for _ = 1 to 120 do
        Api.send na.Node.clic ~dst:1 ~port:5 1400
      done);
  Net.run c;
  check_int "all delivered" 120 !got;
  check_bool "some packets were staged" true
    (clic_count c ~node:0 "clic.packets_staged" > 0)

let test_clic_channel_bonding_two_nics () =
  (* Bonding pays off when each NIC has its own I/O bus; on the default
     shared 33 MHz PCI the bus itself caps the pair (see integration). *)
  let dual base = { base with Node.pci_per_nic = true } in
  let c1 = Net.create ~config:(config_with ~mtu:9000 ()) ~n:2 () in
  let c2 =
    Net.create ~config:(dual (config_with ~mtu:9000 ~nics:2 ())) ~n:2 ()
  in
  let bw cluster =
    let pair = Measure.clic_pair cluster ~a:0 ~b:1 () in
    (Measure.stream cluster pair ~a:0 ~b:1 ~size:8988 ~messages:200)
      .Measure.st_bandwidth_mbps
  in
  let single = bw c1 and bonded = bw c2 in
  check_bool "bonding improves bandwidth" true (bonded > single *. 1.3)

let test_clic_nic_fragmentation_mode () =
  let clic = { Params.default with use_nic_fragmentation = true } in
  let config =
    { (config_with ~clic ()) with nic_fragmentation = true }
  in
  let c, na, nb = two_nodes ~config () in
  let got = ref 0 in
  Node.spawn nb (fun () ->
      got := (Api.recv nb.Node.clic ~port:5).Clic_module.msg_bytes);
  Node.spawn na (fun () -> Api.send na.Node.clic ~dst:1 ~port:5 100_000);
  Net.run c;
  check_int "delivered through super-packets" 100_000 !got;
  (* 100000 / (32768-12) -> 4 CLIC packets instead of 68 *)
  check_bool "far fewer host packets" true
    (Clic_module.packets_sent (Api.kernel na.Node.clic) < 10)

let test_clic_queued_messages_drain_in_order () =
  let c, na, nb = two_nodes () in
  let got = ref [] in
  Node.spawn na (fun () ->
      List.iter
        (fun n -> Api.send na.Node.clic ~dst:1 ~port:5 n)
        [ 100; 200; 300 ]);
  Node.spawn nb (fun () ->
      (* let all three queue up before any receive *)
      Process.delay (Time.ms 2.);
      for _ = 1 to 3 do
        got := (Api.recv nb.Node.clic ~port:5).Clic_module.msg_bytes :: !got
      done);
  Net.run c;
  Alcotest.(check (list int)) "queued order" [ 100; 200; 300 ]
    (List.rev !got)

let test_clic_remote_write_unregistered_region () =
  let c, na, nb = two_nodes () in
  Node.spawn na (fun () ->
      Api.remote_write na.Node.clic ~dst:1 ~region:99 5000);
  Net.run c;
  (* data for an unknown region is dropped harmlessly *)
  check_int "nothing recorded" 0 (Api.region_bytes nb.Node.clic ~region:99)

let test_clic_multi_fragment_broadcast () =
  let n = 3 in
  let c = Net.create ~n () in
  let got = Array.make n 0 in
  for i = 1 to n - 1 do
    let node = Net.node c i in
    Node.spawn node (fun () ->
        got.(i) <- (Api.recv node.Node.clic ~port:9).Clic_module.msg_bytes)
  done;
  Node.spawn (Net.node c 0) (fun () ->
      (* 10 KB broadcast = 7 fragments flooded by the switch *)
      Api.broadcast (Net.node c 0).Node.clic ~port:9 10_000);
  Net.run c;
  Alcotest.(check (array int)) "reassembled everywhere" [| 0; 10_000; 10_000 |]
    got

let test_clic_local_sync_send () =
  let c, na, _ = two_nodes () in
  let done_ = ref false in
  Node.spawn na (fun () ->
      Api.send_sync na.Node.clic ~dst:0 ~port:5 500;
      ignore (Api.recv na.Node.clic ~port:5);
      done_ := true);
  Net.run c;
  check_bool "local confirmed send completes" true !done_

let test_clic_two_processes_same_node () =
  (* The module is re-entrant: two processes on one node talk to two
     peers concurrently (the multiprogramming claim of Section 5). *)
  let c = Net.create ~n:3 () in
  let n0 = Net.node c 0 in
  let done1 = ref false and done2 = ref false in
  Node.spawn (Net.node c 1) (fun () ->
      ignore (Api.recv (Net.node c 1).Node.clic ~port:5);
      Api.send (Net.node c 1).Node.clic ~dst:0 ~port:11 1);
  Node.spawn (Net.node c 2) (fun () ->
      ignore (Api.recv (Net.node c 2).Node.clic ~port:5);
      Api.send (Net.node c 2).Node.clic ~dst:0 ~port:12 1);
  Node.spawn n0 (fun () ->
      Api.send n0.Node.clic ~dst:1 ~port:5 50_000;
      ignore (Api.recv n0.Node.clic ~port:11);
      done1 := true);
  Node.spawn n0 (fun () ->
      Api.send n0.Node.clic ~dst:2 ~port:5 50_000;
      ignore (Api.recv n0.Node.clic ~port:12);
      done2 := true);
  Net.run c;
  check_bool "process 1" true !done1;
  check_bool "process 2" true !done2

let test_clic_second_waiter_rejected () =
  let c, _, nb = two_nodes () in
  let raised = ref false in
  Node.spawn nb (fun () -> ignore (Api.recv nb.Node.clic ~port:5));
  Node.spawn nb (fun () ->
      Process.delay 10;
      match Api.recv nb.Node.clic ~port:5 with
      | _ -> ()
      | exception Invalid_argument _ -> raised := true);
  Net.run c;
  check_bool "double-waiter detected" true !raised

(* ------------------------------------------------------------------ *)
(* Parameter validation (construction-time rejection) *)

let test_params_validate_rejections () =
  let p = Params.default in
  check_bool "default set is valid and returned unchanged" true
    (Params.validate p == p);
  let rejected what bad =
    match Params.validate bad with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejected "rto_min > rto_max"
    { p with rto_min = Time.ms 10.; rto_max = Time.ms 1. };
  rejected "dup_ack_threshold = 0" { p with dup_ack_threshold = 0 };
  rejected "max_retries = 0" { p with max_retries = 0 };
  rejected "tx_window = 0" { p with tx_window = 0 };
  rejected "negative tx_window" { p with tx_window = -4 };
  rejected "ack_every = 0" { p with ack_every = 0 };
  rejected "soft watermark above hard"
    { p with kmem_soft_frac = 0.9; kmem_hard_frac = 0.6 };
  rejected "soft watermark non-positive" { p with kmem_soft_frac = 0. };
  rejected "hard watermark above 1" { p with kmem_hard_frac = 1.5 };
  rejected "soft_window_frac = 0" { p with soft_window_frac = 0. };
  rejected "soft_window_frac > 1" { p with soft_window_frac = 1.01 };
  rejected "ecn_threshold = 0" { p with ecn_threshold = 0 };
  rejected "negative ecn_threshold" { p with ecn_threshold = -4096 };
  rejected "dctcp_g = 0" { p with dctcp_g = 0. };
  rejected "dctcp_g > 1" { p with dctcp_g = 1.5 };
  rejected "sack_blocks = 0" { p with sack_blocks = 0 };
  rejected "sack_blocks beyond the wire limit"
    { p with sack_blocks = Wire.max_sack_blocks + 1 };
  (* the exact complaint names the field and both values *)
  Alcotest.check_raises "watermark message"
    (Invalid_argument
       "Clic.Params: kmem watermarks out of order (want 0 < soft 0.9 <= \
        hard 0.6 <= 1)") (fun () ->
      ignore
        (Params.validate { p with kmem_soft_frac = 0.9; kmem_hard_frac = 0.6 }))

let test_params_rejected_at_module_creation () =
  (* Clic_module.create runs the validation: a cluster with a broken
     parameter set must fail to construct, not misbehave later. *)
  let clic = { Params.default with max_retries = 0 } in
  match Net.create ~config:(config_with ~clic ()) ~n:2 () with
  | _ -> Alcotest.fail "invalid params accepted by Clic_module.create"
  | exception Invalid_argument msg ->
      check_bool "names the parameter" true
        (String.length msg >= 11 && String.sub msg 0 11 = "Clic.Params")

(* ------------------------------------------------------------------ *)
(* Kernel-pool backpressure *)

let kmem_of node =
  (Clic_module.env_of (Api.kernel node.Node.clic)).Proto.Hostenv.kmem

let test_clic_advertised_window_tracks_pool_level () =
  let _, na, _ = two_nodes () in
  let k = Api.kernel na.Node.clic in
  let pool = kmem_of na in
  let full = (Clic_module.params k).Params.tx_window in
  check_int "normal: full window" full (Clic_module.advertised_window k);
  (* push the pool to its soft mark *)
  check_bool "grab to soft" true (Os_model.Kmem.try_alloc pool (Os_model.Kmem.soft_mark pool));
  check_int "soft: half window"
    (max 1 (int_of_float (Params.default.Params.soft_window_frac *. float_of_int full)))
    (Clic_module.advertised_window k);
  (* and on to the hard mark *)
  check_bool "grab to hard" true
    (Os_model.Kmem.try_alloc pool
       (Os_model.Kmem.hard_mark pool - Os_model.Kmem.in_use pool));
  check_int "hard: single packet" 1 (Clic_module.advertised_window k);
  Os_model.Kmem.free pool (Os_model.Kmem.in_use pool);
  check_int "recovered: full window" full (Clic_module.advertised_window k)

let test_clic_hard_watermark_sheds_and_recovers () =
  (* With the receiver's pool pinned at its hard mark, its NIC refuses
     ingress (counted separately from ring overflow); when the pressure
     lifts, retransmission delivers everything exactly once. *)
  let c, na, nb = two_nodes () in
  let pool = kmem_of nb in
  let grab = Os_model.Kmem.hard_mark pool in
  check_bool "pin pool at hard mark" true (Os_model.Kmem.try_alloc pool grab);
  let got = ref 0 in
  Node.spawn nb (fun () ->
      got := (Api.recv nb.Node.clic ~port:5).Clic_module.msg_bytes);
  Node.spawn na (fun () -> Api.send na.Node.clic ~dst:1 ~port:5 5_000);
  Node.spawn nb (fun () ->
      Process.delay (Time.ms 2.);
      Os_model.Kmem.free pool grab);
  Net.run c;
  check_int "delivered once the pressure lifted" 5_000 !got;
  check_bool "nic shed ingress at the hard watermark" true
    (Counters.total c.Net.sim ~scope:"nic1.0" "nic.rx_dropped_mem" > 0);
  check_int "distinct from ring overflow" 0
    (Counters.total c.Net.sim ~scope:"nic1.0" "nic.rx_dropped");
  check_bool "recovery went through retransmission" true
    (Clic_module.retransmissions (Api.kernel na.Node.clic) > 0)

(* ------------------------------------------------------------------ *)
(* Frame corruption (bad FCS) against the reliability layer *)

let test_clic_recovers_from_corruption () =
  let fault () = Hw.Fault.corrupt ~rng:(Rng.create ~seed:23) ~prob:0.05 in
  let c, na, nb = two_nodes ~config:(config_with ~fault ()) () in
  let sizes = [ 8_000; 60_000; 120_000 ] in
  let got = ref [] in
  Node.spawn nb (fun () ->
      List.iter
        (fun _ ->
          got := (Api.recv nb.Node.clic ~port:5).Clic_module.msg_bytes :: !got)
        sizes);
  Node.spawn na (fun () ->
      List.iter (fun s -> Api.send na.Node.clic ~dst:1 ~port:5 s) sizes);
  Net.run c;
  Alcotest.(check (list int)) "exactly-once despite bit flips" sizes
    (List.rev !got);
  check_bool "MAC dropped corrupted frames" true
    (Counters.total c.Net.sim ~scope:"nic1.0" "nic.bad_fcs" > 0);
  check_bool "losses recovered by retransmission" true
    (Clic_module.retransmissions (Api.kernel na.Node.clic) > 0)

(* ------------------------------------------------------------------ *)
(* Boot epochs on the wire *)

let inject nb pkt =
  (* hand-deliver a forged CLIC frame to the node's NIC, as if from the
     wire *)
  Hw.Nic.rx_from_wire (List.hd nb.Node.nics)
    (Hw.Eth_frame.make ~src:(Hw.Mac.of_node 0) ~dst:(Hw.Mac.of_node 1)
       ~ethertype:Wire.ethertype
       ~payload_bytes:
         (Wire.wire_bytes ~header_bytes:Params.default.Params.header_bytes pkt)
       (Wire.Clic pkt))

let forged_data ~epoch ~seq ~msg_id =
  { Wire.src = 0; epoch; chan_seq = Some seq; data_bytes = 64; ce = false;
    kind =
      Wire.Data
        { port = 5; sync = false;
          frag = { Wire.msg_id; frag_index = 0; frag_count = 1;
                   msg_bytes = 64 } } }

let test_clic_stale_epoch_rejected () =
  let c, _, nb = two_nodes () in
  let epochs = ref [] in
  Node.spawn nb (fun () ->
      for _ = 1 to 2 do
        let m = Api.recv nb.Node.clic ~port:5 in
        epochs := (m.Clic_module.msg_epoch, m.Clic_module.msg_bytes) :: !epochs
      done);
  Node.spawn nb (fun () ->
      (* the peer's first frame pins its epoch at 1 *)
      inject nb (forged_data ~epoch:1 ~seq:0 ~msg_id:0);
      Process.delay (Time.us 100.);
      (* a pre-crash straggler from epoch 0: must be dropped, counted *)
      inject nb (forged_data ~epoch:0 ~seq:1 ~msg_id:7);
      Process.delay (Time.us 100.);
      (* the peer rebooted into epoch 2: old channel state discarded, a
         fresh channel starts over at seq 0 *)
      inject nb (forged_data ~epoch:2 ~seq:0 ~msg_id:1));
  Net.run c;
  Alcotest.(check (list (pair int int)))
    "delivered both live epochs, in order"
    [ (1, 64); (2, 64) ]
    (List.rev !epochs);
  check_int "stale frame counted" 1
    (clic_count c ~node:1 "clic.stale_epoch_drops");
  check_int "reboot noticed" 1 (clic_count c ~node:1 "clic.peer_reboots");
  check_int "channel re-established" 1
    (clic_count c ~node:1 "clic.reestablishments")

(* A channel's counts outlive it: the module's retransmission total must
   not fall when the channel to a dead peer is torn down and later
   re-established, nor when the module itself shuts down. *)
let test_clic_totals_survive_teardown () =
  let clic =
    { Params.default with
      retransmit_timeout = Time.us 500.; rto_min = Time.us 100.;
      rto_max = Time.ms 1.; max_retries = 3 }
  in
  let c, na, nb = two_nodes ~config:(config_with ~clic ()) () in
  let ka = Api.kernel na.Node.clic in
  let seen = ref [] in
  let note () = seen := Clic_module.retransmissions ka :: !seen in
  Node.crash nb;
  Node.spawn na (fun () ->
      (* the channel to the dead peer retransmits until its retry cap *)
      Api.send na.Node.clic ~dst:1 ~port:5 1_000;
      Process.delay (Time.ms 10.);
      note ();
      (* the peer rebooted meanwhile: this send re-establishes *)
      Api.send na.Node.clic ~dst:1 ~port:5 1_000;
      Process.delay (Time.ms 5.);
      note ();
      Clic_module.shutdown ka;
      note ());
  Node.spawn na (fun () ->
      Process.delay (Time.ms 5.);
      Node.reboot nb);
  Net.run c;
  check_int "the channel was re-established" 1
    (clic_count c ~node:0 "clic.reestablishments");
  match List.rev !seen with
  | [ dead; reestablished; shut ] ->
      check_bool "the dead channel retransmitted" true (dead > 0);
      check_bool "re-establishing kept the dead channel's count" true
        (reestablished >= dead);
      check_bool "shutdown kept every channel's count" true
        (shut >= reestablished)
  | _ -> Alcotest.fail "expected three samples"

let prop_channel_model_in_order =
  (* Feed the receive side an arbitrary interleaving of sequence numbers
     (duplicates, reordering, gaps later filled): deliveries must be the
     contiguous prefix 0..k-1 exactly once, in order. *)
  QCheck.Test.make ~count:150 ~name:"channel delivers contiguous prefix"
    QCheck.(list (int_range 0 15))
    (fun seqs ->
      let sim = Sim.create () in
      let delivered = ref [] in
      let chan =
        Channel.create sim ~self:0 ~peer:1 ~params:Params.default
          ~counters:(Channel.counters sim ~scope:"chan")
          ~transmit:(fun _ ~retransmission:_ -> ())
          ~deliver:(fun pkt ->
            delivered := Option.get pkt.Wire.chan_seq :: !delivered)
          ~send_ack:(fun ~cum_seq:_ ~sacks:_ ~ce_echo:_ -> ())
          ()
      in
      Process.spawn sim (fun () ->
          List.iter (fun s -> Channel.rx chan (mk_data s)) seqs);
      Sim.run sim;
      let got = List.rev !delivered in
      (* expected: longest contiguous prefix 0..k-1 of the seen set *)
      let seen = List.sort_uniq compare seqs in
      let rec prefix k = if List.mem k seen then prefix (k + 1) else k in
      let k = prefix 0 in
      got = List.init k (fun i -> i))

let prop_clic_exactly_once_under_loss =
  QCheck.Test.make ~count:8 ~name:"clic exactly-once under random loss"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let fault () = Hw.Fault.drop ~rng:(Rng.create ~seed) ~prob:0.05 in
      let c, na, nb = two_nodes ~config:(config_with ~fault ()) () in
      let count = ref 0 and bytes = ref 0 in
      Node.spawn nb (fun () ->
          for _ = 1 to 5 do
            let m = Api.recv nb.Node.clic ~port:5 in
            incr count;
            bytes := !bytes + m.Clic_module.msg_bytes
          done);
      Node.spawn na (fun () ->
          for _ = 1 to 5 do
            Api.send na.Node.clic ~dst:1 ~port:5 10_000
          done);
      Net.run c;
      !count = 5 && !bytes = 50_000)

let prop_clic_sack_exactly_once_under_bursty_loss =
  (* SACK mode under composed Gilbert–Elliott burst loss and reordering
     jitter: the distinct, increasing sizes prove delivery stayed in-order
     exactly-once even though the holes were filled selectively. *)
  QCheck.Test.make ~count:8
    ~name:"sack mode exactly-once under bursty loss + reordering"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let fault () =
        let rng = Rng.create ~seed in
        Hw.Fault.compose
          [
            Hw.Fault.gilbert_elliott ~rng:(Rng.split rng)
              ~p_good_to_bad:0.01 ~p_bad_to_good:0.05 ~loss_bad:0.5 ();
            Hw.Fault.jitter ~rng:(Rng.split rng) ~max_delay:(Time.us 30.);
          ]
      in
      let clic = { Params.default with retx_scheme = `Sack } in
      let c, na, nb = two_nodes ~config:(config_with ~clic ~fault ()) () in
      let sizes = ref [] in
      Node.spawn nb (fun () ->
          for _ = 1 to 5 do
            sizes :=
              (Api.recv nb.Node.clic ~port:5).Clic_module.msg_bytes :: !sizes
          done);
      Node.spawn na (fun () ->
          for i = 1 to 5 do
            Api.send na.Node.clic ~dst:1 ~port:5 (i * 4_000)
          done);
      Net.run c;
      List.rev !sizes = [ 4_000; 8_000; 12_000; 16_000; 20_000 ])

let prop_clic_any_size_roundtrips =
  QCheck.Test.make ~count:12 ~name:"clic delivers any message size"
    QCheck.(int_range 0 300_000)
    (fun n ->
      let c, na, nb = two_nodes () in
      let got = ref (-1) in
      Node.spawn nb (fun () ->
          got := (Api.recv nb.Node.clic ~port:5).Clic_module.msg_bytes);
      Node.spawn na (fun () -> Api.send na.Node.clic ~dst:1 ~port:5 n);
      Net.run c;
      !got = n)

let qprops =
  List.map QCheck_alcotest.to_alcotest
    [ prop_clic_any_size_roundtrips; prop_clic_exactly_once_under_loss;
      prop_channel_model_in_order;
      prop_clic_sack_exactly_once_under_bursty_loss ]

let suite =
  [
    ("module totals survive channel teardown", `Quick,
      test_clic_totals_survive_teardown);
    ("channel in-order", `Quick, test_channel_in_order_delivery);
    ("channel reorders", `Quick, test_channel_reorders_ooo);
    ("channel duplicates", `Quick, test_channel_drops_duplicates);
    ("channel retransmit", `Quick, test_channel_retransmits_on_timeout);
    ("channel window", `Quick, test_channel_ack_frees_window);
    ("channel kind check", `Quick, test_channel_rejects_unreliable_kind);
    ("channel rtt adaptation", `Quick, test_channel_rtt_adaptation);
    ("channel rto backoff", `Quick, test_channel_rto_backoff_growth);
    ("channel fast retransmit", `Quick, test_channel_fast_retransmit_on_dup_acks);
    ("channel dead teardown", `Quick, test_channel_dead_releases_blocked_senders);
    ("channel held duplicate", `Quick, test_channel_ooo_duplicate_counted);
    ("channel rto ascending order", `Quick, test_channel_rto_resends_ascending);
    ("channel sack skips held", `Quick, test_channel_sack_rto_skips_held_segments);
    ("channel ce echo", `Quick, test_channel_receiver_echoes_ce);
    ("channel dctcp window", `Quick, test_channel_dctcp_alpha_and_window_cut);
    ("clic roundtrip", `Quick, test_clic_roundtrip_message);
    ("clic multi-fragment", `Quick, test_clic_multi_fragment_message);
    ("clic try_recv", `Quick, test_clic_try_recv_nonblocking);
    ("clic ports", `Quick, test_clic_ports_are_independent);
    ("clic sync send", `Quick, test_clic_sync_send_waits_for_delivery);
    ("clic async send", `Quick, test_clic_async_send_returns_early);
    ("clic remote write", `Quick, test_clic_remote_write);
    ("clic local message", `Quick, test_clic_local_message);
    ("clic broadcast", `Quick, test_clic_broadcast);
    ("clic loss recovery", `Quick, test_clic_reliability_under_loss);
    ("clic drop-nth both paths", `Quick, test_clic_drop_nth_data_and_ack_paths);
    ("clic staging", `Quick, test_clic_staging_when_ring_full);
    ("clic channel bonding", `Quick, test_clic_channel_bonding_two_nics);
    ("clic nic fragmentation", `Quick, test_clic_nic_fragmentation_mode);
    ("clic queued order", `Quick, test_clic_queued_messages_drain_in_order);
    ("clic unregistered region", `Quick, test_clic_remote_write_unregistered_region);
    ("clic fragmented broadcast", `Quick, test_clic_multi_fragment_broadcast);
    ("clic local sync", `Quick, test_clic_local_sync_send);
    ("clic re-entrant node", `Quick, test_clic_two_processes_same_node);
    ("clic double waiter", `Quick, test_clic_second_waiter_rejected);
    ("params validation", `Quick, test_params_validate_rejections);
    ("params gate module creation", `Quick, test_params_rejected_at_module_creation);
    ("advertised window backpressure", `Quick, test_clic_advertised_window_tracks_pool_level);
    ("hard watermark shedding", `Quick, test_clic_hard_watermark_sheds_and_recovers);
    ("corruption recovery", `Quick, test_clic_recovers_from_corruption);
    ("stale epoch rejection", `Quick, test_clic_stale_epoch_rejected);
  ]
  @ qprops
