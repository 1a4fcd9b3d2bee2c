(* Tests for the protocol substrate: ethernet demux, IP fragmentation,
   UDP, and the TCP baseline (handshake, transfer, flow control, loss
   recovery, stream semantics). *)

open Engine
open Cluster
open Proto

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let two_nodes ?config () =
  let c = Net.create ?config ~n:2 () in
  (c, Net.node c 0, Net.node c 1)

(* ------------------------------------------------------------------ *)
(* Ethernet layer *)

let test_ethernet_demux_and_unhandled () =
  let c, na, nb = two_nodes () in
  let eth_a = List.hd na.Node.eths and eth_b = List.hd nb.Node.eths in
  let got = ref 0 in
  Ethernet.register eth_b ~ethertype:0x4242 (fun _ -> incr got);
  Node.spawn na (fun () ->
      for _ = 1 to 3 do
        Ethernet.send eth_a ~dst:(Hw.Mac.of_node 1) ~ethertype:0x4242
          ~skb:(Os_model.Skbuff.of_kernel ~header_bytes:0 100)
          ~payload:(Hw.Eth_frame.Raw 100) ()
      done;
      (* no handler for this one *)
      Ethernet.send eth_a ~dst:(Hw.Mac.of_node 1) ~ethertype:0x9999
        ~skb:(Os_model.Skbuff.of_kernel ~header_bytes:0 50)
        ~payload:(Hw.Eth_frame.Raw 50) ());
  Net.run c;
  check_int "handled" 3 !got;
  check_int "unhandled counted" 1 (Ethernet.unhandled eth_b)

let test_ethernet_duplicate_ethertype () =
  let _, na, _ = two_nodes () in
  let eth = List.hd na.Node.eths in
  Ethernet.register eth ~ethertype:0x4242 (fun _ -> ());
  Alcotest.check_raises "dup"
    (Invalid_argument "Ethernet.register: duplicate ethertype 0x4242")
    (fun () -> Ethernet.register eth ~ethertype:0x4242 (fun _ -> ()))

(* ------------------------------------------------------------------ *)
(* IP *)

let test_ip_fragmentation_roundtrip () =
  let c, na, nb = two_nodes () in
  let received = ref [] in
  Udp.bind nb.Node.udp ~port:2 (fun d ~src ->
      received := (src, d.Packet.udp_bytes) :: !received);
  Node.spawn na (fun () ->
      (* 4000B datagram over MTU 1500 -> 3 IP fragments *)
      Udp.sendto na.Node.udp ~dst:1 ~dst_port:2 ~bytes:4000
        ~app:Packet.No_app ());
  Net.run c;
  (match !received with
  | [ (0, 4000) ] -> ()
  | other -> Alcotest.failf "bad delivery (%d entries)" (List.length other));
  check_bool "fragments on the wire" true (Ip.packets_sent na.Node.ip >= 3);
  check_int "no reassembly leak" 0 (Ip.reassembly_pending nb.Node.ip)

let test_ip_fragment_loss_drops_datagram () =
  let config =
    { Node.default_config with
      link_fault = Some (fun () -> Hw.Fault.drop_nth ~every:2) }
  in
  let c, na, nb = two_nodes ~config () in
  let received = ref 0 in
  Udp.bind nb.Node.udp ~port:2 (fun _ ~src:_ -> incr received);
  Node.spawn na (fun () ->
      Udp.sendto na.Node.udp ~dst:1 ~dst_port:2 ~bytes:4000
        ~app:Packet.No_app ());
  Net.run c;
  check_int "datagram lost without reliability" 0 !received

(* ------------------------------------------------------------------ *)
(* UDP *)

let test_udp_ports_and_dispatch () =
  let c, na, nb = two_nodes () in
  let on_7 = ref 0 and on_8 = ref 0 in
  Udp.bind nb.Node.udp ~port:7 (fun _ ~src:_ -> incr on_7);
  Udp.bind nb.Node.udp ~port:8 (fun _ ~src:_ -> incr on_8);
  Node.spawn na (fun () ->
      Udp.sendto na.Node.udp ~dst:1 ~dst_port:7 ~bytes:100
        ~app:Packet.No_app ();
      Udp.sendto na.Node.udp ~dst:1 ~dst_port:8 ~bytes:100
        ~app:Packet.No_app ();
      Udp.sendto na.Node.udp ~dst:1 ~dst_port:9 ~bytes:100
        ~app:Packet.No_app ());
  Net.run c;
  check_int "port 7" 1 !on_7;
  check_int "port 8" 1 !on_8;
  check_int "unbound dropped" 1 (Udp.unbound_drops nb.Node.udp);
  Alcotest.check_raises "dup port" (Invalid_argument "Udp.bind: port 7 taken")
    (fun () -> Udp.bind nb.Node.udp ~port:7 (fun _ ~src:_ -> ()))

(* ------------------------------------------------------------------ *)
(* TCP *)

let tcp_count c ~node name =
  Counters.total c.Net.sim ~scope:(Printf.sprintf "node%d.tcp" node) name

let tcp_conn_pair ?config () =
  let c, na, nb = two_nodes ?config () in
  Tcp.listen nb.Node.tcp ~port:80;
  (c, na, nb)

let test_tcp_handshake_and_transfer () =
  let c, na, nb = tcp_conn_pair () in
  let got = ref false in
  Node.spawn nb (fun () ->
      let conn = Tcp.accept nb.Node.tcp ~port:80 in
      Tcp.recv conn 50_000;
      got := true);
  Node.spawn na (fun () ->
      let conn = Tcp.connect na.Node.tcp ~dst:1 ~port:80 in
      Tcp.send conn 50_000);
  Net.run c;
  check_bool "transferred" true !got;
  check_int "no retransmits on a clean network" 0
    (tcp_count c ~node:0 "tcp.retransmits")

let test_tcp_segmentation_respects_mss () =
  let c, na, nb = tcp_conn_pair () in
  Node.spawn nb (fun () ->
      let conn = Tcp.accept nb.Node.tcp ~port:80 in
      Tcp.recv conn 14_600);
  Node.spawn na (fun () ->
      let conn = Tcp.connect na.Node.tcp ~dst:1 ~port:80 in
      check_int "mss = mtu - 40" 1460 (Tcp.mss conn);
      Tcp.send conn 14_600);
  Net.run c;
  (* 14600 = 10 full segments, plus the handshake SYN *)
  check_bool "at least 10 data segments" true
    (Tcp.segments_sent na.Node.tcp >= 10)

let test_tcp_recovers_from_loss () =
  let config =
    { Node.default_config with
      link_fault = Some (fun () -> Hw.Fault.drop ~rng:(Rng.create ~seed:5)
                            ~prob:0.02) }
  in
  let c, na, nb = tcp_conn_pair ~config () in
  let done_ = ref false in
  let total = 300_000 in
  Node.spawn nb (fun () ->
      let conn = Tcp.accept nb.Node.tcp ~port:80 in
      Tcp.recv conn total;
      check_int "exactly the bytes sent" total (Tcp.bytes_delivered conn);
      done_ := true);
  Node.spawn na (fun () ->
      let conn = Tcp.connect na.Node.tcp ~dst:1 ~port:80 in
      Tcp.send conn total);
  Net.run c;
  check_bool "completed despite drops" true !done_;
  check_bool "retransmissions happened" true
    (tcp_count c ~node:0 "tcp.retransmits" > 0)

let test_tcp_flow_control_blocks_sender () =
  let c, na, nb = tcp_conn_pair () in
  let sent_all_at = ref 0 and drained_at = ref 0 in
  Node.spawn nb (fun () ->
      let conn = Tcp.accept nb.Node.tcp ~port:80 in
      (* Do not read for 50 ms: the sender must stall on the window. *)
      Process.delay (Time.ms 50.);
      Tcp.recv conn 500_000;
      drained_at := Sim.now (c.Net.sim));
  Node.spawn na (fun () ->
      let conn = Tcp.connect na.Node.tcp ~dst:1 ~port:80 in
      Tcp.send conn 500_000;
      sent_all_at := Sim.now (c.Net.sim));
  Net.run c;
  (* 500 KB cannot fit the 128 KB socket buffers: the send can only finish
     after the receiver starts consuming. *)
  check_bool "sender stalled until receiver read" true
    (!sent_all_at > Time.ms 50.);
  check_bool "receiver finished after sender" true
    (!drained_at >= !sent_all_at)

let test_tcp_bidirectional_streams () =
  let c, na, nb = tcp_conn_pair () in
  let a_done = ref false and b_done = ref false in
  Node.spawn nb (fun () ->
      let conn = Tcp.accept nb.Node.tcp ~port:80 in
      Tcp.send conn 40_000;
      Tcp.recv conn 60_000;
      b_done := true);
  Node.spawn na (fun () ->
      let conn = Tcp.connect na.Node.tcp ~dst:1 ~port:80 in
      Tcp.send conn 60_000;
      Tcp.recv conn 40_000;
      a_done := true);
  Net.run c;
  check_bool "a" true !a_done;
  check_bool "b" true !b_done

let test_tcp_two_connections_independent () =
  let c, na, nb = tcp_conn_pair () in
  Tcp.listen nb.Node.tcp ~port:81;
  let done1 = ref false and done2 = ref false in
  Node.spawn nb (fun () ->
      let conn = Tcp.accept nb.Node.tcp ~port:80 in
      Tcp.recv conn 10_000;
      done1 := true);
  Node.spawn nb (fun () ->
      let conn = Tcp.accept nb.Node.tcp ~port:81 in
      Tcp.recv conn 20_000;
      done2 := true);
  Node.spawn na (fun () ->
      let c1 = Tcp.connect na.Node.tcp ~dst:1 ~port:80 in
      let c2 = Tcp.connect na.Node.tcp ~dst:1 ~port:81 in
      Tcp.send c2 20_000;
      Tcp.send c1 10_000);
  Net.run c;
  check_bool "conn 1" true !done1;
  check_bool "conn 2" true !done2

let test_tcp_listen_duplicate () =
  let _, _, nb = tcp_conn_pair () in
  Alcotest.check_raises "dup listen"
    (Invalid_argument "Tcp.listen: port 80 taken") (fun () ->
      Tcp.listen nb.Node.tcp ~port:80)

let prop_tcp_delivers_exact_bytes =
  QCheck.Test.make ~count:15 ~name:"tcp delivers exactly n bytes"
    QCheck.(int_range 1 200_000)
    (fun n ->
      let c, na, nb = tcp_conn_pair () in
      let ok = ref false in
      Node.spawn nb (fun () ->
          let conn = Tcp.accept nb.Node.tcp ~port:80 in
          Tcp.recv conn n;
          ok := Tcp.bytes_delivered conn = n && Tcp.available conn = 0);
      Node.spawn na (fun () ->
          let conn = Tcp.connect na.Node.tcp ~dst:1 ~port:80 in
          Tcp.send conn n);
      Net.run c;
      !ok)

let test_tcp_piggybacked_acks () =
  (* In a request/response exchange the reverse data carries the ack, so
     almost no pure ack segments should be emitted. *)
  let c, na, nb = tcp_conn_pair () in
  Node.spawn nb (fun () ->
      let conn = Tcp.accept nb.Node.tcp ~port:80 in
      for _ = 1 to 10 do
        Tcp.recv conn 1000;
        Tcp.send conn 1000
      done);
  Node.spawn na (fun () ->
      let conn = Tcp.connect na.Node.tcp ~dst:1 ~port:80 in
      for _ = 1 to 10 do
        Tcp.send conn 1000;
        Tcp.recv conn 1000
      done);
  Net.run c;
  let a = tcp_count c ~node:0 "tcp.acks_sent"
  and b = tcp_count c ~node:1 "tcp.acks_sent" in
  check_bool (Printf.sprintf "few pure acks (%d + %d)" a b) true (a + b <= 6)

let test_tcp_delayed_ack_timer_fires () =
  (* A single odd segment with no reverse traffic is acknowledged by the
     delayed-ack timer, letting the sender release its buffer. *)
  let c, na, nb = tcp_conn_pair () in
  Node.spawn nb (fun () ->
      let conn = Tcp.accept nb.Node.tcp ~port:80 in
      Tcp.recv conn 500);
  Node.spawn na (fun () ->
      let conn = Tcp.connect na.Node.tcp ~dst:1 ~port:80 in
      Tcp.send conn 500);
  Net.run c;
  check_bool "timer-driven ack emitted" true
    (tcp_count c ~node:1 "tcp.acks_sent" >= 1);
  (* the delack timeout must have elapsed on the simulated clock *)
  check_bool "clock passed the delack timeout" true
    (Sim.now c.Net.sim >= Time.ms 40.)

let test_udp_zero_copy_skips_staging () =
  let c, na, nb = two_nodes () in
  let got = ref 0 in
  Udp.bind nb.Node.udp ~port:3 (fun d ~src:_ -> got := d.Packet.udp_bytes);
  Node.spawn na (fun () ->
      Udp.sendto na.Node.udp ~dst:1 ~dst_port:3 ~bytes:800
        ~app:Packet.No_app ~zero_copy:true ());
  Net.run c;
  check_int "delivered" 800 !got

let test_ip_many_interleaved_datagrams () =
  (* Fragments of several datagrams interleave on the wire; reassembly
     must keep them apart by (source, id). *)
  let c, na, nb = two_nodes () in
  let sizes = ref [] in
  Udp.bind nb.Node.udp ~port:4 (fun d ~src:_ ->
      sizes := d.Packet.udp_bytes :: !sizes);
  Node.spawn na (fun () ->
      List.iter
        (fun n ->
          Udp.sendto na.Node.udp ~dst:1 ~dst_port:4 ~bytes:n
            ~app:Packet.No_app ())
        [ 4000; 6000; 2000; 8000 ]);
  Net.run c;
  Alcotest.(check (list int))
    "all reassembled in order" [ 4000; 6000; 2000; 8000 ]
    (List.rev !sizes)

let prop_tcp_survives_any_loss_seed =
  QCheck.Test.make ~count:8 ~name:"tcp completes under random loss"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let config =
        { Node.default_config with
          link_fault =
            Some (fun () -> Hw.Fault.drop ~rng:(Rng.create ~seed) ~prob:0.03)
        }
      in
      let c, na, nb = two_nodes ~config () in
      Tcp.listen nb.Node.tcp ~port:80;
      let ok = ref false in
      let total = 150_000 in
      Node.spawn nb (fun () ->
          let conn = Tcp.accept nb.Node.tcp ~port:80 in
          Tcp.recv conn total;
          ok := Tcp.bytes_delivered conn = total);
      Node.spawn na (fun () ->
          let conn = Tcp.connect na.Node.tcp ~dst:1 ~port:80 in
          Tcp.send conn total);
      Net.run c;
      !ok)

let test_tcp_close_signals_eof () =
  let c, na, nb = tcp_conn_pair () in
  let got_eof = ref false and data_first = ref false in
  Node.spawn nb (fun () ->
      let conn = Tcp.accept nb.Node.tcp ~port:80 in
      Tcp.recv conn 5000;
      data_first := true;
      (match Tcp.recv conn 1 with
      | () -> ()
      | exception End_of_file -> got_eof := true);
      check_bool "eof state" true (Tcp.at_eof conn));
  Node.spawn na (fun () ->
      let conn = Tcp.connect na.Node.tcp ~dst:1 ~port:80 in
      Tcp.send conn 5000;
      Tcp.close conn);
  Net.run c;
  check_bool "data delivered before eof" true !data_first;
  check_bool "blocked recv woken with End_of_file" true !got_eof

let test_tcp_close_drains_pending_data () =
  (* close must not cut off data still in the send buffer *)
  let c, na, nb = tcp_conn_pair () in
  let delivered = ref 0 in
  Node.spawn nb (fun () ->
      let conn = Tcp.accept nb.Node.tcp ~port:80 in
      Tcp.recv conn 300_000;
      delivered := Tcp.bytes_delivered conn);
  Node.spawn na (fun () ->
      let conn = Tcp.connect na.Node.tcp ~dst:1 ~port:80 in
      Tcp.send conn 300_000;
      Tcp.close conn);
  Net.run c;
  check_int "all bytes arrived before FIN took effect" 300_000 !delivered

let qprops =
  List.map QCheck_alcotest.to_alcotest
    [ prop_tcp_delivers_exact_bytes; prop_tcp_survives_any_loss_seed ]

let suite =
  [
    ("ethernet demux", `Quick, test_ethernet_demux_and_unhandled);
    ("ethernet dup ethertype", `Quick, test_ethernet_duplicate_ethertype);
    ("ip fragmentation", `Quick, test_ip_fragmentation_roundtrip);
    ("ip fragment loss", `Quick, test_ip_fragment_loss_drops_datagram);
    ("udp ports", `Quick, test_udp_ports_and_dispatch);
    ("tcp handshake+transfer", `Quick, test_tcp_handshake_and_transfer);
    ("tcp segmentation", `Quick, test_tcp_segmentation_respects_mss);
    ("tcp loss recovery", `Quick, test_tcp_recovers_from_loss);
    ("tcp flow control", `Quick, test_tcp_flow_control_blocks_sender);
    ("tcp bidirectional", `Quick, test_tcp_bidirectional_streams);
    ("tcp two connections", `Quick, test_tcp_two_connections_independent);
    ("tcp duplicate listen", `Quick, test_tcp_listen_duplicate);
    ("tcp piggybacked acks", `Quick, test_tcp_piggybacked_acks);
    ("tcp delayed ack timer", `Quick, test_tcp_delayed_ack_timer_fires);
    ("udp zero copy", `Quick, test_udp_zero_copy_skips_staging);
    ("ip interleaved datagrams", `Quick, test_ip_many_interleaved_datagrams);
    ("tcp close eof", `Quick, test_tcp_close_signals_eof);
    ("tcp close drains", `Quick, test_tcp_close_drains_pending_data);
  ]
  @ qprops
