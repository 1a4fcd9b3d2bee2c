(* Tests for the OS substrate: CPU, syscalls, interrupts, bottom halves,
   scheduler wakeups, sk_buffs, kernel memory, timers, driver. *)

open Engine
open Hw
open Os_model

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rig () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~name:"cpu0" () in
  (sim, cpu)

(* ------------------------------------------------------------------ *)
(* Cpu *)

let test_cpu_work_and_utilization () =
  let sim, cpu = rig () in
  Process.spawn sim (fun () -> Cpu.work cpu (Time.us 30.));
  ignore (Sim.schedule sim ~after:(Time.us 100.) (fun () -> ()));
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "30%" 0.3 (Cpu.utilization cpu ~since:0)

let test_cpu_copy_charges_membus () =
  let sim, cpu = rig () in
  let membus = Membus.create sim () in
  let finished = ref 0 in
  Process.spawn sim (fun () ->
      Cpu.copy cpu ~membus 3_000_000;
      finished := Sim.now sim);
  Sim.run sim;
  (* 3 MB at 300 MB/s = 10 ms of CPU *)
  check_int "cpu-bound copy" (Time.ms 10.) !finished;
  check_int "membus crossed twice" 6_000_000 (Bus.bytes_moved membus)

let test_cpu_interrupt_priority_beats_task () =
  let sim, cpu = rig () in
  let order = ref [] in
  Process.spawn sim (fun () ->
      Cpu.work cpu (Time.us 10.);
      order := "holder" :: !order);
  Process.spawn sim ~delay:1 (fun () ->
      Cpu.work cpu (Time.us 5.);
      order := "task" :: !order);
  Process.spawn sim ~delay:2 (fun () ->
      Cpu.work ~priority:`High cpu (Time.us 5.);
      order := "isr" :: !order);
  Sim.run sim;
  Alcotest.(check (list string))
    "isr preempts queued task" [ "holder"; "isr"; "task" ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Syscall *)

let test_syscall_costs () =
  let sim, cpu = rig () in
  let sc = Syscall.create cpu in
  let finished = ref 0 in
  Process.spawn sim (fun () ->
      Syscall.wrap sc (fun () -> Process.delay (Time.us 1.));
      finished := Sim.now sim);
  Sim.run sim;
  check_int "0.35 + 1 + 0.30 us" (Time.ns 1650) !finished;
  check_int "round trip" (Time.ns 650) (Syscall.round_trip sc);
  check_int "counted" 1 (Syscall.calls sc)

let test_syscall_exit_paid_on_raise () =
  let sim, cpu = rig () in
  let sc = Syscall.create cpu in
  let leave_seen = ref 0 in
  Process.spawn sim (fun () ->
      (match Syscall.wrap sc (fun () -> failwith "boom") with
      | () -> Alcotest.fail "expected exception"
      | exception Failure _ -> ());
      leave_seen := Sim.now sim);
  Sim.run sim;
  check_int "enter+leave charged" (Time.ns 650) !leave_seen

(* ------------------------------------------------------------------ *)
(* Interrupt / Bottom half *)

let test_interrupt_dispatch_latency () =
  let sim, cpu = rig () in
  let intr = Interrupt.create sim ~cpu ~dispatch_latency:(Time.us 6.) () in
  let ran_at = ref 0 in
  Interrupt.raise_irq intr ~isr:(fun () ->
      Cpu.work ~priority:`High cpu (Time.us 2.);
      ran_at := Sim.now sim);
  Sim.run sim;
  check_int "6us dispatch + 2us isr" (Time.us 8.) !ran_at;
  check_int "delivered" 1 (Interrupt.irqs_delivered intr);
  check_int "isr accounted" (Time.us 2.)
    (Counters.total sim ~scope:"cpu0.irq" "irq.isr_ns")

let test_bottom_half_runs_after_isr () =
  let sim, cpu = rig () in
  let bh = Bottom_half.create sim ~cpu ~dispatch_latency:(Time.us 1.5) () in
  let log = ref [] in
  Process.spawn sim (fun () ->
      Bottom_half.schedule bh (fun () ->
          Cpu.work ~priority:`High cpu (Time.us 5.);
          log := ("bh", Sim.now sim) :: !log);
      log := ("isr-done", Sim.now sim) :: !log);
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "deferred"
    [ ("isr-done", 0); ("bh", Time.us 6.5) ]
    (List.rev !log);
  check_int "executed" 1 (Bottom_half.executed bh)

let test_bottom_half_batches_fifo () =
  let sim, cpu = rig () in
  let bh = Bottom_half.create sim ~cpu () in
  let log = ref [] in
  Process.spawn sim (fun () ->
      for i = 1 to 3 do
        Bottom_half.schedule bh (fun () ->
            Cpu.work ~priority:`High cpu (Time.us 1.);
            log := i :: !log)
      done);
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Sched *)

let test_sched_wait_then_wake () =
  let sim, cpu = rig () in
  let sched = Sched.create sim ~cpu ~switch_cost:(Time.us 1.) () in
  let slot = Sched.slot sched in
  let resumed_at = ref 0 in
  Process.spawn sim (fun () ->
      Sched.wait slot;
      resumed_at := Sim.now sim);
  Process.spawn sim ~delay:(Time.us 10.) (fun () -> Sched.wake slot);
  Sim.run sim;
  check_int "wake at 10us + 1us switch" (Time.us 11.) !resumed_at;
  check_int "one switch" 1 (Sched.switches sched)

let test_sched_wake_before_wait () =
  let sim, cpu = rig () in
  let sched = Sched.create sim ~cpu () in
  let slot = Sched.slot sched in
  let resumed = ref false in
  Process.spawn sim (fun () -> Sched.wake slot);
  Process.spawn sim ~delay:(Time.us 5.) (fun () ->
      Sched.wait slot;
      resumed := true);
  Sim.run sim;
  check_bool "no deadlock" true !resumed

let test_sched_double_wake_noop () =
  let sim, cpu = rig () in
  let sched = Sched.create sim ~cpu () in
  let slot = Sched.slot sched in
  Process.spawn sim (fun () ->
      Sched.wake slot;
      Sched.wake slot);
  Sim.run sim;
  check_int "single switch" 1 (Sched.switches sched)

(* ------------------------------------------------------------------ *)
(* Skbuff / Kmem *)

let test_skbuff_shapes () =
  let zc = Skbuff.of_user ~header_bytes:26 1000 in
  check_int "data" 1000 (Skbuff.data_bytes zc);
  check_int "total" 1026 (Skbuff.total_bytes zc);
  check_int "user bytes" 1000 (Skbuff.user_bytes zc);
  check_bool "zero copy" true (Skbuff.is_zero_copy zc);
  let staged = Skbuff.of_kernel ~header_bytes:26 1000 in
  check_bool "staged not zero copy" false (Skbuff.is_zero_copy staged);
  check_int "no user bytes" 0 (Skbuff.user_bytes staged);
  let sg =
    Skbuff.create ~header_bytes:14
      [
        { Skbuff.region = Kernel_memory; bytes = 12 };
        { Skbuff.region = User_memory; bytes = 500 };
      ]
  in
  check_int "scatter-gather total" 526 (Skbuff.total_bytes sg)

let test_kmem_accounting () =
  let pool = Kmem.create ~name:"testpool" ~capacity:1000 () in
  check_bool "alloc ok" true (Kmem.try_alloc pool 600);
  check_bool "overcommit refused" false (Kmem.try_alloc pool 600);
  check_int "failed count" 1 (Kmem.failed_allocs pool);
  Kmem.free pool 600;
  check_bool "after free" true (Kmem.try_alloc pool 1000);
  check_int "high water" 1000 (Kmem.high_water pool);
  Alcotest.check_raises "over-free"
    (Invalid_argument
       "Kmem.free(testpool): freeing 2000B but only 1000B outstanding \
        (capacity 1000B)")
    (fun () -> Kmem.free pool 2000);
  Alcotest.check_raises "non-positive free"
    (Invalid_argument
       "Kmem.free(testpool): non-positive size 0B (1000B outstanding of \
        1000B)")
    (fun () -> Kmem.free pool 0);
  Alcotest.check_raises "non-positive alloc"
    (Invalid_argument
       "Kmem.try_alloc(testpool): non-positive size -5B (1000B outstanding \
        of 1000B)")
    (fun () -> ignore (Kmem.try_alloc pool (-5)))

(* ------------------------------------------------------------------ *)
(* Ktimer *)

let test_kmem_watermark_levels () =
  let pool =
    Kmem.create ~name:"wm" ~capacity:1000 ~soft_mark:500 ~hard_mark:800 ()
  in
  let level_name p =
    match Kmem.level p with `Normal -> "normal" | `Soft -> "soft" | `Hard -> "hard"
  in
  Alcotest.(check string) "empty pool" "normal" (level_name pool);
  check_bool "alloc to just under soft" true (Kmem.try_alloc pool 499);
  Alcotest.(check string) "below soft" "normal" (level_name pool);
  check_bool "cross soft" true (Kmem.try_alloc pool 1);
  Alcotest.(check string) "at soft mark" "soft" (level_name pool);
  check_bool "up to just under hard" true (Kmem.try_alloc pool 299);
  Alcotest.(check string) "below hard" "soft" (level_name pool);
  check_bool "cross hard" true (Kmem.try_alloc pool 1);
  Alcotest.(check string) "at hard mark" "hard" (level_name pool);
  (* the watermark signals, it does not gate: allocation at and past the
     hard mark still succeeds while capacity remains *)
  check_bool "alloc at hard watermark succeeds" true (Kmem.try_alloc pool 200);
  check_int "no failures yet" 0 (Kmem.failed_allocs pool);
  check_bool "capacity still refuses" false (Kmem.try_alloc pool 1);
  check_int "exhaustion counted" 1 (Kmem.failed_allocs pool);
  (* recovery: frees walk the levels back down *)
  Kmem.free pool 300;
  Alcotest.(check string) "back to soft" "soft" (level_name pool);
  Kmem.free pool 600;
  Alcotest.(check string) "back to normal" "normal" (level_name pool);
  check_bool "pool usable again" true (Kmem.try_alloc pool 900);
  Kmem.free pool 1000;
  check_int "balanced" 0 (Kmem.in_use pool);
  (* construction validates the ordering 0 < soft <= hard <= capacity *)
  let rejected ~soft_mark ~hard_mark =
    match Kmem.create ~capacity:1000 ~soft_mark ~hard_mark () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "soft > hard rejected" true (rejected ~soft_mark:900 ~hard_mark:800);
  check_bool "hard > capacity rejected" true
    (rejected ~soft_mark:500 ~hard_mark:1001);
  check_bool "non-positive soft rejected" true
    (rejected ~soft_mark:0 ~hard_mark:800)

let test_ktimer_fire_cancel_restart () =
  let sim = Sim.create () in
  let fired = ref [] in
  let t1 = Ktimer.after sim (Time.us 10.) (fun () -> fired := 1 :: !fired) in
  let t2 = Ktimer.after sim (Time.us 10.) (fun () -> fired := 2 :: !fired) in
  Ktimer.cancel t2;
  check_bool "t1 pending" true (Ktimer.is_pending t1);
  check_bool "t2 cancelled" false (Ktimer.is_pending t2);
  Sim.run sim;
  Alcotest.(check (list int)) "only t1" [ 1 ] !fired;
  Ktimer.restart t2 (Time.us 5.);
  Sim.run sim;
  Alcotest.(check (list int)) "restarted fires" [ 2; 1 ] !fired

(* ------------------------------------------------------------------ *)
(* Driver (full host receive path) *)

let driver_rig ?params () =
  let sim = Sim.create () in
  let cpu_a = Cpu.create sim ~name:"cpuA" () in
  let cpu_b = Cpu.create sim ~name:"cpuB" () in
  let pci_a = Pci.create sim () and pci_b = Pci.create sim () in
  let mem_a = Membus.create sim () and mem_b = Membus.create sim () in
  let nic_a =
    Nic.create sim ~name:"nicA" ~mtu:1500 ~pci:pci_a ~membus:mem_a
      ~coalesce:Nic.no_coalesce ()
  in
  let nic_b =
    Nic.create sim ~name:"nicB" ~mtu:1500 ~pci:pci_b ~membus:mem_b
      ~coalesce:Nic.no_coalesce ()
  in
  let ab = Link.create sim ~name:"ab" ~bits_per_s:1e9 () in
  Nic.attach_uplink nic_a ab;
  Link.connect ab (Nic.rx_from_wire nic_b);
  let intr_b = Interrupt.create sim ~cpu:cpu_b () in
  let bh_b = Bottom_half.create sim ~cpu:cpu_b () in
  let intr_a = Interrupt.create sim ~cpu:cpu_a () in
  let bh_a = Bottom_half.create sim ~cpu:cpu_a () in
  let drv_a = Driver.create sim ~cpu:cpu_a ~intr:intr_a ~bh:bh_a ~nic:nic_a
      ?params () in
  let drv_b = Driver.create sim ~cpu:cpu_b ~intr:intr_b ~bh:bh_b ~nic:nic_b
      ?params () in
  (sim, cpu_a, drv_a, drv_b)

(* A counter of the receiving side's NIC ("nicB") or its driver. *)
let receiver sim name =
  let scope =
    if String.starts_with ~prefix:"nic." name then "nicB" else "nicB.driver"
  in
  Counters.total sim ~scope name

let test_driver_end_to_end_upcall () =
  let sim, _, drv_a, drv_b = driver_rig () in
  let received = ref [] in
  Driver.set_rx_upcall drv_b (fun desc ->
      received := desc.Nic.rx_frame.Eth_frame.payload_bytes :: !received);
  Process.spawn sim (fun () ->
      let ok =
        Driver.transmit drv_a
          ~skb:(Skbuff.of_user ~header_bytes:26 1000)
          ~dst:(Mac.of_node 1) ~src:(Mac.of_node 0) ~ethertype:0x88
          ~payload:(Eth_frame.Raw 1000)
          ~on_complete:(fun () -> ()) ()
      in
      check_bool "posted" true ok);
  Sim.run sim;
  Alcotest.(check (list int)) "payload delivered" [ 1026 ] !received;
  check_int "one upcall" 1 (receiver sim "driver.rx_upcalls")

let test_driver_direct_mode_skips_bh () =
  let params = { Driver.default_params with rx_mode = Driver.Direct_from_isr } in
  let sim, _, drv_a, drv_b = driver_rig ~params () in
  let bh_time = ref (-1) and direct_time = ref (-1) in
  Driver.set_rx_upcall drv_b (fun _ -> direct_time := Sim.now sim);
  Process.spawn sim (fun () ->
      ignore
        (Driver.transmit drv_a
           ~skb:(Skbuff.of_user ~header_bytes:26 100)
           ~dst:(Mac.of_node 1) ~src:(Mac.of_node 0) ~ethertype:0x88
           ~payload:(Eth_frame.Raw 100)
           ~on_complete:(fun () -> ()) ()));
  Sim.run sim;
  let direct = !direct_time in
  (* Same send via the bottom-half path must deliver strictly later. *)
  let sim2, _, drv_a2, drv_b2 = driver_rig () in
  Driver.set_rx_upcall drv_b2 (fun _ -> bh_time := Sim.now sim2);
  Process.spawn sim2 (fun () ->
      ignore
        (Driver.transmit drv_a2
           ~skb:(Skbuff.of_user ~header_bytes:26 100)
           ~dst:(Mac.of_node 1) ~src:(Mac.of_node 0) ~ethertype:0x88
           ~payload:(Eth_frame.Raw 100)
           ~on_complete:(fun () -> ()) ()));
  Sim.run sim2;
  check_bool "delivered in both modes" true (direct > 0 && !bh_time > 0);
  check_bool "direct-from-isr is faster" true (direct < !bh_time)

let test_driver_batches_under_load () =
  let sim, _, drv_a, drv_b = driver_rig () in
  let upcalls = ref 0 in
  Driver.set_rx_upcall drv_b (fun _ -> incr upcalls);
  (* Small frames arrive faster than the receiver's per-frame interrupt
     service time, so interrupt masking during the ISR must batch them. *)
  Process.spawn sim (fun () ->
      for _ = 1 to 20 do
        ignore
          (Driver.transmit drv_a
             ~skb:(Skbuff.of_user ~header_bytes:26 100)
             ~dst:(Mac.of_node 1) ~src:(Mac.of_node 0) ~ethertype:0x88
             ~payload:(Eth_frame.Raw 100)
             ~on_complete:(fun () -> ()) ())
      done);
  Sim.run sim;
  check_int "all delivered" 20 !upcalls;
  (* Interrupt masking during ISR processing must batch several frames per
     interrupt: far fewer than 20 interrupts. *)
  let irqs = receiver sim "nic.interrupts_raised" in
  check_bool "fewer interrupts than frames" true (irqs < 20);
  check_bool "at least one interrupt" true (irqs >= 1)

(* ------------------------------------------------------------------ *)
(* NAPI-style receiver-livelock mitigation *)

let napi_params =
  {
    Driver.default_params with
    napi = true;
    napi_enter_gap = Time.us 20.;
    napi_enter_after = 2;
    napi_budget = 4;
    napi_interval = Time.us 5.;
  }

let blast drv n size =
  for _ = 1 to n do
    ignore
      (Driver.transmit drv
         ~skb:(Skbuff.of_user ~header_bytes:26 size)
         ~dst:(Mac.of_node 1) ~src:(Mac.of_node 0) ~ethertype:0x88
         ~payload:(Eth_frame.Raw size)
         ~on_complete:(fun () -> ()) ())
  done

let test_driver_napi_engages_and_exits () =
  let sim, _, drv_a, drv_b = driver_rig ~params:napi_params () in
  let upcalls = ref 0 in
  Driver.set_rx_upcall drv_b (fun _ -> incr upcalls);
  (* a storm of small frames arrives far inside the 20us hot-IRQ gap *)
  Process.spawn sim (fun () -> blast drv_a 40 100);
  Sim.run sim;
  check_int "storm fully delivered" 40 !upcalls;
  check_bool "polling engaged" true (Driver.poll_passes drv_b > 0);
  check_bool "packets moved by the poll loop" true
    (receiver sim "driver.polled_packets" > 0);
  (* the ring drained, so the driver handed rx back to interrupts: an even
     number of switches and not polling at quiesce *)
  check_bool "returned to interrupt mode" false (Driver.is_polling drv_b);
  check_bool "switched in and back out" true
    (let switches = receiver sim "driver.poll_mode_switches" in
     switches >= 2 && switches mod 2 = 0);
  (* mitigation bound: far fewer interrupts than frames *)
  check_bool "interrupt rate collapsed" true
    (receiver sim "nic.interrupts_raised" < 20)

let test_driver_napi_budget_bounds_passes () =
  let sim, _, drv_a, drv_b = driver_rig ~params:napi_params () in
  Driver.set_rx_upcall drv_b (fun _ -> ());
  (* Watch every individual poll pass: none may process more than its
     budget, whatever the ring held when the pass ran. *)
  let passes = ref [] in
  Probe.install (function
    | Probe.Poll_pass { processed; budget; _ } ->
        passes := (processed, budget) :: !passes
    | _ -> ());
  Fun.protect ~finally:Probe.uninstall (fun () ->
      Process.spawn sim (fun () -> blast drv_a 40 100);
      Sim.run sim);
  check_bool "polling ran at least one pass" true (!passes <> []);
  List.iter
    (fun (processed, budget) ->
      check_int "pass reports the configured budget"
        napi_params.Driver.napi_budget budget;
      check_bool
        (Printf.sprintf "pass within budget (%d <= %d)" processed budget)
        true
        (processed >= 0 && processed <= budget))
    !passes;
  let polled = receiver sim "driver.polled_packets" in
  check_int "per-pass counts add up to the polled total" polled
    (List.fold_left (fun acc (p, _) -> acc + p) 0 !passes)

let test_driver_napi_hysteresis_ignores_slow_traffic () =
  let sim, _, drv_a, drv_b = driver_rig ~params:napi_params () in
  let upcalls = ref 0 in
  Driver.set_rx_upcall drv_b (fun _ -> incr upcalls);
  (* frames spaced wider than the hot gap: interrupts are fine, polling
     must never engage *)
  Process.spawn sim (fun () ->
      for _ = 1 to 10 do
        blast drv_a 1 100;
        Process.delay (Time.us 50.)
      done);
  Sim.run sim;
  check_int "all delivered" 10 !upcalls;
  check_int "no mode switch" 0 (receiver sim "driver.poll_mode_switches");
  check_int "no poll pass" 0 (Driver.poll_passes drv_b)

let suite =
  [
    ("cpu work & utilization", `Quick, test_cpu_work_and_utilization);
    ("cpu copy charges membus", `Quick, test_cpu_copy_charges_membus);
    ("cpu interrupt priority", `Quick, test_cpu_interrupt_priority_beats_task);
    ("syscall costs", `Quick, test_syscall_costs);
    ("syscall exit on raise", `Quick, test_syscall_exit_paid_on_raise);
    ("interrupt dispatch", `Quick, test_interrupt_dispatch_latency);
    ("bottom half defers", `Quick, test_bottom_half_runs_after_isr);
    ("bottom half fifo", `Quick, test_bottom_half_batches_fifo);
    ("sched wait/wake", `Quick, test_sched_wait_then_wake);
    ("sched wake before wait", `Quick, test_sched_wake_before_wait);
    ("sched double wake", `Quick, test_sched_double_wake_noop);
    ("skbuff shapes", `Quick, test_skbuff_shapes);
    ("kmem accounting", `Quick, test_kmem_accounting);
    ("kmem watermarks", `Quick, test_kmem_watermark_levels);
    ("ktimer lifecycle", `Quick, test_ktimer_fire_cancel_restart);
    ("driver end-to-end", `Quick, test_driver_end_to_end_upcall);
    ("driver direct-from-isr", `Quick, test_driver_direct_mode_skips_bh);
    ("driver batching", `Quick, test_driver_batches_under_load);
    ("driver napi engage/exit", `Quick, test_driver_napi_engages_and_exits);
    ("driver napi budget", `Quick, test_driver_napi_budget_bounds_passes);
    ("driver napi hysteresis", `Quick, test_driver_napi_hysteresis_ignores_slow_traffic);
  ]
