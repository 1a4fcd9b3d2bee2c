open Engine
open Hw
open Os_model
open Proto

type config = {
  mtu : int;
  nics : int;
  link_bits_per_s : float;
  coalesce : Nic.coalesce;
  nic_fragmentation : bool;
  nic_internal_bytes_per_s : float;
  nic_firmware_per_frame : Time.span;
  pci_efficiency : float;
  pci_width_bytes : int;
  cpu_copy_bytes_per_s : float;
  membus_bytes_per_s : float;
  kmem_capacity : int;
  irq_dispatch : Time.span;
  clic_params : Clic.Params.t;
  driver_params : Driver.params;
  tcp_params : Tcp.params;
  link_fault : (unit -> Fault.t) option;
      (* per-link fault injection (tests of the reliability layers) *)
  pci_per_nic : bool;
      (* a separate PCI segment per NIC (server chipsets); with the default
         shared bus, channel bonding is capped by the bus itself *)
  switch_egress_frames : int option;
      (* finite switch output buffers; None = unbounded *)
  switch_ingress_frames : int option;
      (* finite switch uplink FIFOs; blind-dumping NICs lose frames *)
  switch_buffer : Switch.buffer option;
      (* shared-buffer ledger + 802.3x PAUSE generation at the switch *)
  nic_pause : Nic.pause option;
      (* 802.3x flow control at the NICs; None = legacy ignore-PAUSE MAC *)
}

let default_config =
  {
    mtu = Eth_frame.standard_mtu;
    nics = 1;
    link_bits_per_s = 1e9;
    coalesce = Nic.default_coalesce;
    nic_fragmentation = false;
    nic_internal_bytes_per_s = 400e6;
    nic_firmware_per_frame = Time.ns 800;
    pci_efficiency = 0.57;
    pci_width_bytes = 4;
    cpu_copy_bytes_per_s = 300e6;
    membus_bytes_per_s = 800e6;
    kmem_capacity = 4 * 1024 * 1024;
    irq_dispatch = Time.us 5.;
    clic_params = Clic.Params.default;
    driver_params = Driver.default_params;
    tcp_params = Tcp.default_params;
    link_fault = None;
    pci_per_nic = false;
    switch_egress_frames = None;
    switch_ingress_frames = None;
    switch_buffer = None;
    nic_pause = None;
  }

let gigabit_jumbo config = { config with mtu = Eth_frame.jumbo_mtu }

type t = {
  id : int;
  config : config;
  switches : Switch.t list;
  cpu_ : Cpu.t;
  membus : Bus.t;
  pci_for : int -> Bus.t;
  mutable env : Hostenv.t;
  mutable nics : Nic.t list;
  mutable eths : Ethernet.t list;
  mutable intr : Interrupt.t;
  mutable ip : Ip.t;
  mutable tcp : Tcp.t;
  mutable udp : Udp.t;
  mutable clic : Clic.Api.t;
  mutable epoch : int;
  mutable up : bool;
  mutable crashes : int;
}

(* One OS boot: everything from the scheduler down to the protocol stacks
   is kernel state and is built afresh; the CPU, buses and switch ports
   are hardware and survive across boots.  [epoch = 0] is the initial
   boot (switch ports are created); later epochs re-point the existing
   downlinks at the fresh NICs and suffix the kernel pool's name so the
   per-boot accounting streams stay distinct. *)
let boot sim ~id ~switches ~epoch ~cpu ~membus ~pci_for
    (config : config) =
  let sched = Sched.create sim ~cpu () in
  let syscall = Syscall.create cpu in
  let soft_mark =
    int_of_float
      (config.clic_params.Clic.Params.kmem_soft_frac
      *. float_of_int config.kmem_capacity)
  in
  let hard_mark =
    int_of_float
      (config.clic_params.Clic.Params.kmem_hard_frac
      *. float_of_int config.kmem_capacity)
  in
  let kmem =
    Kmem.create
      ~name:
        (if epoch = 0 then Printf.sprintf "kmem%d" id
         else Printf.sprintf "kmem%d.e%d" id epoch)
      ~capacity:config.kmem_capacity ~soft_mark ~hard_mark ()
  in
  let intr = Interrupt.create sim ~cpu ~dispatch_latency:config.irq_dispatch () in
  let bh = Bottom_half.create sim ~cpu () in
  let make_nic k =
    let nic =
      Nic.create sim
        ~name:(Printf.sprintf "nic%d.%d" id k)
        ~mtu:config.mtu ~pci:(pci_for k) ~membus ~coalesce:config.coalesce
        ~internal_bytes_per_s:config.nic_internal_bytes_per_s
        ~firmware_per_frame:config.nic_firmware_per_frame
        ~fragmentation:config.nic_fragmentation ?pause:config.nic_pause ()
    in
    let switch = List.nth switches k in
    Nic.attach_uplink nic (Switch.uplink switch ~node:id);
    if epoch = 0 then
      Switch.connect_node switch ~node:id (Nic.rx_from_wire nic)
    else Switch.rewire_node switch ~node:id (Nic.rx_from_wire nic);
    (* Kernel-pool backpressure, last line: past the hard watermark the
       NIC drops ingress frames (counted) instead of exhausting the pool —
       the channels' retransmission covers the loss. *)
    Nic.set_rx_admission nic (fun ~bytes:_ -> Kmem.level kmem <> `Hard);
    let driver =
      Driver.create sim ~cpu ~intr ~bh ~nic ~params:config.driver_params ()
    in
    let env =
      Hostenv.make ~sim ~node:id ~cpu ~membus ~sched ~syscall ~driver ~kmem
    in
    let eth = Ethernet.create env () in
    (nic, env, eth)
  in
  let parts = List.init config.nics make_nic in
  let nics = List.map (fun (n, _, _) -> n) parts in
  let envs = List.map (fun (_, e, _) -> e) parts in
  let eths = List.map (fun (_, _, e) -> e) parts in
  let env = List.hd envs in
  (* The TCP/IP suite rides the first NIC; CLIC bonds across all of them. *)
  let ip = Ip.create (List.hd eths) () in
  let tcp = Tcp.create ip ~params:config.tcp_params () in
  let udp = Udp.create ip () in
  let clic_module =
    Clic.Clic_module.create env ~params:config.clic_params ~epoch eths
  in
  let clic = Clic.Api.create clic_module in
  (env, nics, eths, intr, ip, tcp, udp, clic)

let create sim ~id ~switches (config : config) =
  if config.nics <= 0 then invalid_arg "Node.create: nics <= 0";
  if List.length switches < config.nics then
    invalid_arg "Node.create: not enough switches for the NICs";
  let cpu =
    Cpu.create sim
      ~name:(Printf.sprintf "cpu%d" id)
      ~copy_bytes_per_s:config.cpu_copy_bytes_per_s ()
  in
  let membus =
    Membus.create sim
      ~name:(Printf.sprintf "mem%d" id)
      ~bytes_per_s:config.membus_bytes_per_s ()
  in
  let shared_pci =
    Pci.create sim
      ~name:(Printf.sprintf "pci%d" id)
      ~efficiency:config.pci_efficiency
      ~width_bytes:config.pci_width_bytes ()
  in
  let per_nic_pci = Hashtbl.create 4 in
  let pci_for k =
    if config.pci_per_nic && k > 0 then (
      match Hashtbl.find_opt per_nic_pci k with
      | Some pci -> pci
      | None ->
          let pci =
            Pci.create sim
              ~name:(Printf.sprintf "pci%d.%d" id k)
              ~efficiency:config.pci_efficiency
              ~width_bytes:config.pci_width_bytes ()
          in
          Hashtbl.add per_nic_pci k pci;
          pci)
    else shared_pci
  in
  let env, nics, eths, intr, ip, tcp, udp, clic =
    boot sim ~id ~switches ~epoch:0 ~cpu ~membus ~pci_for config
  in
  let t =
    {
      id;
      config;
      switches;
      cpu_ = cpu;
      membus;
      pci_for;
      env;
      nics;
      eths;
      intr;
      ip;
      tcp;
      udp;
      clic;
      epoch = 0;
      up = true;
      crashes = 0;
    }
  in
  Counters.register sim ~scope:env.Hostenv.name
    [ ("node.crashes", fun t -> t.crashes) ]
    t;
  t

let cpu t = t.env.Hostenv.cpu
let spawn t f = Process.spawn t.env.Hostenv.sim f
let is_up t = t.up
let epoch t = t.epoch

(* A crash is instantaneous: the kernel's protocol state is discarded
   (channels torn down, staged backlog returned to the pool so its
   accounting balances) and the NICs power off — frames in flight toward
   the node are lost silently, exactly like pulling the plug.  Peers only
   notice through their own retry caps. *)
let crash t =
  if not t.up then invalid_arg "Node.crash: already down";
  t.up <- false;
  t.crashes <- t.crashes + 1;
  Clic.Clic_module.shutdown (Clic.Api.kernel t.clic);
  List.iter Nic.power_off t.nics;
  List.iter
    (fun eth -> Driver.kill (Ethernet.env eth).Hostenv.driver)
    t.eths

(* Reboot builds an entirely fresh kernel on the surviving hardware, one
   epoch up: peers recognise the higher epoch in arriving frames, discard
   their pre-crash channel state, and re-establish. *)
let reboot t =
  if t.up then invalid_arg "Node.reboot: still up";
  let sim = t.env.Hostenv.sim in
  t.epoch <- t.epoch + 1;
  let env, nics, eths, intr, ip, tcp, udp, clic =
    boot sim ~id:t.id ~switches:t.switches ~epoch:t.epoch ~cpu:t.cpu_
      ~membus:t.membus ~pci_for:t.pci_for t.config
  in
  t.env <- env;
  t.nics <- nics;
  t.eths <- eths;
  t.intr <- intr;
  t.ip <- ip;
  t.tcp <- tcp;
  t.udp <- udp;
  t.clic <- clic;
  t.up <- true
