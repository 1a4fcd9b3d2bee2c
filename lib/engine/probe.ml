(* A process-global instrumentation hub.

   Simulation components emit typed events here; nothing listens by
   default, so the cost of an uninstalled probe is one flag test.  Sinks
   nest: the analysis layer (lib/check) or the recorder (lib/obs) installs
   one around a scenario run, and a figure's own collector (Figure 7's
   stage spans) can push another inside it; every installed sink sees
   every event until it is popped. *)

type owner = App | Channel | Driver | Bh | Nic

type obj_kind = Skb | Rx_buffer

type track = Process | Isr | Bh_track | Module | Dma | Link | Pause_t | Busy

type event =
  | Sim_start
  | Clock of { now : int }
  | Span of {
      host : string;
      track : track;
      label : string;
      start : int;
      finish : int;
    }
  | Sched_run of { host : string }
  | Sched_block of { host : string }
  | Irq of { host : string }
  | Queue_depth of { queue : string; depth : int }
  | Msg_send of {
      node : int;
      dst : int;
      port : int;
      msg_id : int;
      bytes : int;
      epoch : int;
    }
  | Obj_alloc of {
      kind : obj_kind;
      id : int;
      bytes : int;
      owner : owner;
      where : string;
    }
  | Obj_transfer of { kind : obj_kind; id : int; owner : owner; where : string }
  | Obj_free of { kind : obj_kind; id : int; where : string }
  | Pool_alloc of { pool : string; bytes : int; used : int; capacity : int }
  | Pool_free of { pool : string; bytes : int; used : int }
  | Ivar_fill of { id : int }
  | Sem_create of { id : int; permits : int }
  | Sem_acquire of { id : int; n : int; permits : int }
  | Sem_release of { id : int; n : int; permits : int }
  | Ack_tx of { chan : int; node : int; peer : int; cum_seq : int }
  | Ack_rx of { chan : int; node : int; peer : int; cum_seq : int }
  | Snd_una of { chan : int; node : int; peer : int; snd_una : int }
  | Window of {
      chan : int;
      node : int;
      peer : int;
      outstanding : int;
      limit : int;
    }
  | Chan_deliver of { chan : int; node : int; peer : int; seq : int }
  | Chan_dead of { chan : int; node : int; peer : int }
  | Msg_deliver of {
      node : int;
      src : int;
      port : int;
      msg_id : int;
      epoch : int;
    }
  | Msg_recv of { node : int; src : int; port : int; msg_id : int; epoch : int }
  | Rto_armed of {
      chan : int;
      node : int;
      peer : int;
      rto_ns : int;
      lo_ns : int;
      hi_ns : int;
    }
  | Rx_poll_mode of { host : string; polling : bool }
  | Poll_pass of { host : string; processed : int; budget : int }
  | Pool_pressure of { pool : string; level : int }
  | Tx_wire of { host : string }
  | Pause_state of { host : string; paused : bool }
  | Pause_frame of { host : string; sent : bool; quanta : int }
  | Switch_buffer of {
      switch : string;
      port : int;
      delta : int;
      occupied : int;
      total : int;
    }
  | Switch_drop of {
      switch : string;
      port : int;
      ingress : bool;
      protected : bool;
    }
  | Ecn_mark of { switch : string; port : int; occupied : int; threshold : int }
  | Sack_tx of { chan : int; node : int; peer : int; blocks : (int * int) list }
  | Sack_rx of { chan : int; node : int; peer : int; blocks : (int * int) list }
  | Chan_retx of { chan : int; node : int; peer : int; seq : int }
  | Gray_fault of { host : string; mode : string; active : bool }

(* Installed sinks, most recent first. *)
let sinks : (event -> unit) list ref = ref []

(* Mirror of [!sinks <> []], kept as a plain bool so every emit site in the
   hot path pays a single load-and-test — no list dereference, no
   polymorphic comparison — when nothing is listening (the common case). *)
let on = ref false

(* Outer sinks first, so nesting a collector changes nothing the outer
   sink observes. *)
let rec fan_out ev = function
  | [] -> ()
  | f :: outer ->
      fan_out ev outer;
      f ev

let emit ev =
  match !sinks with [ f ] -> f ev | [] -> () | fs -> fan_out ev fs

let install f =
  sinks := f :: !sinks;
  on := true

let uninstall () =
  (match !sinks with [] -> () | _ :: outer -> sinks := outer);
  on := !sinks <> []

let owner_name = function
  | App -> "app"
  | Channel -> "channel"
  | Driver -> "driver"
  | Bh -> "bottom-half"
  | Nic -> "nic"

let kind_name = function Skb -> "skbuff" | Rx_buffer -> "rx-buffer"

let track_name = function
  | Process -> "process"
  | Isr -> "isr"
  | Bh_track -> "bottom-half"
  | Module -> "module"
  | Dma -> "dma"
  | Link -> "link"
  | Pause_t -> "pause"
  | Busy -> "busy"

let to_string = function
  | Sim_start -> "sim-start"
  | Clock { now } -> Printf.sprintf "clock %d" now
  | Span { host; track; label; start; finish } ->
      Printf.sprintf "span %s/%s %s %d..%d" host (track_name track) label
        start finish
  | Sched_run { host } -> Printf.sprintf "sched-run %s" host
  | Sched_block { host } -> Printf.sprintf "sched-block %s" host
  | Irq { host } -> Printf.sprintf "irq %s" host
  | Queue_depth { queue; depth } ->
      Printf.sprintf "queue-depth %s %d" queue depth
  | Msg_send { node; dst; port; msg_id; bytes; epoch } ->
      Printf.sprintf "msg-send node=%d dst=%d port=%d msg=%d %dB ep=%d" node
        dst port msg_id bytes epoch
  | Obj_alloc { kind; id; bytes; owner; where } ->
      Printf.sprintf "alloc %s#%d %dB owner=%s at %s" (kind_name kind) id
        bytes (owner_name owner) where
  | Obj_transfer { kind; id; owner; where } ->
      Printf.sprintf "transfer %s#%d -> %s at %s" (kind_name kind) id
        (owner_name owner) where
  | Obj_free { kind; id; where } ->
      Printf.sprintf "free %s#%d at %s" (kind_name kind) id where
  | Pool_alloc { pool; bytes; used; capacity } ->
      Printf.sprintf "pool-alloc %s %dB (used %d/%d)" pool bytes used capacity
  | Pool_free { pool; bytes; used } ->
      Printf.sprintf "pool-free %s %dB (used %d)" pool bytes used
  | Ivar_fill { id } -> Printf.sprintf "ivar-fill #%d" id
  | Sem_create { id; permits } ->
      Printf.sprintf "sem-create #%d permits=%d" id permits
  | Sem_acquire { id; n; permits } ->
      Printf.sprintf "sem-acquire #%d n=%d permits=%d" id n permits
  | Sem_release { id; n; permits } ->
      Printf.sprintf "sem-release #%d n=%d permits=%d" id n permits
  | Ack_tx { chan; node; peer; cum_seq } ->
      Printf.sprintf "ack-tx chan#%d %d->%d cum=%d" chan node peer cum_seq
  | Ack_rx { chan; node; peer; cum_seq } ->
      Printf.sprintf "ack-rx chan#%d %d<-%d cum=%d" chan node peer cum_seq
  | Snd_una { chan; node; peer; snd_una } ->
      Printf.sprintf "snd-una chan#%d %d->%d una=%d" chan node peer snd_una
  | Window { chan; node; peer; outstanding; limit } ->
      Printf.sprintf "window chan#%d %d->%d %d/%d" chan node peer outstanding
        limit
  | Chan_deliver { chan; node; peer; seq } ->
      Printf.sprintf "chan-deliver chan#%d %d<-%d seq=%d" chan node peer seq
  | Chan_dead { chan; node; peer } ->
      Printf.sprintf "chan-dead chan#%d %d->%d" chan node peer
  | Msg_deliver { node; src; port; msg_id; epoch } ->
      Printf.sprintf "msg-deliver node=%d src=%d port=%d msg=%d ep=%d" node
        src port msg_id epoch
  | Msg_recv { node; src; port; msg_id; epoch } ->
      Printf.sprintf "msg-recv node=%d src=%d port=%d msg=%d ep=%d" node src
        port msg_id epoch
  | Rto_armed { chan; node; peer; rto_ns; lo_ns; hi_ns } ->
      Printf.sprintf "rto-armed chan#%d %d->%d %dns in [%d,%d]" chan node
        peer rto_ns lo_ns hi_ns
  | Rx_poll_mode { host; polling } ->
      Printf.sprintf "rx-poll-mode %s %s" host
        (if polling then "polling" else "irq")
  | Poll_pass { host; processed; budget } ->
      Printf.sprintf "poll-pass %s %d/%d" host processed budget
  | Pool_pressure { pool; level } ->
      Printf.sprintf "pool-pressure %s level=%d" pool level
  | Tx_wire { host } -> Printf.sprintf "tx-wire %s" host
  | Pause_state { host; paused } ->
      Printf.sprintf "pause-state %s %s" host
        (if paused then "paused" else "running")
  | Pause_frame { host; sent; quanta } ->
      Printf.sprintf "pause-frame %s %s quanta=%d" host
        (if sent then "tx" else "rx")
        quanta
  | Switch_buffer { switch; port; delta; occupied; total } ->
      Printf.sprintf "switch-buffer %s port=%d %+dB (occupied %d/%d)" switch
        port delta occupied total
  | Switch_drop { switch; port; ingress; protected } ->
      Printf.sprintf "switch-drop %s port=%d %s%s" switch port
        (if ingress then "ingress" else "egress")
        (if protected then " (protected!)" else "")
  | Ecn_mark { switch; port; occupied; threshold } ->
      Printf.sprintf "ecn-mark %s port=%d occupied=%d threshold=%d" switch
        port occupied threshold
  | Sack_tx { chan; node; peer; blocks } ->
      Printf.sprintf "sack-tx chan#%d %d->%d %s" chan node peer
        (String.concat ","
           (List.map (fun (a, z) -> Printf.sprintf "%d-%d" a (z - 1)) blocks))
  | Sack_rx { chan; node; peer; blocks } ->
      Printf.sprintf "sack-rx chan#%d %d<-%d %s" chan node peer
        (String.concat ","
           (List.map (fun (a, z) -> Printf.sprintf "%d-%d" a (z - 1)) blocks))
  | Chan_retx { chan; node; peer; seq } ->
      Printf.sprintf "chan-retx chan#%d %d->%d seq=%d" chan node peer seq
  | Gray_fault { host; mode; active } ->
      Printf.sprintf "gray-fault %s %s %s" host mode
        (if active then "on" else "off")
