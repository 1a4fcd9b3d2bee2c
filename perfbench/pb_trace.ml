(* Host-time instrumentation owned by the benchmark: a span tree recorded
   around the benchmark's own calls into the library, and a probe sink
   that splits a simulation's host time across model layers.

   Nothing here is compiled into the simulator.  Spans are taken only
   when [enabled] is set (the traced run); end-to-end figures always
   come from untraced runs. *)

open Engine

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  name : string;
  attrs : string;
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 1
let stack = ref [ 0 ]

let with_span ?(attrs = "") name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = List.hd !stack in
    let s = { id; parent; name; attrs; t0 = now (); t1 = 0. } in
    spans := s :: !spans;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack)
      f
  end

(* All spans, oldest first, as a JSON array; times are microseconds from
   the first span's start.  Names and attributes are the benchmark's own
   ASCII identifiers, so they need no escaping. *)
let spans_json () =
  let all = List.rev !spans in
  let origin = match all with [] -> 0. | s :: _ -> s.t0 in
  let us t = (t -. origin) *. 1e6 in
  let b = Buffer.create 65536 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"attrs\":\"%s\",\
         \"start_us\":%.3f,\"end_us\":%.3f}"
        s.id s.parent s.name s.attrs (us s.t0)
        (us s.t1))
    all;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

(* Per span name: count, total seconds and self seconds (duration minus
   the part covered by child spans). *)
let span_summary () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      Hashtbl.replace children s.parent
        (d +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self =
        d -. Option.value ~default:0. (Hashtbl.find_opt children s.id)
      in
      let n, tot, slf =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, tot +. d, slf +. self))
    !spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Layer accounting *)

type layer = Engine_l | Hw_l | Os_l | Clic_l | Proto_l | Mpi_l

let layers = [ Engine_l; Hw_l; Os_l; Clic_l; Proto_l; Mpi_l ]

let layer_name = function
  | Engine_l -> "engine"
  | Hw_l -> "hw"
  | Os_l -> "os"
  | Clic_l -> "clic"
  | Proto_l -> "proto"
  | Mpi_l -> "mpi"

let layer_index = function
  | Engine_l -> 0
  | Hw_l -> 1
  | Os_l -> 2
  | Clic_l -> 3
  | Proto_l -> 4
  | Mpi_l -> 5

(* Totals accumulated by the sink over every traced simulation of a
   pass. *)
type acc = {
  host_s : float array;  (** indexed by [layer_index] *)
  mutable peak_pending : int;
  mutable sched_blocks : int;
  mutable dma_busy_ns : int;
  mutable link_busy_ns : int;
}

let fresh_acc () =
  {
    host_s = Array.make (List.length layers) 0.;
    peak_pending = 0;
    sched_blocks = 0;
    dma_busy_ns = 0;
    link_busy_ns = 0;
  }

(* The layer a probe names, if any.  [Busy] spans are raw resource
   grants and [Process] spans other than the CLIC and driver routines are
   untagged: an event that emits only those is charged to the
   simulation's default layer. *)
let layer_of (ev : Probe.event) =
  match ev with
  | Probe.Span { track = Probe.Dma | Probe.Link | Probe.Pause_t; _ }
  | Probe.Switch_buffer _ | Probe.Switch_drop _ | Probe.Ecn_mark _
  | Probe.Pause_frame _ | Probe.Pause_state _ | Probe.Tx_wire _ | Probe.Irq _
    ->
      Some Hw_l
  | Probe.Span { track = Probe.Isr | Probe.Bh_track; _ }
  | Probe.Sched_run _ | Probe.Sched_block _ | Probe.Poll_pass _
  | Probe.Rx_poll_mode _ ->
      Some Os_l
  | Probe.Span { track = Probe.Module; _ }
  | Probe.Ack_tx _ | Probe.Ack_rx _ | Probe.Window _ | Probe.Snd_una _
  | Probe.Chan_deliver _ | Probe.Chan_dead _ | Probe.Chan_retx _
  | Probe.Sack_tx _ | Probe.Sack_rx _ | Probe.Rto_armed _ | Probe.Msg_send _
  | Probe.Msg_deliver _ | Probe.Msg_recv _ ->
      Some Clic_l
  | Probe.Span { track = Probe.Process; label; _ } ->
      if String.starts_with ~prefix:"clic:" label then Some Clic_l
      else if String.starts_with ~prefix:"driver:" label then Some Os_l
      else None
  | _ -> None

(* Sink state for the simulation being traced. *)
let cur_acc = ref (fresh_acc ())
let cur_sim : Sim.t option ref = ref None
let default_layer = ref Engine_l
let last_clock = ref 0.
let event_layer = ref None
let in_event = ref false

let charge t =
  if !in_event then begin
    let l = Option.value ~default:!default_layer !event_layer in
    let i = layer_index l in
    let a = !cur_acc in
    a.host_s.(i) <- a.host_s.(i) +. (t -. !last_clock)
  end

let sink (ev : Probe.event) =
  let a = !cur_acc in
  match ev with
  | Probe.Clock _ ->
      let t = now () in
      charge t;
      last_clock := t;
      in_event := true;
      event_layer := None;
      (match !cur_sim with
      | Some sim ->
          let p = Sim.pending sim in
          if p > a.peak_pending then a.peak_pending <- p
      | None -> ())
  | _ ->
      (match ev with
      | Probe.Sched_block _ -> a.sched_blocks <- a.sched_blocks + 1
      | Probe.Span { track = Probe.Dma; start; finish; _ } ->
          a.dma_busy_ns <- a.dma_busy_ns + (finish - start)
      | Probe.Span { track = Probe.Link; start; finish; _ } ->
          a.link_busy_ns <- a.link_busy_ns + (finish - start)
      | _ -> ());
      if !event_layer = None then event_layer := layer_of ev

(* Runs [f] (one simulation's run phase) with the layer sink installed
   when tracing; [layer] takes the host time of events that emit no
   layer-tagged probe. *)
let layered ~acc ~sim ~layer f =
  if not !enabled then f ()
  else begin
    cur_acc := acc;
    cur_sim := Some sim;
    default_layer := layer;
    in_event := false;
    event_layer := None;
    Probe.install sink;
    Fun.protect
      ~finally:(fun () ->
        charge (now ());
        in_event := false;
        cur_sim := None;
        Probe.uninstall ())
      f
  end
