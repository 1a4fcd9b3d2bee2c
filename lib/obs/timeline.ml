(* Chrome trace-event / Perfetto exporter.

   Renders a recorded probe stream as a JSON object in the trace-event
   format (load in ui.perfetto.dev or chrome://tracing):

   - one process ("pid") per node, plus a shared fabric process for
     switch-internal resources;
   - one thread ("tid") per (host, track) pair — a CPU contributes
     separate process / ISR / bottom-half / CLIC-module / busy tracks, a
     NIC its DMA track, each switch port its wire track;
   - complete ("X") slices for [Probe.Span] activity;
   - instant ("i") events for interrupts and scheduler wake/block;
   - counter ("C") tracks for queue depths, channel windows, pool bytes;
   - flow arrows ("s"/"f") from each message's send syscall to its
     delivery upcall on the receiving node.

   Output is deterministic: events are emitted in recorded order,
   metadata in sorted order, timestamps formatted with fixed precision
   (trace-event "ts" is in microseconds; we keep nanosecond resolution as
   fractional digits). *)

open Engine

let fabric_pid = 1000

let process_label pid =
  if pid = fabric_pid then "fabric" else Printf.sprintf "node%d" pid

(* Track sort order inside a node: flow of a packet top to bottom. *)
let track_rank = function
  | Probe.Process -> 0
  | Probe.Module -> 1
  | Probe.Isr -> 2
  | Probe.Bh_track -> 3
  | Probe.Dma -> 4
  | Probe.Link -> 5
  | Probe.Pause_t -> 6
  | Probe.Busy -> 7

let n_tracks = 8

(* ---- direct JSON writers: no per-field [sprintf] or field lists ---- *)

let escape_char buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | c when Char.code c < 0x20 ->
      Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
  | c -> Buffer.add_char buf c

let needs_escape s =
  String.exists (fun c -> c = '"' || c = '\\' || Char.code c < 0x20) s

(* A JSON string literal. *)
let add_str buf s =
  Buffer.add_char buf '"';
  if needs_escape s then String.iter (escape_char buf) s
  else Buffer.add_string buf s;
  Buffer.add_char buf '"'

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n else Buffer.add_string buf (string_of_int n)

(* Trace-event "ts"/"dur" are microseconds with nanosecond fractional
   digits: the same text as [Printf "%.3f" (float ns /. 1000.)], which
   is exact below 2^50 ns (~13 simulated days). *)
let add_us buf ns =
  if ns >= 0 && ns < 1 lsl 50 then begin
    add_digits buf (ns / 1000);
    Buffer.add_char buf '.';
    let f = ns mod 1000 in
    Buffer.add_char buf (Char.unsafe_chr (48 + (f / 100)));
    Buffer.add_char buf (Char.unsafe_chr (48 + (f / 10 mod 10)));
    Buffer.add_char buf (Char.unsafe_chr (48 + (f mod 10)))
  end
  else Printf.bprintf buf "%.3f" (float_of_int ns /. 1000.)

module Key = struct
  type t = { pid : int; host : string; track : Probe.track }

  let compare a b =
    match Int.compare a.pid b.pid with
    | 0 -> (
        match Int.compare (track_rank a.track) (track_rank b.track) with
        | 0 -> String.compare a.host b.host
        | c -> c)
    | c -> c
end

module KeyMap = Map.Make (Key)

(* A host's display lane: its process and the thread of each of its
   tracks (indexed by [track_rank]; 0 = no such thread). *)
type lane = { pid : int; tids : int array }

(* Per-export host -> lane table: [Host.node_of] runs once per host. *)
let lane lanes host =
  match Hashtbl.find_opt lanes host with
  | Some l -> l
  | None ->
      let pid =
        match Host.node_of host with Some n -> n | None -> fabric_pid
      in
      let l = { pid; tids = Array.make n_tracks 0 } in
      Hashtbl.add lanes host l;
      l

let cpu node = Printf.sprintf "cpu%d" node

(* Thread ids: assigned per (host, track) in display order, so the
   Perfetto track list reads sender-to-receiver.  Fills each lane's
   [tids] and returns the keys with their tids in that order. *)
let assign_tids lanes events =
  let keys = ref KeyMap.empty in
  let remember host track =
    let l = lane lanes host in
    let r = track_rank track in
    if l.tids.(r) = 0 then begin
      l.tids.(r) <- -1;
      keys := KeyMap.add { Key.pid = l.pid; host; track } () !keys
    end
  in
  List.iter
    (fun { Recorder.ev; _ } ->
      match ev with
      | Probe.Span { host; track; _ } -> remember host track
      | Probe.Sched_run { host } | Probe.Sched_block { host } ->
          remember host Probe.Process
      | Probe.Irq { host } -> remember host Probe.Isr
      | Probe.Msg_send { node; _ } ->
          remember (cpu node) Probe.Process
      | Probe.Msg_deliver { node; _ } ->
          remember (cpu node) Probe.Module
      | _ -> ())
    events;
  let next = ref 0 in
  KeyMap.mapi
    (fun (k : Key.t) () ->
      incr next;
      (lane lanes k.host).tids.(track_rank k.track) <- !next;
      !next)
    !keys

(* A message's flow id must be unique across the recording.  Sender
   msg_ids are per-node counters that restart with every simulation and
   every boot epoch, so fold all three in, mixed-radix: node < 1000,
   epoch < 1000, msg_id < 10^6.  The first simulation at epoch 0 keeps
   the plain [src * 10^6 + msg_id]. *)
let flow_id ~sim ~epoch ~src ~msg_id =
  ((((sim * 1000) + epoch) * 1000 + src) * 1_000_000) + msg_id

(* Ends an event object; the writers below open one each. *)
let close buf = Buffer.add_string buf "},\n"

let head buf ~name ~ph ~pid =
  Buffer.add_string buf "{\"name\":";
  add_str buf name;
  Buffer.add_string buf ",\"ph\":\"";
  Buffer.add_string buf ph;
  Buffer.add_string buf "\",\"pid\":";
  add_int buf pid

let metadata buf ~name ~pid ?tid ~arg write_arg =
  head buf ~name ~ph:"M" ~pid;
  Option.iter
    (fun tid ->
      Buffer.add_string buf ",\"tid\":";
      add_int buf tid)
    tid;
  Buffer.add_string buf ",\"args\":{\"";
  Buffer.add_string buf arg;
  Buffer.add_string buf "\":";
  write_arg ();
  Buffer.add_char buf '}';
  close buf

let slice buf ~name ~cat ~pid ~tid ~start ~finish =
  Buffer.add_string buf "{\"name\":";
  add_str buf name;
  Buffer.add_string buf ",\"cat\":";
  add_str buf cat;
  Buffer.add_string buf ",\"ph\":\"X\",\"pid\":";
  add_int buf pid;
  Buffer.add_string buf ",\"tid\":";
  add_int buf tid;
  Buffer.add_string buf ",\"ts\":";
  add_us buf start;
  Buffer.add_string buf ",\"dur\":";
  add_us buf (finish - start);
  close buf

let instant buf ~name ~cat (l : lane) track ~at =
  Buffer.add_string buf "{\"name\":";
  add_str buf name;
  Buffer.add_string buf ",\"cat\":";
  add_str buf cat;
  Buffer.add_string buf ",\"ph\":\"i\",\"s\":\"t\",\"pid\":";
  add_int buf l.pid;
  Buffer.add_string buf ",\"tid\":";
  add_int buf l.tids.(track_rank track);
  Buffer.add_string buf ",\"ts\":";
  add_us buf at;
  close buf

let counter buf ~name ~pid ~at ~key ~value =
  head buf ~name ~ph:"C" ~pid;
  Buffer.add_string buf ",\"ts\":";
  add_us buf at;
  Buffer.add_string buf ",\"args\":{\"";
  Buffer.add_string buf key;
  Buffer.add_string buf "\":";
  add_int buf value;
  Buffer.add_char buf '}';
  close buf

let flow buf ~ph (l : lane) track ~at ~id =
  Buffer.add_string buf "{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"";
  Buffer.add_string buf ph;
  Buffer.add_string buf "\",\"id\":";
  add_int buf id;
  Buffer.add_string buf ",\"pid\":";
  add_int buf l.pid;
  Buffer.add_string buf ",\"tid\":";
  add_int buf l.tids.(track_rank track);
  Buffer.add_string buf ",\"ts\":";
  add_us buf at;
  if ph = "f" then Buffer.add_string buf ",\"bp\":\"e\"";
  close buf

let export recorder =
  let events = Recorder.events recorder in
  let lanes = Hashtbl.create 64 in
  let tids = assign_tids lanes events in
  (* exports run 32-39 bytes per recorded event across the scenarios *)
  let buf = Buffer.create (max (1 lsl 16) (Recorder.count recorder * 40)) in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  (* Metadata: process and thread names, in sorted (deterministic) order. *)
  let pids =
    KeyMap.fold (fun k _ acc -> k.Key.pid :: acc) tids []
    |> List.sort_uniq Int.compare
  in
  List.iter
    (fun pid ->
      metadata buf ~name:"process_name" ~pid ~arg:"name" (fun () ->
          add_str buf (process_label pid));
      metadata buf ~name:"process_sort_index" ~pid ~arg:"sort_index"
        (fun () -> add_int buf pid))
    pids;
  KeyMap.iter
    (fun k tid ->
      let pid = k.Key.pid in
      metadata buf ~name:"thread_name" ~pid ~tid ~arg:"name" (fun () ->
          add_str buf
            (Printf.sprintf "%s %s" k.Key.host (Probe.track_name k.Key.track)));
      metadata buf ~name:"thread_sort_index" ~pid ~tid ~arg:"sort_index"
        (fun () -> add_int buf tid))
    tids;
  let sim = ref (-1) in
  List.iter
    (fun { Recorder.at; ev } ->
      match ev with
      | Probe.Sim_start -> incr sim
      | Probe.Span { host; track; label; start; finish } ->
          let l = lane lanes host in
          slice buf ~name:label ~cat:(Probe.track_name track) ~pid:l.pid
            ~tid:l.tids.(track_rank track) ~start ~finish
      | Probe.Irq { host } ->
          instant buf ~name:"irq" ~cat:"irq" (lane lanes host) Probe.Isr ~at
      | Probe.Sched_run { host } ->
          instant buf ~name:"sched-run" ~cat:"sched" (lane lanes host)
            Probe.Process ~at
      | Probe.Sched_block { host } ->
          instant buf ~name:"sched-block" ~cat:"sched" (lane lanes host)
            Probe.Process ~at
      | Probe.Queue_depth { queue; depth } ->
          counter buf ~name:queue ~pid:(lane lanes queue).pid ~at ~key:"depth"
            ~value:depth
      | Probe.Window { chan; node; peer; outstanding; _ } ->
          counter buf
            ~name:(Printf.sprintf "chan%d:%d->%d window" chan node peer)
            ~pid:node ~at ~key:"outstanding" ~value:outstanding
      | Probe.Pool_alloc { pool; used; _ } | Probe.Pool_free { pool; used; _ }
        ->
          counter buf ~name:pool ~pid:(lane lanes pool).pid ~at ~key:"bytes"
            ~value:used
      | Probe.Msg_send { node; msg_id; epoch; _ } ->
          flow buf ~ph:"s" (lane lanes (cpu node)) Probe.Process ~at
            ~id:(flow_id ~sim:(max 0 !sim) ~epoch ~src:node ~msg_id)
      | Probe.Msg_deliver { node; src; msg_id; epoch; _ } ->
          flow buf ~ph:"f" (lane lanes (cpu node)) Probe.Module ~at
            ~id:(flow_id ~sim:(max 0 !sim) ~epoch ~src ~msg_id)
      | _ -> ())
    events;
  (* Closing metadata sentinel avoids trailing-comma bookkeeping. *)
  Buffer.add_string buf
    "{\"name\":\"clic-sim\",\"ph\":\"M\",\"pid\":0,\"args\":{}}\n]}\n";
  Buffer.contents buf
