(* Events/sec microbenchmarks for the simulation engine hot path.

   Four families, sized so a full run finishes in seconds:

   - empty-dispatch: one self-rescheduling chain of no-op events; measures
     the bare schedule+pop+dispatch cycle with a near-empty heap.
   - churn: schedule waves of far-future events, cancel half of them, then
     drain; measures push/in-place-removal throughput with a deep heap.
   - mesh-N: N nodes ping-pong with their partner concurrently, so the
     heap holds ~N outstanding events at all times; measures the whole
     loop at the heap depths the thousand-node scenarios produce.
   - timer-rearm: mesh-64 where every receive also re-arms its node's
     far-future timeout with cancel plus schedule, the pattern of the
     protocols' retransmission and interrupt-holdoff timers.  Each
     cancelled timeout would sit in the heap for a hundred hops if
     cancellation left it there.

   Every benchmark returns the number of events the simulator executed;
   the driver divides by min-of-3 wall clock for events/sec. *)

open Engine

(* The no-handle scheduling entry point the engine's own hot paths use. *)
let post sim ~after f = Sim.post sim ~after f

let empty_dispatch ~events () =
  let sim = Sim.create () in
  let remaining = ref events in
  let rec tick () =
    if !remaining > 0 then begin
      decr remaining;
      post sim ~after:10 tick
    end
  in
  post sim ~after:10 tick;
  Sim.run sim;
  Sim.events_executed sim

(* Waves of handle-returning schedules with half the handles cancelled
   before the drain, each cancel taking its entry out of a heap ~1000
   deep.  Returns schedules + cancels as the op count. *)
let churn ~ops () =
  let sim = Sim.create () in
  let wave = 1024 in
  let handles = Array.make wave None in
  let ops_done = ref 0 in
  while !ops_done < ops do
    for i = 0 to wave - 1 do
      handles.(i) <- Some (Sim.schedule sim ~after:(1 + ((i * 37) mod 4096)) (fun () -> ()))
    done;
    for i = 0 to wave - 1 do
      if i land 1 = 0 then
        match handles.(i) with Some h -> Sim.cancel h | None -> ()
    done;
    ops_done := !ops_done + wave + (wave / 2);
    Sim.run sim
  done;
  !ops_done

(* With [timeout], each node holds a timer [timeout] ns out that every
   receive cancels and schedules anew; only the last one per node
   fires. *)
let mesh ?timeout ~nodes ~rounds () =
  if nodes land 1 <> 0 then invalid_arg "mesh: nodes must be even";
  let sim = Sim.create () in
  let remaining = Array.make nodes rounds in
  let arm after = Sim.schedule sim ~after (fun () -> ()) in
  let timers = Array.init nodes (fun _ -> Option.map arm timeout) in
  (* Per-node latencies are deliberately unequal so the heap sees a spread
     of deadlines rather than one synchronized instant. *)
  let rec send i j =
    post sim ~after:(1_000 + (17 * i mod 64)) (fun () -> recv j i)
  and recv j i =
    (match timers.(j) with
    | Some h ->
        Sim.cancel h;
        timers.(j) <- Option.map arm timeout
    | None -> ());
    if remaining.(j) > 0 then begin
      remaining.(j) <- remaining.(j) - 1;
      send j i
    end
  in
  for i = 0 to nodes - 1 do
    send i (i lxor 1)
  done;
  Sim.run sim;
  Sim.events_executed sim

type result = {
  bench_id : string;
  events : int;
  wall_s : float;  (* min over runs *)
  nodes : int;
}

let events_per_sec r =
  if r.wall_s <= 0. then 0. else float_of_int r.events /. r.wall_s

let time_min ~runs f =
  let best = ref infinity and events = ref 0 in
  for _ = 1 to runs do
    let t0 = Unix.gettimeofday () in
    let n = f () in
    let w = Unix.gettimeofday () -. t0 in
    events := n;
    if w < !best then best := w
  done;
  (!events, !best)

let mesh_sizes = [ 8; 64; 256; 1024 ]

let suite ~quick =
  let scale n q = if quick then q else n in
  [
    ("engine/empty-dispatch", 0, empty_dispatch ~events:(scale 2_000_000 100_000));
    ("engine/churn", 0, churn ~ops:(scale 1_500_000 100_000));
  ]
  @ List.map
      (fun n ->
        ( Printf.sprintf "engine/mesh-%d" n,
          n,
          mesh ?timeout:None ~nodes:n
            ~rounds:(scale (2_000_000 / n) (100_000 / n)) ))
      mesh_sizes
  @ [
      ( "engine/timer-rearm",
        64,
        mesh ~timeout:100_000 ~nodes:64
          ~rounds:(scale (2_000_000 / 64) (100_000 / 64)) );
    ]

let run ?(runs = 3) ~quick () =
  List.map
    (fun (bench_id, nodes, f) ->
      let events, wall_s = time_min ~runs f in
      { bench_id; events; wall_s; nodes })
    (suite ~quick)
