(* Host-speed calibration.

   A shared virtual machine drifts in speed between regimes tens of
   seconds long: on the reference host (2 vCPUs of an Intel Xeon at
   2.1 GHz) the same fabric_mix pass takes 0.65 s in one regime and
   0.90 s in the next.  A fixed kernel, owned by the benchmark and
   sharing no code with the simulator, is timed before every pass and
   after the last one.  Its median time over a run measures the host's
   speed during that run, and the end-to-end times are reported scaled
   to the kernel's reference time: seconds on a host running at the
   reference speed.  The simulator's code can never make the kernel
   faster or slower, so a change to the simulator moves the scaled
   figures exactly as it moves the raw ones.

   The kernel mimics the simulator's host profile: a binary-heap event
   loop over closures, small-record allocation and hash-table traffic. *)

type ev = { at : int; f : int -> int }

let iterations = 300_000

(* Median kernel time on the reference host (Intel Xeon, 2.1 GHz,
   2-vCPU virtual machine, unloaded regime).  Only ratios to it matter:
   both sides of any comparison use the same constant. *)
let reference_s = 0.1

let kernel () =
  let heap = Array.make 4096 { at = 0; f = (fun x -> x) } in
  let size = ref 0 in
  let push e =
    let i = ref !size in
    incr size;
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      heap.(p).at > e.at
    do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      if l >= !size then go := false
      else begin
        let c = if l + 1 < !size && heap.(l + 1).at < heap.(l).at then l + 1 else l in
        if heap.(c).at < last.at then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else go := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  let tbl = Hashtbl.create 1024 in
  let acc = ref 0 in
  let state = ref 12345 in
  let rnd () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  for i = 0 to 1000 do
    push { at = rnd () land 0xffff; f = (fun x -> x + i) }
  done;
  for i = 1 to iterations do
    let e = pop () in
    acc := e.f !acc land 0xffffff;
    let k = rnd () land 0xfff in
    (match Hashtbl.find_opt tbl k with
    | Some l -> Hashtbl.replace tbl k (i :: (if List.length l > 8 then [] else l))
    | None -> Hashtbl.replace tbl k [ i ]);
    let d = 1 + (rnd () land 0xfff) in
    push { at = e.at + d; f = (fun x -> x + d + k) }
  done;
  !acc

(* Host seconds one kernel run takes now, from a collected heap so that
   no garbage of the previous pass is charged to it. *)
let measure () =
  Gc.full_major ();
  let t0 = Pb_trace.now () in
  ignore (Sys.opaque_identity (kernel ()));
  Pb_trace.now () -. t0

