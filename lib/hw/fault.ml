open Engine

type kind =
  | None_
  | Drop of { rng : Rng.t; prob : float }
  | Drop_nth of { every : int; mutable seen : int }
  | Gilbert of {
      rng : Rng.t;
      p_good_to_bad : float;
      p_bad_to_good : float;
      loss_good : float;
      loss_bad : float;
      mutable bad : bool;
    }
  | Duplicate of { rng : Rng.t; prob : float }
  | Jitter of { rng : Rng.t; max_delay : Time.span }
  | Flap of { up : Time.span; down : Time.span; phase : Time.span }
  | Corrupt of { rng : Rng.t; prob : float }
  | Brownout of {
      fraction : float;
      from_ : Time.t;
      until_ : Time.t;
      label : string;
      mutable busy_until : Time.t;
      mutable was_active : bool;
    }
  | Compose of t list

and t = {
  kind : kind;
  mutable drops : int;
  mutable duplicates : int;
  mutable corruptions : int;
  mutable slowed : int;
  mutable slow_ns : int;
}

type copy = { delay : Time.span; corrupt : bool }

let make kind =
  { kind; drops = 0; duplicates = 0; corruptions = 0; slowed = 0; slow_ns = 0 }
let none = make None_

let check_prob name prob =
  if prob < 0. || prob > 1. then
    invalid_arg (Printf.sprintf "Fault.%s: prob outside [0,1]" name)

let drop ~rng ~prob =
  check_prob "drop" prob;
  make (Drop { rng; prob })

let drop_nth ~every =
  if every <= 0 then invalid_arg "Fault.drop_nth: every <= 0";
  make (Drop_nth { every; seen = 0 })

let gilbert_elliott ~rng ~p_good_to_bad ~p_bad_to_good ?(loss_good = 0.)
    ~loss_bad () =
  check_prob "gilbert_elliott" p_good_to_bad;
  check_prob "gilbert_elliott" p_bad_to_good;
  check_prob "gilbert_elliott" loss_good;
  check_prob "gilbert_elliott" loss_bad;
  make
    (Gilbert { rng; p_good_to_bad; p_bad_to_good; loss_good; loss_bad;
               bad = false })

let duplicate ~rng ~prob =
  check_prob "duplicate" prob;
  make (Duplicate { rng; prob })

let jitter ~rng ~max_delay =
  if max_delay <= 0 then invalid_arg "Fault.jitter: max_delay <= 0";
  make (Jitter { rng; max_delay })

let flap ~up ~down ?(phase = 0) () =
  if up <= 0 || down <= 0 then invalid_arg "Fault.flap: period <= 0";
  make (Flap { up; down; phase })

let corrupt ~rng ~prob =
  check_prob "corrupt" prob;
  make (Corrupt { rng; prob })

let brownout ~fraction ~from_ ~until_ ?(label = "link") () =
  if fraction <= 0. || fraction > 1. then
    invalid_arg "Fault.brownout: fraction outside (0,1]";
  if from_ < 0 || until_ <= from_ then
    invalid_arg "Fault.brownout: empty or negative window";
  make
    (Brownout
       { fraction; from_; until_; label; busy_until = 0; was_active = false })

let compose stages = make (Compose stages)

let clean = { delay = 0; corrupt = false }

(* One copy of a frame passing one stage: the fates (relative to an
   undisturbed delivery) of the copies that survive; [] means dropped. *)
let rec stage_copy t ~now ~ser =
  let dropped () =
    t.drops <- t.drops + 1;
    []
  in
  match t.kind with
  | None_ -> [ clean ]
  | Drop { rng; prob } ->
      if Rng.float rng 1.0 < prob then dropped () else [ clean ]
  | Drop_nth d ->
      d.seen <- d.seen + 1;
      if d.seen mod d.every = 0 then dropped () else [ clean ]
  | Gilbert g ->
      (* Two-state Markov channel: advance the state once per frame, then
         lose with the state's loss rate (loss_bad ~ 1 gives solid bursts). *)
      let flip =
        Rng.float g.rng 1.0
        < if g.bad then g.p_bad_to_good else g.p_good_to_bad
      in
      if flip then g.bad <- not g.bad;
      let loss = if g.bad then g.loss_bad else g.loss_good in
      if Rng.float g.rng 1.0 < loss then dropped () else [ clean ]
  | Duplicate { rng; prob } ->
      if Rng.float rng 1.0 < prob then begin
        t.duplicates <- t.duplicates + 1;
        [ clean; clean ]
      end
      else [ clean ]
  | Jitter { rng; max_delay } -> [ { clean with delay = Rng.int rng max_delay } ]
  | Flap f ->
      let pos = (now + f.phase) mod (f.up + f.down) in
      if pos < f.up then [ clean ] else dropped ()
  | Corrupt { rng; prob } ->
      if Rng.float rng 1.0 < prob then begin
        t.corruptions <- t.corruptions + 1;
        [ { clean with corrupt = true } ]
      end
      else [ clean ]
  | Brownout b ->
      let active = now >= b.from_ && now < b.until_ in
      if active <> b.was_active then begin
        b.was_active <- active;
        if !Probe.on then
          Probe.emit (Probe.Gray_fault
                        { host = b.label; mode = "link-brownout"; active })
      end;
      if not active then [ clean ]
      else begin
        (* The sagging link serves frames at [fraction] of its rate: each
           frame owes (1/fraction - 1) extra wire time, and frames queue
           behind one another in a virtual slow queue ([busy_until]) so
           FIFO order — and therefore the channel's sequencing — is
           preserved while the backlog compounds, exactly like a slower
           transmitter. *)
        let extra =
          int_of_float (float_of_int ser *. (1. /. b.fraction -. 1.))
        in
        let start = if b.busy_until > now then b.busy_until else now in
        let free = start + extra in
        b.busy_until <- free;
        let delay = free - now in
        if delay > 0 then begin
          t.slowed <- t.slowed + 1;
          t.slow_ns <- t.slow_ns + delay
        end;
        [ { clean with delay } ]
      end
  | Compose stages ->
      List.fold_left
        (fun copies stage ->
          List.concat_map
            (fun copy ->
              List.map
                (fun c ->
                  {
                    delay = copy.delay + c.delay;
                    corrupt = copy.corrupt || c.corrupt;
                  })
                (stage_copy stage ~now ~ser))
            copies)
        [ clean ] stages

let frame t ~now ?(ser = 0) () = stage_copy t ~now ~ser

(* A composed fault's counts are its stages' sums. *)
let rec sum field t =
  match t.kind with
  | Compose stages -> List.fold_left (fun acc s -> acc + sum field s) 0 stages
  | _ -> field t

let counters =
  [
    ("fault.drops", sum (fun t -> t.drops));
    ("fault.duplicates", sum (fun t -> t.duplicates));
    ("fault.corruptions", sum (fun t -> t.corruptions));
    ("fault.slowed", sum (fun t -> t.slowed));
    ("fault.slow_ns", sum (fun t -> t.slow_ns));
  ]
