type 'a t = { items : 'a Queue.t; blocked : ('a -> unit) Queue.t }

let create () = { items = Queue.create (); blocked = Queue.create () }

let send t v =
  match Queue.take_opt t.blocked with
  | Some resume -> resume v
  | None -> Queue.add v t.items

let try_recv t = Queue.take_opt t.items

let on_recv t k =
  match Queue.take_opt t.items with
  | Some v -> k v
  | None -> Queue.add k t.blocked

let recv t =
  match Queue.take_opt t.items with
  | Some v -> v
  | None -> Process.await (fun resume -> Queue.add resume t.blocked)

let length t = Queue.length t.items
let waiters t = Queue.length t.blocked
