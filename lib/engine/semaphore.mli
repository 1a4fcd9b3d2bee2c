(** Counting semaphores for simulation processes.

    Used to model bounded capacities: NIC descriptor rings, socket buffers,
    in-flight message windows.  FIFO wakeup order. *)

type t

val create : int -> t
(** [create n] has [n] initial permits.  [n] must be non-negative. *)

val acquire : ?n:int -> t -> unit
(** Blocks the calling process until [n] (default 1) permits are available,
    then takes them.  Waiters are served strictly in FIFO order: a large
    request at the head blocks later small ones (no starvation). *)

val on_acquire : ?n:int -> t -> (unit -> unit) -> unit
(** Callback form of {!acquire}: takes the permits and calls [k] now if
    {!try_acquire} would succeed, else queues [k] in the same FIFO as
    blocked processes and calls it when a {!release} reaches it. *)

val try_acquire : ?n:int -> t -> bool
val release : ?n:int -> t -> unit
val available : t -> int
val waiters : t -> int
