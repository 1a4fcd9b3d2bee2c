(** Unbounded FIFO mailboxes between simulation processes.

    [send] never blocks; [recv] blocks the calling process until a message is
    available.  Messages are delivered in send order; competing receivers are
    served in arrival order. *)

type 'a t

val create : unit -> 'a t
val send : 'a t -> 'a -> unit

val recv : 'a t -> 'a
(** Blocks; must run inside a process. *)

val on_recv : 'a t -> ('a -> unit) -> unit
(** Callback form of {!recv}: calls [k] with the next message now if one
    is queued, else when it is sent.  Callback and blocking receivers
    wait in one queue and are served in arrival order. *)

val try_recv : 'a t -> 'a option
val length : 'a t -> int
(** Number of queued (undelivered) messages. *)

val waiters : 'a t -> int
(** Number of receivers currently waiting in {!recv} or {!on_recv}. *)
