(** Bus-master DMA transfers between host memory and a NIC.

    A DMA moves bytes across the PCI bus and the host memory bus at the same
    time; the transfer completes when the slower of the two finishes, and
    both buses are occupied for their respective durations (so DMA traffic
    steals memory bandwidth from concurrent CPU copies — the paper notes a
    copy "uses system resources such as the memory and PCI buses"). *)

val transfer :
  pci:Engine.Bus.t -> membus:Engine.Bus.t -> int -> (unit -> unit) -> unit
(** [transfer ~pci ~membus n k] moves [n] bytes and calls [k] once both bus
    crossings complete, in callback context: [k] runs inside an event and
    must not block.  A zero-byte transfer calls [k] at once and emits no
    span.  Needs no process.
    @raise Invalid_argument on a negative size. *)
