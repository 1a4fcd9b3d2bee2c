(** Named counters: one registry per simulator.

    Each component registers its monotone int counters (event counts,
    nanosecond totals, peaks) at creation, as [(name, getter)] pairs under
    a scope naming the object: [nic.tx_packets] under ["nic3.0"].  Names
    are [<kind>.<counter>].  The pairs are static and each getter reads a
    field of the object, so registering adds one small entry per object
    and no hot path does extra work.  Entries are never removed: a torn-down object keeps
    its counts, and a crashed boot's objects stay registered beside the
    rebooted boot's.

    When several objects register one name under the same scope (a
    rebooted node's fresh NIC keeps the name ["nic3.0"]), the first
    answers to ["nic3.0"], the next to ["nic3.0#1"], and so on in
    registration order. *)

val register : Sim.t -> scope:string -> (string * ('a -> int)) list -> 'a -> unit
(** [register sim ~scope getters obj] files [obj]'s counters.  Register
    every counter at creation, even one that may never move. *)

val total : Sim.t -> ?scope:string -> string -> int
(** The sum of every entry named [name], or only the one object's that
    [scope] names (0 when it names none).
    @raise Invalid_argument when nothing in [sim] registered [name], so a
    misspelt name never reads as 0. *)
