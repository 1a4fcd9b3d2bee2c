(** The bundle of OS services a protocol stack runs against on one host.

    Built once per node (see [Cluster.Node]); every protocol layer hangs off
    this instead of threading six arguments around. *)

open Engine
open Os_model

type t = {
  sim : Sim.t;
  node : int;  (** cluster node id; the NIC's MAC is [Mac.of_node node] *)
  name : string;
      (** ["node<id>"]: the stacks count under ["<name>.tcp"],
          ["<name>.clic"], ... in {!Engine.Counters} *)
  cpu : Cpu.t;
  membus : Bus.t;
  sched : Sched.t;
  syscall : Syscall.t;
  driver : Driver.t;
  kmem : Kmem.t;
}

val mac : t -> Hw.Mac.t
val make :
  sim:Sim.t ->
  node:int ->
  cpu:Cpu.t ->
  membus:Bus.t ->
  sched:Sched.t ->
  syscall:Syscall.t ->
  driver:Driver.t ->
  kmem:Kmem.t ->
  t
