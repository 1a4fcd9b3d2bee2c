open Engine
open Os_model

type t = {
  sim : Sim.t;
  node : int;
  name : string;
  cpu : Cpu.t;
  membus : Bus.t;
  sched : Sched.t;
  syscall : Syscall.t;
  driver : Driver.t;
  kmem : Kmem.t;
}

let mac t = Hw.Mac.of_node t.node

let make ~sim ~node ~cpu ~membus ~sched ~syscall ~driver ~kmem =
  let name = "node" ^ string_of_int node in
  { sim; node; name; cpu; membus; sched; syscall; driver; kmem }
