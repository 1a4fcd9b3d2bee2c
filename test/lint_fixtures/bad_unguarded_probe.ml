(* clic-lint fixture: R4 probe-guard discipline.

   A [Probe.emit] with no dominating [!Probe.on] check.  This file is
   parsed, never compiled. *)

let note host = Probe.emit (Probe.Irq { host })
