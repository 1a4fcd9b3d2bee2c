open Engine

(* The join: runs once both legs are done, in the event that finished the
   later one. *)
let[@clic.atomic] finish pci start k () =
  let finish = Sim.now (Bus.sim pci) in
  if finish > start && !Probe.on then
    Probe.emit
      (Probe.Span
         { host = Bus.name pci; track = Probe.Dma; label = "dma"; start;
           finish });
  k ()

let transfer ~pci ~membus bytes k =
  if bytes < 0 then invalid_arg "Dma.transfer: negative size"
  else if bytes = 0 then k ()
  else begin
    let sim = Bus.sim pci in
    let start = Sim.now sim in
    let mem_done = Ivar.create () in
    (* The memory-bus leg starts in its own zero-delay event, so the PCI
       leg claims (or queues for) its bus first. *)
    Sim.post sim ~after:0 (fun () ->
        Bus.transfer_then membus bytes (fun () -> Ivar.fill mem_done ()));
    Bus.transfer_then pci bytes (fun () ->
        Ivar.on_fill mem_done (finish pci start k))
  end
