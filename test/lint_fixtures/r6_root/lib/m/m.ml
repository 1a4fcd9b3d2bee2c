(* clic-lint fixture (see m.mli): the definition's own use below does not
   count as a reference; only other files' do. *)

let unused x = x + 1
let _ = unused 0
