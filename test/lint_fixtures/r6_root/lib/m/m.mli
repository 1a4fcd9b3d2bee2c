(** clic-lint fixture: a one-module repository root whose interface
    exports a value no other file references.  [clic-lint --all --root]
    on this directory must report exactly one R6 finding.  Parsed, never
    compiled. *)

val unused : int -> int
