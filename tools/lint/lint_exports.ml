(* R6 unreferenced export: every value a [lib/**/*.mli] exports must be
   referenced by some other [.ml] file of the repository (libraries,
   executables, benchmarks, tools, examples and tests alike; a test that
   reads a value is an assertion and keeps it alive).

   References are resolved from the parse tree alone, without types:

   - a path ending in [M.v] refers to value [v] of module [M], where [M]
     may be a file module ([lib/engine/sim.mli] is [Sim]) or a submodule
     declared in an interface ([Stats.Summary] is [Summary]), and may
     reach [M] through a file-level alias ([module S = Engine.Sim]);
   - a bare [v] refers to [v] of every module the file opens ([open M],
     [let open M in], [M.( ... )]).

   Both readings over-approximate (a local [v] shadowing an opened one
   counts as a use), so R6 can miss a dead export but does not report a
   live one. *)

open Parsetree

let referrer_subdirs =
  [ "lib"; "bin"; "bench"; "perfbench"; "tools"; "examples"; "test" ]

(* Lint fixtures are inputs to the linter, not users of the library. *)
let skipped_subdirs = [ "test/lint_fixtures" ]

type export = {
  e_module : string;  (* the innermost module: the key references use *)
  e_name : string;
  e_path : string;  (* as reported: [Stats.Summary.mean] *)
  e_loc : Location.t;
}

(* The values a signature exports, submodule signatures included. *)
let rec sig_exports ~modname ~prefix items =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value vd ->
          [
            {
              e_module = modname;
              e_name = vd.pval_name.txt;
              e_path = prefix ^ "." ^ vd.pval_name.txt;
              e_loc = vd.pval_loc;
            };
          ]
      | Psig_module
          {
            pmd_name = { txt = Some sub; _ };
            pmd_type = { pmty_desc = Pmty_signature items; _ };
            _;
          } ->
          sig_exports ~modname:sub ~prefix:(prefix ^ "." ^ sub) items
      | _ -> [])
    items

let module_of_file path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

(* What one implementation file mentions: ["M.v"] keys for qualified
   paths and bare value names, plus the modules it opens. *)
type refs = {
  qualified : (string, unit) Hashtbl.t;
  bare : (string, unit) Hashtbl.t;
  opened : (string, unit) Hashtbl.t;
}

let file_refs structure =
  let paths = ref [] and opens = ref [] and aliases = Hashtbl.create 8 in
  let flat lid = Longident.flatten lid in
  let note_alias name (me : module_expr) =
    match (name, me.pmod_desc) with
    | Some n, Pmod_ident { txt; _ } -> Hashtbl.replace aliases n (flat txt)
    | _ -> ()
  in
  let note_open (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> opens := flat txt :: !opens
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> paths := flat txt :: !paths
          | Pexp_open (od, _) -> note_open od.popen_expr
          | Pexp_letmodule ({ txt; _ }, me, _) -> note_alias txt me
          | _ -> ());
          super.expr it e);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_open od -> note_open od.popen_expr
          | Pstr_module mb -> note_alias mb.pmb_name.txt mb.pmb_expr
          | _ -> ());
          super.structure_item it si);
    }
  in
  it.structure it structure;
  (* the module a path component names, seen through file-level aliases *)
  let resolve m =
    match Hashtbl.find_opt aliases m with
    | Some target -> List.nth target (List.length target - 1)
    | None -> m
  in
  let r =
    {
      qualified = Hashtbl.create 64;
      bare = Hashtbl.create 64;
      opened = Hashtbl.create 8;
    }
  in
  List.iter
    (fun p ->
      match List.rev p with
      | [ v ] -> Hashtbl.replace r.bare v ()
      | v :: m :: _ -> Hashtbl.replace r.qualified (resolve m ^ "." ^ v) ()
      | [] -> ())
    !paths;
  List.iter
    (fun p ->
      match List.rev p with
      | m :: _ -> Hashtbl.replace r.opened (resolve m) ()
      | [] -> ())
    !opens;
  r

let references r e =
  Hashtbl.mem r.qualified (e.e_module ^ "." ^ e.e_name)
  || (Hashtbl.mem r.bare e.e_name && Hashtbl.mem r.opened e.e_module)

let is_skipped ~root file =
  List.exists
    (fun d ->
      let dir = Filename.concat root d ^ Filename.dir_sep in
      String.length file >= String.length dir
      && String.sub file 0 (String.length dir) = dir)
    skipped_subdirs

let parse parser file =
  match Lint_module.parse_source parser file with
  | ast -> Ok ast
  | exception Lint_module.Parse_failure d -> Error d

(* R6 over [root]: one finding per exported value that no other [.ml] in
   the referrer set mentions.  A file that does not parse yields its
   parse diagnostic instead. *)
let unreferenced ~root ~files_under =
  let referrers, parse_errors =
    referrer_subdirs
    |> List.concat_map (fun d ->
           files_under ~suffix:".ml" (Filename.concat root d))
    |> List.filter (fun f -> not (is_skipped ~root f))
    |> List.partition_map (fun f ->
           match parse Parse.implementation f with
           | Ok s -> Left (f, file_refs s)
           | Error d -> Right d)
  in
  let used e ~own =
    List.exists (fun (f, r) -> f <> own && references r e) referrers
  in
  let finding e =
    Lint_diag.make Lint_diag.R6
      (Lint_diag.pos_of_location e.e_loc)
      (Printf.sprintf
         "exported value %s is referenced by no other .ml under %s: remove \
          it from the interface"
         e.e_path
         (String.concat " " (List.map (fun d -> d ^ "/") referrer_subdirs)))
  in
  let dead =
    files_under ~suffix:".mli" (Filename.concat root "lib")
    |> List.concat_map (fun mli ->
           match parse Parse.interface mli with
           | Error d -> [ d ]
           | Ok sg ->
               let modname = module_of_file mli in
               let own = Filename.remove_extension mli ^ ".ml" in
               sig_exports ~modname ~prefix:modname sg
               |> List.filter_map (fun e ->
                      if used e ~own then None else Some (finding e)))
  in
  parse_errors @ dead
