let register sim ~scope getters obj =
  let read name =
    Option.map (fun get -> get obj) (List.assoc_opt name getters)
  in
  let objects = Sim.counters sim in
  objects := (scope, read) :: !objects

(* ["base#k"] names the k-th object registered under [base]. *)
let split_scope s =
  match String.rindex_opt s '#' with
  | Some i -> (
      let suffix = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt suffix with
      | Some k when k >= 1 -> (String.sub s 0 i, k)
      | _ -> (s, 0))
  | None -> (s, 0)

let total sim ?scope name =
  (* (scope, value) of every object counting [name], oldest first *)
  let entries =
    List.fold_left
      (fun acc (s, read) ->
        match read name with Some v -> (s, v) :: acc | None -> acc)
      [] !(Sim.counters sim)
  in
  match (entries, scope) with
  | [], _ -> invalid_arg ("Counters.total: no counter named " ^ name)
  | _, None -> List.fold_left (fun acc (_, v) -> acc + v) 0 entries
  | _, Some s -> (
      let base, k = split_scope s in
      match List.nth_opt (List.filter (fun (b, _) -> b = base) entries) k with
      | Some (_, v) -> v
      | None -> 0)
