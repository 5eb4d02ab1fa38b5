(** Combining specification suites.

    The paper evaluates combined suites such as "Syzkaller + KernelGPT":
    the union of the hand-written descriptions and the generated ones.
    Merging renames nothing. Resources, syscall variants, types and flag
    sets are each deduplicated by name alone: the first occurrence in
    input order wins (Syzkaller's own rule for duplicate identifiers),
    even when a later definition with the same name differs. *)

let dedup_by key xs =
  let seen = Hashtbl.create (List.length xs) in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.replace seen k ();
        true))
    xs

(** Merge a list of specs into one suite named [name]: each item kind
    is concatenated in input order and deduplicated once, so the cost is
    linear in the suite. A lone spec is only renamed: it keeps its own
    duplicates, if it has any. *)
let merge_all ~name (specs : Ast.spec list) : Ast.spec =
  match specs with
  | [ s ] -> { s with Ast.spec_name = name }
  | _ ->
      let union items key = dedup_by key (List.concat_map items specs) in
      {
        Ast.spec_name = name;
        resources = union (fun s -> s.Ast.resources) (fun r -> r.Ast.res_name);
        syscalls = union (fun s -> s.Ast.syscalls) Ast.syscall_full_name;
        types = union (fun s -> s.Ast.types) (fun c -> c.Ast.comp_name);
        flag_sets = union (fun s -> s.Ast.flag_sets) (fun f -> f.Ast.set_name);
      }

(** Syscalls present in [next] but absent from [base] — the paper's
    "new syscalls" metric (Table 2). *)
let new_syscalls ~(base : Ast.spec) (next : Ast.spec) : Ast.syscall list =
  let base_names = List.map Ast.syscall_full_name base.Ast.syscalls in
  List.filter
    (fun c -> not (List.mem (Ast.syscall_full_name c) base_names))
    next.Ast.syscalls

(** Types present in [next] but absent from [base] (Table 2's "#Types"). *)
let new_types ~(base : Ast.spec) (next : Ast.spec) : Ast.comp_def list =
  let base_names = List.map (fun c -> c.Ast.comp_name) base.Ast.types in
  List.filter (fun c -> not (List.mem c.Ast.comp_name base_names)) next.Ast.types
