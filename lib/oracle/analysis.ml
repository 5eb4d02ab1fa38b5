(** The analyses behind the simulated LLM.

    The oracle receives source *text* in its prompt (like a real LLM), so
    everything here starts by re-parsing the snippets into a local
    definition index — whatever got truncated away by the context window
    is genuinely invisible. The kernel-wide index passed in as
    [knowledge] models pre-training exposure to kernel headers: it is
    used only for constant-value lookups (macro names and values), never
    to discover code the prompt did not include. *)

type local = {
  index : Csrc.Index.t;  (** parsed from the prompt snippets *)
  knowledge : Csrc.Index.t;  (** header knowledge: names and constants *)
}

let parse_snippets ~(knowledge : Csrc.Index.t) (snips : Prompt.snippet list) : local =
  let sid = ref 1_000_000 in
  let files =
    List.filter_map
      (fun s ->
        try Some (Csrc.Parser.parse_file ~file:("<prompt:" ^ s.Prompt.snip_name ^ ">") ~sid s.Prompt.snip_text)
        with Csrc.Parser.Error _ | Csrc.Lexer.Error _ -> None)
      snips
  in
  { index = Csrc.Index.of_files files; knowledge }

(* ------------------------------------------------------------------ *)
(* Usage-line encoding (carried between iterative steps)               *)
(* ------------------------------------------------------------------ *)

type carried = {
  ca_mode : Prompt.cmd_mode;
  ca_magic : int64 option;
  ca_ambient_arg : string option;  (** struct already copied in by the caller *)
}

let default_carried = { ca_mode = Prompt.Cmd_raw; ca_magic = None; ca_ambient_arg = None }

let encode_carried ~fn (c : carried) : string =
  Printf.sprintf "FUNC: %s; MODE: %s; MAGIC: %s; ARG: %s" fn
    (match c.ca_mode with Prompt.Cmd_raw -> "raw" | Prompt.Cmd_ioc_nr -> "nr")
    (match c.ca_magic with Some m -> Int64.to_string m | None -> "-")
    (match c.ca_ambient_arg with Some a -> a | None -> "-")

let decode_carried (lines : string list) ~(fn : string) : carried =
  let prefix = "FUNC: " ^ fn ^ ";" in
  match List.find_opt (fun l -> String.length l >= String.length prefix
                                && String.sub l 0 (String.length prefix) = prefix) lines with
  | None -> default_carried
  | Some line ->
      let part key =
        let rec find = function
          | [] -> None
          | seg :: rest ->
              let seg = String.trim seg in
              let keyp = key ^ ": " in
              if String.length seg > String.length keyp
                 && String.sub seg 0 (String.length keyp) = keyp
              then Some (String.sub seg (String.length keyp) (String.length seg - String.length keyp))
              else find rest
        in
        find (String.split_on_char ';' line)
      in
      {
        ca_mode = (match part "MODE" with Some "nr" -> Prompt.Cmd_ioc_nr | _ -> Prompt.Cmd_raw);
        ca_magic =
          (match part "MAGIC" with
          | Some "-" | None -> None
          | Some s -> Int64.of_string_opt s);
        ca_ambient_arg = (match part "ARG" with Some "-" | None -> None | Some a -> Some a);
      }

(* ------------------------------------------------------------------ *)
(* Handler-body walking                                                *)
(* ------------------------------------------------------------------ *)

(** Name of the command parameter of a generic-syscall handler. *)
let cmd_param (fd : Csrc.Ast.func_def) : string option =
  let candidates = [ "cmd"; "command"; "ioctl"; "iocmd"; "cmd_in"; "optname"; "nr" ] in
  List.find_map
    (fun (_, name) -> if List.mem name candidates then Some name else None)
    fd.fun_params

(** Name of the userspace argument parameter. *)
let arg_param (fd : Csrc.Ast.func_def) : string option =
  let candidates = [ "arg"; "parg"; "u"; "user"; "ioarg"; "optval"; "parm" ] in
  List.find_map
    (fun (_, name) -> if List.mem name candidates then Some name else None)
    fd.fun_params

(** Does [e] mention identifier [name]? *)
let mentions name e =
  Csrc.Ast.fold_expr (fun acc e -> acc || e = Csrc.Ast.Ident name) false e

type body_facts = {
  bf_mode : Prompt.cmd_mode;  (** was the command rewritten with _IOC_NR? *)
  bf_alias : string option;  (** local var holding the (rewritten) command *)
  bf_magic : int64 option;  (** _IOC_TYPE check value *)
  bf_cases : (Csrc.Ast.expr * Csrc.Ast.block) list;  (** label -> case body *)
  bf_eq_checks : (Csrc.Ast.expr * Csrc.Ast.block) list;  (** if (cmd == X) bodies *)
  bf_delegate : (string * Csrc.Ast.expr list) option;
      (** call forwarding the command to another function *)
  bf_delegate_nr : bool;
      (** the forwarded command is rewritten with [_IOC_NR] at the call *)
  bf_ambient_arg : string option;  (** struct copied from user before dispatch *)
}

(** Walk a handler function body and gather dispatch facts. *)
let walk_handler (local : local) (fd : Csrc.Ast.func_def) : body_facts =
  let cmd = cmd_param fd in
  let is_cmd_expr alias e =
    match (e, cmd, alias) with
    | Csrc.Ast.Ident n, Some c, _ when n = c -> true
    | Csrc.Ast.Ident n, _, Some a when n = a -> true
    | Csrc.Ast.Call ("_IOC_NR", [ inner ]), Some c, _ -> mentions c inner
    | _ -> false
  in
  let stmts = Csrc.Ast.stmts_of_body fd.fun_body in
  (* pass 1 over *pre-dispatch* statements only (the function's direct
     statement list): a copy_from_user inside one case must not become
     the ambient argument type of every other case *)
  let top_stmts = fd.fun_body in
  let alias = ref None in
  let mode = ref Prompt.Cmd_raw in
  let magic = ref None in
  let ambient = ref None in
  List.iter
    (fun (s : Csrc.Ast.stmt) ->
      List.iter
        (fun e ->
          match e with
          | Csrc.Ast.Assign (Csrc.Ast.Ident v, Csrc.Ast.Call ("_IOC_NR", [ inner ])) -> (
              match cmd with
              | Some c when mentions c inner ->
                  alias := Some v;
                  mode := Prompt.Cmd_ioc_nr
              | _ -> ())
          | Csrc.Ast.Binop
              ((Csrc.Ast.Ne | Csrc.Ast.Eq), Csrc.Ast.Call ("_IOC_TYPE", [ inner ]), rhs) -> (
              match cmd with
              | Some c when mentions c inner ->
                  magic := Csrc.Index.eval_opt local.knowledge rhs
              | _ -> ())
          | Csrc.Ast.Call ("copy_from_user", dst :: _) -> (
              (* &local_struct gives the ambient argument type *)
              let rec local_of = function
                | Csrc.Ast.Addr_of (Csrc.Ast.Ident v) -> Some v
                | Csrc.Ast.Cast (_, e) -> local_of e
                | _ -> None
              in
              match local_of dst with
              | Some v -> (
                  (* find v's declaration *)
                  let ty =
                    List.find_map
                      (fun (s : Csrc.Ast.stmt) ->
                        match s.node with
                        | Csrc.Ast.Decl_stmt (Csrc.Ast.Struct_ref sn, v', _) when v' = v -> Some sn
                        | _ -> None)
                      stmts
                  in
                  match ty with Some sn -> ambient := Some sn | None -> ())
              | None -> ())
          | _ -> ())
        (Csrc.Ast.exprs_of_stmt s))
    top_stmts;
  (* pass 2: switches, eq-checks, delegation *)
  let cases = ref [] in
  let eq_checks = ref [] in
  let delegate = ref None in
  List.iter
    (fun (s : Csrc.Ast.stmt) ->
      match s.Csrc.Ast.node with
      | Csrc.Ast.Switch (scrut, case_list) when is_cmd_expr !alias scrut ->
          List.iter
            (fun (c : Csrc.Ast.switch_case) ->
              List.iter
                (function
                  | Csrc.Ast.Case label -> cases := (label, c.case_body) :: !cases
                  | Csrc.Ast.Default -> ())
                c.labels)
            case_list
      | Csrc.Ast.If (Csrc.Ast.Binop (Csrc.Ast.Eq, lhs, rhs), body, _)
        when is_cmd_expr !alias lhs ->
          eq_checks := (rhs, body) :: !eq_checks
      | Csrc.Ast.If (Csrc.Ast.Binop (Csrc.Ast.Eq, lhs, rhs), body, _)
        when is_cmd_expr !alias rhs ->
          eq_checks := (lhs, body) :: !eq_checks
      | _ -> ())
    stmts;
  (* delegation: a call passing the command along, when no switch exists *)
  let delegate_nr = ref false in
  if !cases = [] then begin
    let check_call e =
      match e with
      | Csrc.Ast.Call (callee, args)
        when (not (Corpus.Kapi.is_builtin callee)) && callee <> fd.fun_name ->
          let passes_cmd =
            List.exists
              (fun a ->
                match (cmd, !alias) with
                | Some c, _ when mentions c a -> true
                | _, Some al when mentions al a -> true
                | _ -> false)
              args
          in
          if passes_cmd then begin
            delegate := Some (callee, args);
            (* _IOC_NR applied right at the call site *)
            delegate_nr :=
              List.exists
                (fun a ->
                  match a with
                  | Csrc.Ast.Call ("_IOC_NR", _) -> true
                  | _ -> false)
                args
          end
      | _ -> ()
    in
    List.iter
      (fun s ->
        List.iter (fun e -> Csrc.Ast.fold_expr (fun () e -> check_call e) () e)
          (Csrc.Ast.exprs_of_stmt s))
      stmts
  end;
  {
    bf_mode = !mode;
    bf_alias = !alias;
    bf_magic = !magic;
    bf_cases = List.rev !cases;
    bf_eq_checks = List.rev !eq_checks;
    bf_delegate = !delegate;
    bf_delegate_nr = !delegate_nr;
    bf_ambient_arg = !ambient;
  }

(* ------------------------------------------------------------------ *)
(* Command-value resolution                                            *)
(* ------------------------------------------------------------------ *)

(** All kernel macros that evaluate to an integer constant. The memo
    lives {e inside} the index ({!Csrc.Index.all_macro_values}), one per
    index: the previous global single-slot cache was mutated by pool
    worker domains concurrently (a data race under [--jobs] > 1) and
    thrashed when two knowledge indexes alternated. *)
let all_macro_values (knowledge : Csrc.Index.t) : (string * int64) list =
  Csrc.Index.all_macro_values knowledge

let ioc_type v = Int64.logand (Int64.shift_right_logical v 8) 0xffL

(** Map a rewritten (_IOC_NR) value back to the user-visible macro: find
    the kernel command macro whose nr (and magic, when known) match,
    preferring macros the prompt itself defines (the module's own
    headers) over global header knowledge. The candidates come from the
    knowledge index's per-nr groups, so only macros with this nr are
    scanned. *)
let resolve_nr_macro (local : local) ~(magic : int64 option) (nr : int64) : string option =
  let group =
    if Int64.compare nr 0L >= 0 && Int64.compare nr 0xffL <= 0 then
      (Csrc.Index.ioc_macros_by_nr local.knowledge).(Int64.to_int nr)
    else []
  in
  let candidates =
    match magic with
    | Some m -> List.filter (fun (_, v) -> Int64.equal (ioc_type v) m) group
    | None -> group
  in
  let in_prompt (name, _) = Csrc.Index.find_macro local.index name <> None in
  match List.find_opt in_prompt candidates with
  | Some (name, _) -> Some name
  | None -> ( match candidates with (name, _) :: _ -> Some name | [] -> None)

(** Resolve a raw case-label expression to a command-macro name. *)
let resolve_raw_label (local : local) (label : Csrc.Ast.expr) : string option =
  match label with
  | Csrc.Ast.Ident name -> Some name
  | _ -> (
      match Csrc.Index.eval_opt local.knowledge label with
      | None -> None
      | Some v -> (
          match List.find_opt (fun (_, mv) -> Int64.equal mv v) (all_macro_values local.knowledge) with
          | Some (name, _) -> Some name
          | None -> None))

(* ------------------------------------------------------------------ *)
(* Case-body argument typing                                           *)
(* ------------------------------------------------------------------ *)

type arg_info = {
  ai_type : string option;  (** struct the case copies to/from user space *)
  ai_dir : Syzlang.Ast.dir option;
  ai_copy_size : int option;  (** byte size of a scalar copy, if any *)
  ai_values : Syzlang.Ast.const_ref list;
      (** constants the scalar is compared against — the semantically
          valid values of the argument *)
}

(** Which struct the case body copies from/to user space, looking through
    helpers defined in the prompt (depth-limited). *)
let rec case_arg_type (local : local) ~(depth : int) (body : Csrc.Ast.block)
    ~(locals : (string * string) list) : arg_info =
  if depth > 3 then { ai_type = None; ai_dir = None; ai_copy_size = None; ai_values = [] }
  else begin
    let arg_ty = ref None in
    let saw_from = ref false in
    let saw_to = ref false in
    let copy_size = ref None in
    let scalar_var = ref None in
    let values = ref [] in
    let rec lv = function
      | Csrc.Ast.Addr_of (Csrc.Ast.Ident v) -> Some v
      | Csrc.Ast.Cast (_, e) -> lv e
      | _ -> None
    in
    let note_copy dst size_expr =
      (match lv dst with
      | Some v -> (
          match List.assoc_opt v locals with
          | Some sn -> if !arg_ty = None then arg_ty := Some sn
          | None -> if !scalar_var = None then scalar_var := Some v)
      | None -> ());
      if !arg_ty = None && !copy_size = None then
        match Csrc.Index.eval_opt local.knowledge size_expr with
        | Some s when Int64.compare s 0L > 0 && Int64.compare s 8L <= 0 ->
            copy_size := Some (Int64.to_int s)
        | _ -> ()
    in
    let note_value rhs =
      match rhs with
      | Csrc.Ast.Ident n when Csrc.Index.eval_macro local.knowledge n <> None ->
          if not (List.exists (fun c -> c.Syzlang.Ast.const_name = Some n) !values) then
            values := Syzlang.Ast.const_of_name n :: !values
      | Csrc.Ast.Const_int v ->
          if not (List.exists (fun c -> c.Syzlang.Ast.const_value = Some v) !values) then
            values := Syzlang.Ast.const_of_value v :: !values
      | _ -> ()
    in
    let visit e =
      match e with
      | Csrc.Ast.Call ("copy_from_user", dst :: rest) ->
          saw_from := true;
          note_copy dst
            (match rest with [ _; size ] -> size | _ -> Csrc.Ast.Const_int 0L)
      | Csrc.Ast.Call ("copy_to_user", _ :: src :: rest) ->
          saw_to := true;
          note_copy src
            (match rest with [ size ] -> size | _ -> Csrc.Ast.Const_int 0L)
      | Csrc.Ast.Call ("copy_to_user", _) -> saw_to := true
      | Csrc.Ast.Binop ((Csrc.Ast.Eq | Csrc.Ast.Ne), Csrc.Ast.Ident v, rhs)
        when Some v = !scalar_var ->
          note_value rhs
      | Csrc.Ast.Binop ((Csrc.Ast.Eq | Csrc.Ast.Ne), lhs, Csrc.Ast.Ident v)
        when Some v = !scalar_var ->
          note_value lhs
      | _ -> ()
    in
    let rec visit_block b =
      List.iter
        (fun (s : Csrc.Ast.stmt) ->
          List.iter (fun e -> Csrc.Ast.fold_expr (fun () e -> visit e) () e)
            (Csrc.Ast.exprs_of_stmt s);
          match s.node with
          | Csrc.Ast.If (_, t, f) ->
              visit_block t;
              Option.iter visit_block f
          | Csrc.Ast.Switch (_, cs) -> List.iter (fun c -> visit_block c.Csrc.Ast.case_body) cs
          | Csrc.Ast.While (_, b) | Csrc.Ast.Do_while (b, _) | Csrc.Ast.For (_, _, _, b)
          | Csrc.Ast.Block b ->
              visit_block b
          | _ -> ())
        b
    in
    visit_block body;
    (* chase helper calls visible in the prompt *)
    if !arg_ty = None then begin
      let callees = Csrc.Ast.called_functions body in
      List.iter
        (fun callee ->
          if !arg_ty = None && not (Corpus.Kapi.is_builtin callee) then
            match Csrc.Index.find_function local.index callee with
            | Some fd when fd.fun_body <> [] ->
                let callee_locals =
                  List.filter_map
                    (fun (s : Csrc.Ast.stmt) ->
                      match s.node with
                      | Csrc.Ast.Decl_stmt (Csrc.Ast.Struct_ref sn, v, _) -> Some (v, sn)
                      | _ -> None)
                    (Csrc.Ast.stmts_of_body fd.fun_body)
                in
                let param_structs =
                  List.filter_map
                    (function
                      | Csrc.Ast.Ptr (Csrc.Ast.Struct_ref sn), _ -> Some sn
                      | _ -> None)
                    fd.fun_params
                in
                let inner =
                  case_arg_type local ~depth:(depth + 1) fd.fun_body ~locals:callee_locals
                in
                (match inner.ai_type with
                | Some sn -> arg_ty := Some sn
                | None -> (
                    (* a helper taking exactly one interesting struct
                       pointer usually received the already-copied
                       argument of that type *)
                    let interesting =
                      List.filter
                        (fun sn ->
                          not (List.mem sn [ "file"; "socket"; "inode"; "msghdr"; "sockaddr" ]))
                        param_structs
                    in
                    match interesting with [ sn ] -> arg_ty := Some sn | _ -> ()))
            | _ -> ())
        callees
    end;
    let dir =
      match (!saw_from, !saw_to) with
      | true, true -> Some Syzlang.Ast.Inout
      | true, false -> Some Syzlang.Ast.In
      | false, true -> Some Syzlang.Ast.Out
      | false, false -> None
    in
    { ai_type = !arg_ty; ai_dir = dir; ai_copy_size = !copy_size; ai_values = List.rev !values }
  end

(** Is this a character/byte element type? *)
let parse_is_char (local : local) (ty : Csrc.Ast.ctype) : bool =
  match ty with
  | Csrc.Ast.Int { width = 8; _ } -> true
  | Csrc.Ast.Named ("u8" | "__u8" | "s8" | "__s8") -> true
  | _ -> Csrc.Index.sizeof local.knowledge ty = 1

(** Locals declared at the top of a handler function: var -> struct. *)
let struct_locals (fd : Csrc.Ast.func_def) : (string * string) list =
  List.filter_map
    (fun (s : Csrc.Ast.stmt) ->
      match s.Csrc.Ast.node with
      | Csrc.Ast.Decl_stmt (Csrc.Ast.Struct_ref sn, v, _) -> Some (v, sn)
      | _ -> None)
    (Csrc.Ast.stmts_of_body fd.fun_body)
