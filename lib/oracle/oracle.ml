(** The simulated analysis LLM.

    [query] takes a structured prompt, applies the profile's context
    window (whole trailing snippets are dropped, as a real truncation
    would hide them), runs the corresponding analysis, and injects the
    profile's seeded hallucinations. All statistics (queries, prompt
    tokens) are recorded for the cost accounting in the report. *)

type t = {
  profile : Profile.t;
  knowledge : Csrc.Index.t;  (** pre-training stand-in: kernel header constants *)
  mutable queries : int;
  mutable prompt_tokens : int;
  mutable truncations : int;
  mutable injected_errors : int;
}

let create ?(profile = Profile.gpt4) ~(knowledge : Csrc.Index.t) () =
  { profile; knowledge; queries = 0; prompt_tokens = 0; truncations = 0; injected_errors = 0 }

(** Pure truncation: the snippets of [p] that fit [profile]'s context
    window, plus the number of trailing snippets dropped. The window is
    charged for everything {!Prompt.tokens} counts — the instruction
    template ({!Prompt.header_tokens}) and the carried-over usage lines,
    not just the snippets — so a long usage list from prior iterations
    forces snippet truncation instead of silently escaping the budget.
    Pure so the answer cache can derive the post-truncation prompt for
    its key without touching any accounting. *)
let truncate (profile : Profile.t) (p : Prompt.t) : Prompt.t * int =
  let budget = profile.Profile.context_tokens in
  let fixed =
    Prompt.header_tokens
    + List.fold_left (fun acc u -> acc + Prompt.usage_tokens u) 0 p.usage
  in
  let rec keep acc used = function
    | [] -> (List.rev acc, 0)
    | s :: rest ->
        let cost = Prompt.snippet_tokens s in
        (* the overflowing snippet and everything after it are dropped;
           count every one, so the metric reports snippets lost, not
           prompts touched *)
        if used + cost > budget then (List.rev acc, 1 + List.length rest)
        else keep (s :: acc) (used + cost) rest
  in
  let snippets, dropped = keep [] fixed p.snippets in
  ({ p with snippets }, dropped)

(** Drop trailing snippets until the prompt fits the context window. *)
let fit_context (o : t) (p : Prompt.t) : Prompt.t =
  let p, dropped = truncate o.profile p in
  if dropped > 0 then begin
    o.truncations <- o.truncations + dropped;
    Obs.Metrics.incr ~by:dropped "oracle.truncations"
  end;
  p

(* ------------------------------------------------------------------ *)
(* Error injection                                                     *)
(* ------------------------------------------------------------------ *)

(** Corrupt one constant name of the response, deterministically per
    (profile, handler): the slip validation later catches. *)
let maybe_corrupt_idents (o : t) ~(subject : string) (idents : Prompt.ident list) :
    Prompt.ident list =
  if idents = [] then idents
  else if not (Profile.coin o.profile ~subject ~salt:"ident-err" ~pct:o.profile.error_rate_pct)
  then idents
  else begin
    o.injected_errors <- o.injected_errors + 1;
    Obs.Metrics.incr "oracle.injected_errors";
    let victim = Hashtbl.hash (o.profile.name, subject, "victim") mod List.length idents in
    List.mapi
      (fun i (id : Prompt.ident) ->
        if i = victim then { id with id_cmd = id.id_cmd ^ "_V2" } else id)
      idents
  end

let maybe_corrupt_type (o : t) ~(subject : string) (cd : Syzlang.Ast.comp_def) :
    Syzlang.Ast.comp_def =
  if not (Profile.coin o.profile ~subject ~salt:"type-err" ~pct:(o.profile.error_rate_pct / 2))
  then cd
  else begin
    o.injected_errors <- o.injected_errors + 1;
    Obs.Metrics.incr "oracle.injected_errors";
    (* reference a stale nested type name *)
    let fields =
      List.map
        (fun (f : Syzlang.Ast.field) ->
          match f.ftyp with
          | Syzlang.Ast.Struct_ref n -> { f with ftyp = Syzlang.Ast.Struct_ref (n ^ "_legacy") }
          | Syzlang.Ast.Ptr (d, Syzlang.Ast.Struct_ref n) ->
              { f with ftyp = Syzlang.Ast.Ptr (d, Syzlang.Ast.Struct_ref (n ^ "_legacy")) }
          | _ -> f)
        cd.comp_fields
    in
    { cd with comp_fields = fields }
  end

(* ------------------------------------------------------------------ *)
(* Task implementations                                                *)
(* ------------------------------------------------------------------ *)

(** Identifier deduction for one handler function. *)
let run_identifier (o : t) (local : Analysis.local) ~(handler_fn : string)
    ~(usage : string list) : Prompt.response =
  match Csrc.Index.find_function local.index handler_fn with
  | None | Some { fun_body = []; _ } -> Prompt.empty_response
  | Some fd ->
      let carried = Analysis.decode_carried usage ~fn:handler_fn in
      let facts = Analysis.walk_handler local fd in
      let mode =
        match (carried.ca_mode, facts.bf_mode) with
        | Prompt.Cmd_ioc_nr, _ | _, Prompt.Cmd_ioc_nr -> Prompt.Cmd_ioc_nr
        | _ -> Prompt.Cmd_raw
      in
      let magic = match facts.bf_magic with Some m -> Some m | None -> carried.ca_magic in
      let ambient =
        match facts.bf_ambient_arg with Some a -> Some a | None -> carried.ca_ambient_arg
      in
      let handler_locals = Analysis.struct_locals fd in
      let resolve_label label =
        match mode with
        | Prompt.Cmd_raw -> Analysis.resolve_raw_label local label
        | Prompt.Cmd_ioc_nr ->
            if not o.profile.resolves_ioc_nr then None
            else
              let nr =
                match label with
                | Csrc.Ast.Const_int v -> Some v
                | e -> Csrc.Index.eval_opt local.knowledge e
              in
              Option.bind nr (Analysis.resolve_nr_macro local ~magic)
      in
      let ident_of (label, body) =
        match resolve_label label with
        | None -> None
        | Some cmd_macro ->
            let info = Analysis.case_arg_type local ~depth:0 body ~locals:handler_locals in
            let arg_ty = match info.ai_type with Some t -> Some t | None -> ambient in
            let dir = Option.value info.ai_dir ~default:Syzlang.Ast.In in
            (* scalar commands take the value in the argument register;
               pointer-to-scalar commands copy a small integer *)
            let copy_size = if arg_ty = None then info.ai_copy_size else None in
            let scalar = arg_ty = None && copy_size = None in
            Some
              {
                Prompt.id_cmd = cmd_macro;
                id_arg_type = arg_ty;
                id_arg_dir = dir;
                id_scalar_arg = scalar;
                id_copy_size = copy_size;
                id_values = (if arg_ty = None then info.ai_values else []);
              }
      in
      let labels = facts.bf_cases @ facts.bf_eq_checks in
      let idents = List.filter_map ident_of labels in
      (* unknown functions: delegation targets and helpers the labels
         dispatch to that the prompt does not define *)
      let unknown = ref [] in
      let add_unknown ?(nr = false) callee =
        if
          o.profile.follows_delegation
          && (not (Corpus.Kapi.is_builtin callee))
          && Csrc.Index.find_function local.index callee = None
          && not (List.exists (fun u -> u.Prompt.u_name = callee) !unknown)
        then
          unknown :=
            {
              Prompt.u_name = callee;
              u_usage =
                Analysis.encode_carried ~fn:callee
                  {
                    ca_mode = (if nr then Prompt.Cmd_ioc_nr else mode);
                    ca_magic = magic;
                    ca_ambient_arg = ambient;
                  };
            }
            :: !unknown
      in
      (match facts.bf_delegate with
      | Some (callee, _) -> add_unknown ~nr:facts.bf_delegate_nr callee
      | None -> ());
      (* helper called from a case body that the prompt lacks: chase it if
         we could not type the argument *)
      List.iter
        (fun (label, body) ->
          match resolve_label label with
          | None when mode = Prompt.Cmd_ioc_nr && not o.profile.resolves_ioc_nr -> ()
          | _ ->
              let info = Analysis.case_arg_type local ~depth:0 body ~locals:handler_locals in
              if info.ai_type = None && info.ai_copy_size = None && ambient = None then
                List.iter
                  (fun callee ->
                    if Csrc.Index.find_function local.index callee = None then add_unknown callee)
                  (Csrc.Ast.called_functions body))
        labels;
      let idents = maybe_corrupt_idents o ~subject:handler_fn idents in
      { Prompt.empty_response with r_idents = idents; r_unknown = List.rev !unknown }

(* field classification for type recovery *)

(* does [s] contain [sub]? compared in place, with no substring copied *)
let has sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec from i j = j >= lsub || (Char.equal s.[i + j] sub.[j] && from i (j + 1)) in
  let rec scan i = i + lsub <= ls && (from i 0 || scan (i + 1)) in
  scan 0

let name_like n =
  let lowered = String.lowercase_ascii n in
  has "name" lowered || has "uuid" lowered || has "path" lowered || has "label" lowered
  || has "id_str" lowered

let count_like n comment =
  let lowered = String.lowercase_ascii n in
  has "count" lowered || has "nmsgs" lowered || has "nregions" lowered
  || has "num" lowered || has "nent" lowered || has "nfetch" lowered
  || (match comment with
     | Some c ->
         let lc = String.lowercase_ascii c in
         has "number of" lc
     | None -> false)

let width_of_ctype (local : Analysis.local) (ty : Csrc.Ast.ctype) : Syzlang.Ast.int_width =
  match Csrc.Index.sizeof local.knowledge ty with
  | 1 -> Syzlang.Ast.I8
  | 2 -> Syzlang.Ast.I16
  | 4 -> Syzlang.Ast.I32
  | _ -> Syzlang.Ast.I64

(** Type recovery: translate a kernel struct/union into a syzlang type,
    inferring semantic relations from names and comments. *)
let run_type (o : t) (local : Analysis.local) ~(type_name : string) : Prompt.response =
  match Csrc.Index.find_composite local.index type_name with
  | None -> Prompt.empty_response
  | Some cd ->
      let nested = ref [] in
      (* non-char arrays with their field position: a len relation only
         makes sense for an array that *follows* the count field *)
      let array_fields =
        List.filteri (fun _ _ -> true) cd.fields
        |> List.mapi (fun i (f : Csrc.Ast.field) -> (i, f))
        |> List.filter_map (fun (i, (f : Csrc.Ast.field)) ->
               match f.field_type with
               | Csrc.Ast.Array (elem, _) when not (Analysis.parse_is_char local elem) ->
                   Some (i, f.field_name)
               | _ -> None)
      in
      let field (pos : int) (f : Csrc.Ast.field) : Syzlang.Ast.field =
        let open Syzlang.Ast in
        let ftyp =
          match f.field_type with
          | Csrc.Ast.Array (elem, len) when Analysis.parse_is_char local elem ->
              if o.profile.infers_strings && name_like f.field_name then String None
              else Array (Int (I8, None), len)
          | Csrc.Ast.Array (Csrc.Ast.Struct_ref sn, len) ->
              nested := sn :: !nested;
              Array (Struct_ref sn, len)
          | Csrc.Ast.Array (elem, len) ->
              Array (Int (width_of_ctype local elem, None), len)
          | Csrc.Ast.Struct_ref sn ->
              nested := sn :: !nested;
              Struct_ref sn
          | Csrc.Ast.Union_ref sn ->
              nested := sn :: !nested;
              Union_ref sn
          | Csrc.Ast.Ptr _ | Csrc.Ast.Func_ptr _ -> Int (I64, None)
          | ty -> (
              let w = width_of_ctype local ty in
              (* a count-ish field becomes the length of the nearest
                 array that follows it *)
              let following =
                List.find_opt (fun (i, _) -> i > pos) array_fields
              in
              if
                o.profile.infers_len_fields
                && count_like f.field_name f.field_comment
              then
                match following with
                | Some (_, target) -> Len (target, w)
                | None -> Int (w, None)
              else Int (w, None))
        in
        { fname = f.field_name; ftyp }
      in
      let comp_kind =
        match cd.comp_kind with Csrc.Ast.Struct -> Syzlang.Ast.Struct | Csrc.Ast.Union -> Syzlang.Ast.Union
      in
      let out : Syzlang.Ast.comp_def =
        { comp_name = type_name; comp_kind; comp_fields = List.mapi field cd.fields }
      in
      let out = maybe_corrupt_type o ~subject:type_name out in
      let nested_names = List.sort_uniq String.compare !nested in
      {
        Prompt.empty_response with
        r_types = [ out ];
        r_nested_types = nested_names;
      }

(** Dependency analysis: find resource-producing commands. *)
let run_deps (o : t) (local : Analysis.local) ~(handler_fn : string) : Prompt.response =
  if not o.profile.finds_fd_deps then Prompt.empty_response
  else
    match Csrc.Index.find_function local.index handler_fn with
    | None | Some { fun_body = []; _ } -> Prompt.empty_response
    | Some fd ->
        let facts = Analysis.walk_handler local fd in
        let rec spawn_target ~depth (body : Csrc.Ast.block) : string option =
          if depth > 3 then None
          else
            let found = ref None in
            let visit e =
              match e with
              | Csrc.Ast.Call ("anon_inode_getfd", args) ->
                  let rec fops = function
                    | Csrc.Ast.Addr_of (Csrc.Ast.Ident g) -> Some g
                    | Csrc.Ast.Cast (_, e) -> fops e
                    | _ -> None
                  in
                  if !found = None then found := List.find_map fops args
              | Csrc.Ast.Call (callee, _)
                when (not (Corpus.Kapi.is_builtin callee)) && !found = None -> (
                  match Csrc.Index.find_function local.index callee with
                  | Some cfd when cfd.fun_body <> [] ->
                      found := spawn_target ~depth:(depth + 1) cfd.fun_body
                  | _ -> ())
              | _ -> ()
            in
            Csrc.Ast.fold_block
              (fun () s ->
                List.iter (fun e -> Csrc.Ast.fold_expr (fun () e -> visit e) () e)
                  (Csrc.Ast.exprs_of_stmt s))
              () body;
            !found
        in
        let deps =
          List.filter_map
            (fun (label, body) ->
              match Analysis.resolve_raw_label local label with
              | None -> None
              | Some cmd -> (
                  match spawn_target ~depth:0 body with
                  | Some ops -> Some { Prompt.dep_cmd = cmd; dep_ops = ops }
                  | None -> None))
            (facts.bf_cases @ facts.bf_eq_checks)
        in
        { Prompt.empty_response with r_deps = deps }

(** Device-name inference from a registration global or init function. *)
let run_device_name (o : t) (local : Analysis.local) ~(reg_symbol : string) : Prompt.response =
  let expand_format fmt =
    let buf = Buffer.create (String.length fmt) in
    let i = ref 0 in
    let ok = ref true in
    while !i < String.length fmt do
      (if fmt.[!i] = '%' && !i + 1 < String.length fmt then begin
         (match fmt.[!i + 1] with
         | 'd' | 'i' | 'u' -> if o.profile.reads_format_strings then Buffer.add_char buf '0' else ok := false
         | _ -> ok := false);
         i := !i + 2
       end
       else begin
         Buffer.add_char buf fmt.[!i];
         incr i
       end)
    done;
    if !ok then Some (Buffer.contents buf) else None
  in
  let from_misc (g : Csrc.Ast.global_def) =
    match g.global_init with
    | Some (Csrc.Ast.Init_designated fields) ->
        let str_of name =
          match List.assoc_opt name fields with
          | Some (Csrc.Ast.Init_expr e) -> Csrc.Index.eval_string local.knowledge e
          | _ -> None
        in
        let nodename = str_of "nodename" in
        let name = str_of "name" in
        let chosen =
          if o.profile.uses_nodename then match nodename with Some n -> Some n | None -> name
          else name
        in
        Option.map (fun n -> "/dev/" ^ n) chosen
    | _ -> None
  in
  let from_init (fd : Csrc.Ast.func_def) =
    let found = ref None in
    Csrc.Ast.fold_block
      (fun () s ->
        List.iter
          (fun e ->
            Csrc.Ast.fold_expr
              (fun () e ->
                match e with
                | Csrc.Ast.Call ((("device_create" | "snd_register_device") as helper), args)
                  when !found = None ->
                    let fmt =
                      List.find_map
                        (function Csrc.Ast.Const_str s -> Some s | _ -> None)
                        args
                    in
                    (* the sound core registers its nodes under /dev/snd/ —
                       API knowledge a strong model has seen *)
                    let prefix =
                      if helper = "snd_register_device" then "/dev/snd/" else "/dev/"
                    in
                    (match Option.bind fmt expand_format with
                    | Some n -> found := Some (prefix ^ n)
                    | None -> ())
                | _ -> ())
              () e)
          (Csrc.Ast.exprs_of_stmt s))
      () fd.fun_body;
    !found
  in
  let path =
    match Csrc.Index.find_global local.index reg_symbol with
    | Some g -> from_misc g
    | None -> (
        match Csrc.Index.find_function local.index reg_symbol with
        | Some fd -> from_init fd
        | None -> None)
  in
  { Prompt.empty_response with r_device_paths = Option.to_list path }

(** Infer the socket (domain, type, protocol) from a proto_ops global and
    the module's protocol macros. *)
let run_socket_triple (_o : t) (local : Analysis.local) ~(ops_symbol : string) :
    Prompt.response =
  let domain =
    match Csrc.Index.find_global local.index ops_symbol with
    | Some { global_init = Some (Csrc.Ast.Init_designated fields); _ } -> (
        match List.assoc_opt "family" fields with
        | Some (Csrc.Ast.Init_expr e) ->
            Option.map Int64.to_int (Csrc.Index.eval_opt local.knowledge e)
        | _ -> None)
    | _ -> None
  in
  match domain with
  | None -> Prompt.empty_response
  | Some d ->
      let has_prefix p s =
        String.length s >= String.length p && String.sub s 0 (String.length p) = p
      in
      let proto =
        List.find_map
          (fun (md : Csrc.Ast.macro_def) ->
            let name = md.macro_name in
            if
              has_prefix "BTPROTO_" name || has_prefix "IPPROTO_" name
              || has_prefix "PX_PROTO_" name
            then Option.map Int64.to_int (Csrc.Index.eval_macro local.index name)
            else None)
          (Csrc.Index.all_macros local.index)
      in
      let proto = Option.value proto ~default:0 in
      (* the socket type is pre-training knowledge a mid-size model may
         lack; the machine matches domain+protocol with a wildcard type *)
      { Prompt.empty_response with r_socket_triple = Some (d, 0, proto) }

(** Repair a validation failure by recovering the intended name. *)
let run_repair (o : t) ~(item : string) ~(error : string) : Prompt.response =
  if not (Profile.coin o.profile ~subject:(item ^ error) ~salt:"repair" ~pct:o.profile.repair_skill_pct)
  then Prompt.empty_response
  else begin
    (* our hallucinations append suffixes; the repair model recovers the
       real identifier by matching against its header knowledge *)
    let strip_suffix name =
      let try_strip suffix =
        let ls = String.length suffix and ln = String.length name in
        if ln > ls && String.sub name (ln - ls) ls = suffix then
          Some (String.sub name 0 (ln - ls))
        else None
      in
      match try_strip "_V2" with Some s -> Some s | None -> try_strip "_legacy"
    in
    (* extract the offending identifier from the error message *)
    let words = String.split_on_char ' ' error in
    let bad =
      List.find_opt
        (fun w -> strip_suffix w <> None)
        words
    in
    match bad with
    | None -> Prompt.empty_response
    | Some bad_name -> (
        match strip_suffix bad_name with
        | Some fixed -> { Prompt.empty_response with r_repaired = Some fixed }
        | None -> Prompt.empty_response)
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let task_name = function
  | Prompt.Identifier_deduction _ -> "identifier"
  | Prompt.Type_recovery _ -> "type"
  | Prompt.Dependency_analysis _ -> "dependency"
  | Prompt.Device_name _ -> "device"
  | Prompt.Socket_triple _ -> "socket"
  | Prompt.Repair _ -> "repair"
  | Prompt.All_in_one _ -> "all-in-one"

let task_subject = function
  | Prompt.Identifier_deduction { handler_fn }
  | Prompt.Dependency_analysis { handler_fn }
  | Prompt.All_in_one { handler_fn } ->
      handler_fn
  | Prompt.Type_recovery { type_name } -> type_name
  | Prompt.Device_name { reg_symbol } -> reg_symbol
  | Prompt.Socket_triple { ops_symbol } -> ops_symbol
  | Prompt.Repair { item; _ } -> item

let query (o : t) (p : Prompt.t) : Prompt.response =
  let tokens = ref 0 in
  Obs.with_span
    ~attrs:(fun () ->
      [
        ("subject", Obs.Json.Str (task_subject p.task));
        ("prompt_tokens", Obs.Json.Int !tokens);
      ])
    ~kind:"oracle.query" (task_name p.task)
  @@ fun () ->
  o.queries <- o.queries + 1;
  Obs.Metrics.incr "oracle.queries";
  let p = fit_context o p in
  tokens := Prompt.tokens p;
  o.prompt_tokens <- o.prompt_tokens + !tokens;
  Obs.Metrics.incr ~by:!tokens "oracle.prompt_tokens";
  let local = Analysis.parse_snippets ~knowledge:o.knowledge p.snippets in
  match p.task with
  | Prompt.Identifier_deduction { handler_fn } ->
      run_identifier o local ~handler_fn ~usage:p.usage
  | Prompt.Type_recovery { type_name } -> run_type o local ~type_name
  | Prompt.Dependency_analysis { handler_fn } -> run_deps o local ~handler_fn
  | Prompt.Device_name { reg_symbol } -> run_device_name o local ~reg_symbol
  | Prompt.Socket_triple { ops_symbol } -> run_socket_triple o local ~ops_symbol
  | Prompt.Repair { item; description = _; error } -> run_repair o ~item ~error
  | Prompt.All_in_one { handler_fn } ->
      (* single-shot: identifier + deps on whatever survived truncation;
         type recovery happens only for structs visible in this prompt *)
      let idents = run_identifier o local ~handler_fn ~usage:p.usage in
      let deps = run_deps o local ~handler_fn in
      let type_names =
        List.filter_map (fun (i : Prompt.ident) -> i.id_arg_type) idents.r_idents
        |> List.sort_uniq String.compare
      in
      let types =
        List.concat_map
          (fun tn -> (run_type o local ~type_name:tn).Prompt.r_types)
          type_names
      in
      {
        idents with
        r_types = types;
        r_deps = deps.Prompt.r_deps;
        r_unknown = [] (* all-in-one does not iterate *);
      }
