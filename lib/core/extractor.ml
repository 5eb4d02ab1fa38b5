(** Source-code extractor — the reproduction of the paper's LLVM-based
    component (§4).

    Pattern-matches the parsed module source for driver and socket
    operation handlers (initializations of the [unlocked_ioctl] /
    [ioctl] / [setsockopt] fields), locates the registration symbol the
    device name hides behind, and serves definition source text on
    demand (the [ExtractCode] of Algorithm 1). Ground-truth registry
    metadata is never consulted.

    As in the paper, the kernel is analysed once: {!kernel_module_index}
    serves a module from the parse [Vkernel.Machine.boot] already made
    of it. {!module_index} parses a source again; SyzDescribe, which is
    given no kernel, uses it. *)

type handler_info = {
  hi_ops_global : string;  (** the fops/proto_ops symbol *)
  hi_is_socket : bool;
  hi_handlers : (string * string) list;  (** op field -> handler function *)
  hi_reg_symbol : string option;  (** miscdevice global or init function *)
}

(** Parse a module source into its own index, on top of the shared
    header ({!Corpus.Headers.index_with_header}), which is parsed and
    indexed once per process. *)
let module_index (source : string) : Csrc.Index.t =
  Corpus.Headers.index_with_header
    [ Csrc.Parser.parse_file ~file:"module.c" ~sid:(ref 0) source ]

(** The module's own index over the booted [kernel]'s parse of it: the
    shared header and the kernel file named {!Corpus.Types.module_file_name}.
    It answers every lookup as {!module_index} [entry.source] does.
    Raises [Invalid_argument] naming the module and the file when the
    kernel was booted without [entry]. *)
let kernel_module_index ~(kernel : Csrc.Index.t) (entry : Corpus.Types.entry) : Csrc.Index.t =
  let path = Corpus.Types.module_file_name entry in
  match List.find_opt (fun (f : Csrc.Ast.file) -> String.equal f.path path) kernel.files with
  | Some f -> Corpus.Headers.index_with_header [ f ]
  | None ->
      invalid_arg
        (Printf.sprintf "the kernel was booted without module %s: it has no file %s" entry.name
           path)

let is_handler_field = function
  | "open" | "release" | "unlocked_ioctl" | "compat_ioctl" | "ioctl" | "read" | "write"
  | "poll" | "mmap" | "llseek" | "bind" | "connect" | "accept" | "listen" | "shutdown"
  | "setsockopt" | "getsockopt" | "sendmsg" | "recvmsg" | "getname" ->
      true
  | _ -> false

let ops_of_global (g : Csrc.Ast.global_def) : handler_info option =
  let is_socket =
    match g.global_type with
    | Csrc.Ast.Struct_ref "proto_ops" -> Some true
    | Csrc.Ast.Struct_ref "file_operations" -> Some false
    | _ -> None
  in
  match (is_socket, g.global_init) with
  | Some hi_is_socket, Some (Csrc.Ast.Init_designated fields) ->
      let hi_handlers =
        List.filter_map
          (fun (fname, init) ->
            match init with
            | Csrc.Ast.Init_expr (Csrc.Ast.Ident fn)
              when is_handler_field fname && fn <> "noop_llseek" ->
                Some (fname, fn)
            | _ -> None)
          fields
      in
      if hi_handlers = [] then None
      else
        Some { hi_ops_global = g.global_name; hi_is_socket; hi_handlers; hi_reg_symbol = None }
  | _ -> None

(** Find the symbol that registers [ops]: a [miscdevice] global whose
    [.fops] points at it, or a function that references it (the
    cdev/init-function pattern). *)
let find_reg_symbol (idx : Csrc.Index.t) (ops : string) : string option =
  let misc =
    List.find_map
      (fun (g : Csrc.Ast.global_def) ->
        match (g.global_type, g.global_init) with
        | Csrc.Ast.Struct_ref "miscdevice", Some (Csrc.Ast.Init_designated fields) ->
            let points_at_ops =
              List.exists
                (fun (_, init) ->
                  match init with
                  | Csrc.Ast.Init_expr (Csrc.Ast.Addr_of (Csrc.Ast.Ident s)) -> s = ops
                  | _ -> false)
                fields
            in
            if points_at_ops then Some g.global_name else None
        | _ -> None)
      (Csrc.Index.all_globals idx)
  in
  match misc with
  | Some _ -> misc
  | None ->
      (* an init function that *registers* the ops symbol: it must both
         mention the symbol and call a registration helper *)
      let is_registration_call = function
        | "device_create" | "cdev_init" | "register_chrdev" | "misc_register"
        | "snd_register_device" | "sock_register" | "proto_register" ->
            true
        | _ -> false
      in
      List.find_map
        (fun (fd : Csrc.Ast.func_def) ->
          if fd.fun_body = [] then None
          else
            let mentions = ref false in
            let registers = ref false in
            Csrc.Ast.fold_block
              (fun () s ->
                List.iter
                  (fun e ->
                    Csrc.Ast.fold_expr
                      (fun () e ->
                        (match e with
                        | Csrc.Ast.Ident n | Csrc.Ast.Addr_of (Csrc.Ast.Ident n) when n = ops ->
                            mentions := true
                        | Csrc.Ast.Call (callee, _) when is_registration_call callee ->
                            registers := true
                        | _ -> ()))
                      () e)
                  (Csrc.Ast.exprs_of_stmt s))
              () fd.fun_body;
            if !mentions && !registers then Some fd.fun_name else None)
        (Csrc.Index.all_functions idx)

(** All operation handlers of a module, with registration symbols. *)
let extract (idx : Csrc.Index.t) : handler_info list =
  Csrc.Index.all_globals idx
  |> List.filter_map ops_of_global
  |> List.map (fun hi -> { hi with hi_reg_symbol = find_reg_symbol idx hi.hi_ops_global })

(** The main handler of a module: the ops global that is actually
    registered (has a registration symbol), preferring it over dependent
    anon-inode handlers like [kvm_vm_fops]. *)
let main_handler (infos : handler_info list) : handler_info option =
  match List.filter (fun hi -> hi.hi_reg_symbol <> None) infos with
  | hi :: _ -> Some hi
  | [] -> ( match infos with hi :: _ -> Some hi | [] -> None)

let find_handler (infos : handler_info list) (ops : string) : handler_info option =
  List.find_opt (fun hi -> hi.hi_ops_global = ops) infos

(** Source text of the named definition (function, struct, macro, ...). *)
let snippet (idx : Csrc.Index.t) (name : string) : Prompt.snippet option =
  match Csrc.Index.extract_source idx name with
  | Some text -> Some { Prompt.snip_name = name; snip_text = text }
  | None -> None

(** One snippet holding all [#define]s of the module (protocol numbers,
    command macros) — used by socket-triple inference. *)
let module_macros_snippet (idx : Csrc.Index.t) : Prompt.snippet =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (f : Csrc.Ast.file) ->
      if f.path <> "include/kernel.h" then
        List.iter
          (fun d ->
            match d with
            | Csrc.Ast.D_macro m when m.macro_body <> [] ->
                Csrc.Pretty.add_macro buf m;
                Buffer.add_char buf '\n'
            | _ -> ())
          f.decls)
    idx.Csrc.Index.files;
  { Prompt.snip_name = "module-macros"; snip_text = Buffer.contents buf }

(** The first struct [fn] casts a matching expression to: the
    [(struct X * ) uaddr] idiom of sockaddr recovery, or
    [(struct X * ) msg->msg_control]. [matches] sees the cast operand
    with any inner casts stripped. *)
let first_struct_cast (idx : Csrc.Index.t) ~(matches : Csrc.Ast.expr -> bool) (fn : string) :
    string option =
  match Csrc.Index.find_function idx fn with
  | None | Some { fun_body = []; _ } -> None
  | Some fd ->
      let rec strip = function Csrc.Ast.Cast (_, e) -> strip e | e -> e in
      let visit found e =
        match (found, e) with
        | None, Csrc.Ast.Cast (Csrc.Ast.Ptr (Csrc.Ast.Struct_ref sn), inner)
          when matches (strip inner) ->
            Some sn
        | _ -> found
      in
      Csrc.Ast.fold_block
        (fun found s -> List.fold_left (Csrc.Ast.fold_expr visit) found (Csrc.Ast.exprs_of_stmt s))
        None fd.fun_body

(** Equality constraints a handler enforces on fields of [struct_name]:
    the [if (sa->family != AF_RDS) return ...] idiom. Returns field ->
    required constant. *)
let field_constraints (idx : Csrc.Index.t) (fns : string list) ~(struct_name : string) :
    (string * Syzlang.Ast.const_ref) list =
  let fields =
    match Csrc.Index.find_composite idx struct_name with
    | Some cd -> List.map (fun f -> f.Csrc.Ast.field_name) cd.fields
    | None -> []
  in
  let out = ref [] in
  let note f rhs =
    if List.mem f fields && not (List.mem_assoc f !out) then
      match rhs with
      | Csrc.Ast.Ident n when Csrc.Index.eval_macro idx n <> None ->
          out := (f, Syzlang.Ast.const_of_name n) :: !out
      | Csrc.Ast.Const_int v -> out := (f, Syzlang.Ast.const_of_value v) :: !out
      | _ -> ()
  in
  let visit e =
    match e with
    | Csrc.Ast.Binop (Csrc.Ast.Ne, Csrc.Ast.Arrow (_, f), rhs) -> note f rhs
    | Csrc.Ast.Binop (Csrc.Ast.Ne, lhs, Csrc.Ast.Arrow (_, f)) -> note f lhs
    (* array fields checked on their first element: [p->version[0] != V] *)
    | Csrc.Ast.Binop (Csrc.Ast.Ne, Csrc.Ast.Index (Csrc.Ast.Arrow (_, f), _), rhs) ->
        note f rhs
    | Csrc.Ast.Binop (Csrc.Ast.Ne, lhs, Csrc.Ast.Index (Csrc.Ast.Arrow (_, f), _)) ->
        note f lhs
    | Csrc.Ast.Binop (Csrc.Ast.Ne, Csrc.Ast.Member (_, f), rhs) -> note f rhs
    | Csrc.Ast.Binop (Csrc.Ast.Ne, Csrc.Ast.Index (Csrc.Ast.Member (_, f), _), rhs) ->
        note f rhs
    | _ -> ()
  in
  List.iter
    (fun fn ->
      match Csrc.Index.find_function idx fn with
      | Some fd when fd.fun_body <> [] ->
          Csrc.Ast.fold_block
            (fun () s ->
              List.iter (fun e -> Csrc.Ast.fold_expr (fun () e -> visit e) () e)
                (Csrc.Ast.exprs_of_stmt s))
            () fd.fun_body
      | _ -> ())
    fns;
  !out

(** Transitive closure of functions called from [fn] that the module
    defines, for the dependency-analysis prompt. *)
let call_closure (idx : Csrc.Index.t) (fn : string) ~(depth : int) : string list =
  let seen = Hashtbl.create 16 in
  let rec go d name =
    if d > depth || Hashtbl.mem seen name then ()
    else
      match Csrc.Index.find_function idx name with
      | Some fd when fd.fun_body <> [] ->
          Hashtbl.replace seen name ();
          List.iter
            (fun callee -> if not (Corpus.Kapi.is_builtin callee) then go (d + 1) callee)
            (Csrc.Ast.called_functions fd.fun_body)
      | _ -> ()
  in
  go 0 fn;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort String.compare
