(** Specification validation — the stand-in for Syzkaller's
    [syz-extract] and [syz-generate] tools.

    Validation resolves every symbolic constant against the kernel
    definition index (undefined macro names are exactly the class of
    error the paper's repair phase fixes), checks type and resource
    references, length-field targets, and structural sanity. Errors are
    structured so that the repair loop can match each error back to the
    offending description, as §3.2 of the paper requires. *)

type item =
  | In_syscall of string  (** full syscall name, e.g. [ioctl$DM_VERSION] *)
  | In_type of string
  | In_flag_set of string
  | In_resource of string

let item_to_string = function
  | In_syscall s -> "syscall " ^ s
  | In_type s -> "type " ^ s
  | In_flag_set s -> "flags " ^ s
  | In_resource s -> "resource " ^ s

type error = {
  err_spec : string;
  err_item : item;
  err_msg : string;
  err_ident : string option;
      (** the offending identifier, when the error is about one — what
          the repair loop substitutes. Carried structurally so repair
          never has to re-parse it out of [err_msg]. *)
}

let error_to_string e =
  Printf.sprintf "%s: %s: %s" e.err_spec (item_to_string e.err_item) e.err_msg

(** Constants every kernel build defines; specs may reference them without
    the corpus defining them. A string [match], like {!Corpus.Kapi.is_builtin}. *)
let builtin_const = function
  | "AT_FDCWD" -> Some (-100L)
  | "O_RDONLY" -> Some 0L
  | "O_WRONLY" -> Some 1L
  | "O_RDWR" -> Some 2L
  | "O_NONBLOCK" -> Some 0x800L
  | "O_CLOEXEC" -> Some 0o2000000L
  | "SOCK_STREAM" -> Some 1L
  | "SOCK_DGRAM" -> Some 2L
  | "SOCK_RAW" -> Some 3L
  | "SOCK_SEQPACKET" -> Some 5L
  | "AF_UNSPEC" -> Some 0L
  | "AF_UNIX" -> Some 1L
  | "AF_INET" -> Some 2L
  | "AF_INET6" -> Some 10L
  | "AF_PACKET" -> Some 17L
  | "AF_NETLINK" -> Some 16L
  | "AF_BLUETOOTH" -> Some 31L
  | "AF_RDS" -> Some 21L
  | "AF_LLC" -> Some 26L
  | "AF_CAIF" -> Some 37L
  | "AF_PHONET" -> Some 35L
  | "AF_PPPOX" -> Some 24L
  | "AF_VSOCK" -> Some 40L
  | "AF_MCTP" -> Some 45L
  | "SOL_SOCKET" -> Some 1L
  | "MSG_DONTWAIT" -> Some 0x40L
  | _ -> None

(** Resolve a symbolic constant to its value, trying builtins, kernel
    macros and kernel enum items in that order. *)
let resolve_const (kernel : Csrc.Index.t) (c : Ast.const_ref) : int64 option =
  match c.const_value with
  | Some v -> Some v
  | None -> (
      match c.const_name with
      | None -> None
      | Some name -> (
          match builtin_const name with
          | Some v -> Some v
          | None -> (
              match Csrc.Index.eval_macro kernel name with
              | Some v -> Some v
              | None -> (
                  match Csrc.Index.find_enum_item kernel name with
                  | Some e -> Csrc.Index.eval_opt kernel e
                  | None -> None))))

let max_array_size = 1 lsl 20

(** Validate [spec] against [kernel]. Returns all errors found; an empty
    list means the specification passed validation. *)
let validate ~(kernel : Csrc.Index.t) (spec : Ast.spec) : error list =
  let errors = ref [] in
  let err ?ident item msg =
    errors :=
      { err_spec = spec.spec_name; err_item = item; err_msg = msg; err_ident = ident } :: !errors
  in
  let name_set key xs =
    let set = Hashtbl.create (List.length xs) in
    List.iter (fun x -> Hashtbl.replace set (key x) ()) xs;
    set
  in
  let type_names = name_set (fun c -> c.Ast.comp_name) spec.types in
  let resource_names = name_set (fun r -> r.Ast.res_name) spec.resources in
  let flag_set_names = name_set (fun f -> f.Ast.set_name) spec.flag_sets in
  let check_const item (c : Ast.const_ref) =
    match resolve_const kernel c with
    | Some _ -> ()
    | None ->
        err ?ident:c.const_name item
          (Printf.sprintf "unknown const %s" (Ast.const_ref_to_string c))
  in
  let rec check_typ item ?(siblings = []) (t : Ast.typ) =
    match t with
    | Ast.Const (c, _) -> check_const item c
    | Ast.Flags (name, _) ->
        if not (Hashtbl.mem flag_set_names name) then
          err ~ident:name item (Printf.sprintf "undefined flags %s" name)
    | Ast.Struct_ref name | Ast.Union_ref name ->
        if not (Hashtbl.mem type_names name) then
          err ~ident:name item (Printf.sprintf "undefined type %s" name)
    | Ast.Resource_ref name ->
        if not (Hashtbl.mem resource_names name) then
          err ~ident:name item (Printf.sprintf "undefined resource %s" name)
    | Ast.Len (target, _) | Ast.Bytesize (target, _) ->
        if not (List.mem target siblings) then
          err ~ident:target item (Printf.sprintf "len target %s is not a sibling field" target)
    | Ast.Array (elem, size) ->
        (match size with
        | Some n when n < 0 || n > max_array_size ->
            err item (Printf.sprintf "array size %d out of range" n)
        | _ -> ());
        check_typ item ~siblings elem
    | Ast.Ptr (_, inner) -> check_typ item ~siblings inner
    | Ast.Int (_, Some { lo; hi }) ->
        if Int64.compare lo hi > 0 then
          err item (Printf.sprintf "empty int range [%Ld:%Ld]" lo hi)
    | Ast.Int (_, None) | Ast.Buffer _ | Ast.String _ | Ast.Fd | Ast.Void -> ()
  in
  (* duplicate syscall names *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let full = Ast.syscall_full_name c in
      if Hashtbl.mem seen full then err (In_syscall full) "duplicate syscall name"
      else Hashtbl.replace seen full ())
    spec.syscalls;
  (* syscalls *)
  List.iter
    (fun c ->
      let full = Ast.syscall_full_name c in
      let item = In_syscall full in
      let siblings = List.map (fun f -> f.Ast.fname) c.Ast.args in
      List.iter (fun f -> check_typ item ~siblings f.Ast.ftyp) c.Ast.args;
      (match c.Ast.ret with
      | Some r when not (Hashtbl.mem resource_names r) ->
          err ~ident:r item (Printf.sprintf "return resource %s is not declared" r)
      | _ -> ());
      (* an ioctl needs a constant (or flag-set) command argument *)
      if c.Ast.call_name = "ioctl" then
        match c.Ast.args with
        | _fd :: cmd :: _ -> (
            match cmd.Ast.ftyp with
            | Ast.Const _ | Ast.Flags _ -> ()
            | _ -> err item "ioctl command argument must be a const or flags")
        | _ -> err item "ioctl must take at least (fd, cmd)")
    spec.syscalls;
  (* types *)
  List.iter
    (fun cd ->
      let item = In_type cd.Ast.comp_name in
      if cd.Ast.comp_fields = [] then err item "empty struct/union";
      let siblings = List.map (fun f -> f.Ast.fname) cd.Ast.comp_fields in
      List.iter (fun f -> check_typ item ~siblings f.Ast.ftyp) cd.Ast.comp_fields)
    spec.types;
  (* flag sets *)
  List.iter
    (fun fs ->
      let item = In_flag_set fs.Ast.set_name in
      if fs.Ast.set_values = [] then err item "empty flag set";
      List.iter (check_const item) fs.Ast.set_values)
    spec.flag_sets;
  (* resources *)
  List.iter
    (fun r ->
      if r.Ast.res_underlying <> "fd" && not (Hashtbl.mem resource_names r.Ast.res_underlying)
      then
        err ~ident:r.Ast.res_underlying (In_resource r.Ast.res_name)
          (Printf.sprintf "unknown underlying resource %s" r.Ast.res_underlying))
    spec.resources;
  List.rev !errors

(** Rewrite the spec with every resolvable symbolic constant annotated
    with its numeric value (what [syz-extract] produces). Unresolvable
    constants are left untouched — they will have been reported by
    {!validate}. *)
let resolve_spec ~(kernel : Csrc.Index.t) (spec : Ast.spec) : Ast.spec =
  let fix_const c =
    match resolve_const kernel c with
    | Some v -> { c with Ast.const_value = Some v }
    | None -> c
  in
  let rec fix t =
    match t with
    | Ast.Const (c, w) -> Ast.Const (fix_const c, w)
    | Ast.Ptr (d, t) -> Ast.Ptr (d, fix t)
    | Ast.Array (t, n) -> Ast.Array (fix t, n)
    | t -> t
  in
  let fix_field f = { f with Ast.ftyp = fix f.Ast.ftyp } in
  {
    spec with
    Ast.syscalls =
      List.map (fun c -> { c with Ast.args = List.map fix_field c.Ast.args }) spec.syscalls;
    types =
      List.map
        (fun c -> { c with Ast.comp_fields = List.map fix_field c.Ast.comp_fields })
        spec.types;
    flag_sets =
      List.map
        (fun fs -> { fs with Ast.set_values = List.map fix_const fs.Ast.set_values })
        spec.flag_sets;
  }

(** Errors whose item matches a given syscall/type name — used by the
    repair loop to pair error messages with descriptions. *)
let errors_for_item (errs : error list) (item : item) : error list =
  List.filter (fun e -> e.err_item = item) errs
