(** Kernel definition index.

    This is the reproduction of the paper's LLVM-based "kernel definition
    extraction": it compiles all definitions of functions, structs, unions,
    enums and macros found in the corpus into lookup tables, evaluates
    integer constants (including the Linux [_IO*] ioctl encodings), and
    computes struct layouts for [sizeof]. Both the analysis oracle and the
    virtual kernel are built on top of it. *)

(** Constant value of a bare identifier, memoized per index. *)
type ident_const = C_int of int64 | C_str of string | C_none

(** An index is built once, by {!of_files}, and never changes after
    that. Its tables start at 16 buckets and grow, so an index costs
    what it holds. No output may depend on their bucket counts: every
    enumeration ({!all_functions}, {!all_globals}, {!all_composites},
    {!all_macros}, {!all_macro_values}) walks the names in the order of
    their first declaration, each once, with the definition its table
    kept, and no code outside this module iterates a table. *)
type t = {
  files : Ast.file list;
  functions : (string, Ast.func_def) Hashtbl.t;
  composites : (string, Ast.composite_def) Hashtbl.t;
  enums_by_item : (string, Ast.expr) Hashtbl.t;  (* item name -> value expr *)
  enum_defs : (string, Ast.enum_def) Hashtbl.t;
  macros : (string, Ast.macro_def) Hashtbl.t;
  typedefs : (string, Ast.ctype) Hashtbl.t;
  globals : (string, Ast.global_def) Hashtbl.t;
  (* the names of [functions], [composites], [macros] and [globals], each
     once, latest first declaration first *)
  function_names : string list;
  composite_names : string list;
  macro_names : string list;
  global_names : string list;
  macro_value_cache : (string, int64 option) Hashtbl.t;
      (** memoized macro evaluations — case labels re-evaluate their
          macros on every switch execution otherwise *)
  ident_cache : (string, ident_const) Hashtbl.t;
      (** memoized identifier-constant lookups (enums, macros, strings) *)
  all_macro_values_cache : (string * int64) list option ref;
      (** memoized {!all_macro_values} result — per index, so worker
          domains (each with its own index) never share the slot and two
          alternating indexes never evict each other *)
  ioc_by_nr_cache : (string * int64) list array option ref;
      (** memoized {!ioc_macros_by_nr} result, per index like
          [all_macro_values_cache] *)
}

let of_files files =
  let functions = Hashtbl.create 16 and composites = Hashtbl.create 16 in
  let enums_by_item = Hashtbl.create 16 and enum_defs = Hashtbl.create 16 in
  let macros = Hashtbl.create 16 and typedefs = Hashtbl.create 16 in
  let globals = Hashtbl.create 16 in
  let function_names = ref [] and composite_names = ref [] in
  let macro_names = ref [] and global_names = ref [] in
  (* a later declaration of a name replaces the definition, not its place *)
  let enter tbl names name v =
    if not (Hashtbl.mem tbl name) then names := name :: !names;
    Hashtbl.replace tbl name v
  in
  List.iter
    (fun (f : Ast.file) ->
      List.iter
        (fun decl ->
          match decl with
          | Ast.D_func fd -> (
              match Hashtbl.find_opt functions fd.fun_name with
              (* a definition with a body wins over a forward declaration *)
              | Some (kept : Ast.func_def) when kept.fun_body <> [] && fd.fun_body = [] -> ()
              | _ -> enter functions function_names fd.fun_name fd)
          | Ast.D_composite cd -> enter composites composite_names cd.comp_name cd
          | Ast.D_enum ed ->
              (match ed.enum_name with
              | Some n -> Hashtbl.replace enum_defs n ed
              | None -> ());
              (* enum items without explicit values count up from the last one *)
              let counter = ref 0L in
              List.iter
                (fun item ->
                  (match item.Ast.item_value with
                  | Some (Ast.Const_int v) -> counter := v
                  | Some _ -> ()
                  | None -> ());
                  let value =
                    match item.Ast.item_value with
                    | Some e -> e
                    | None -> Ast.Const_int !counter
                  in
                  Hashtbl.replace enums_by_item item.Ast.item_name value;
                  counter := Int64.add !counter 1L)
                ed.items
          | Ast.D_macro md -> enter macros macro_names md.macro_name md
          | Ast.D_typedef td -> Hashtbl.replace typedefs td.td_name td.td_type
          | Ast.D_global gd -> enter globals global_names gd.global_name gd)
        f.decls)
    files;
  {
    files;
    functions;
    composites;
    enums_by_item;
    enum_defs;
    macros;
    typedefs;
    globals;
    function_names = !function_names;
    composite_names = !composite_names;
    macro_names = !macro_names;
    global_names = !global_names;
    macro_value_cache = Hashtbl.create 16;
    ident_cache = Hashtbl.create 16;
    all_macro_values_cache = ref None;
    ioc_by_nr_cache = ref None;
  }

let empty () = of_files []

let find_function t name = Hashtbl.find_opt t.functions name
let find_composite t name = Hashtbl.find_opt t.composites name
let find_macro t name = Hashtbl.find_opt t.macros name
let find_global t name = Hashtbl.find_opt t.globals name
let find_typedef t name = Hashtbl.find_opt t.typedefs name
let find_enum_item t name = Hashtbl.find_opt t.enums_by_item name

(* the parser takes these as a set, so their order reaches no output *)
let typedef_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.typedefs []

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let builtin_named_width = function
  | "u8" | "__u8" | "s8" | "__s8" -> Some 1
  | "u16" | "__u16" | "s16" | "__s16" -> Some 2
  | "u32" | "__u32" | "s32" | "__s32" | "uint" | "pid_t" | "uid_t" | "gid_t" | "dev_t"
  | "umode_t" | "fmode_t" | "atomic_t" | "gfp_t" ->
      Some 4
  | "u64" | "__u64" | "s64" | "__s64" | "size_t" | "ssize_t" | "loff_t" | "off_t"
  | "ulong" | "uintptr_t" ->
      Some 8
  | "ushort" -> Some 2
  | _ -> None

(** Size and alignment of a type, in bytes. Flexible array members have
    size zero; opaque named types fall back to pointer size. *)
let rec size_align t (ty : Ast.ctype) : int * int =
  match ty with
  | Ast.Void -> (0, 1)
  | Ast.Bool -> (1, 1)
  | Ast.Int { width; _ } ->
      let b = width / 8 in
      (b, b)
  | Ast.Ptr _ | Ast.Func_ptr _ -> (8, 8)
  | Ast.Named n -> (
      match builtin_named_width n with
      | Some b -> (b, b)
      | None -> (
          match find_typedef t n with
          | Some ty' -> size_align t ty'
          | None -> (8, 8)))
  | Ast.Array (elem, Some n) ->
      let es, ea = size_align t elem in
      (es * n, ea)
  | Ast.Array (elem, None) ->
      let _, ea = size_align t elem in
      (0, ea)
  | Ast.Enum_ref _ -> (4, 4)
  | Ast.Struct_ref name | Ast.Union_ref name -> (
      match find_composite t name with
      | None -> (8, 8) (* opaque kernel-internal struct *)
      | Some cd -> composite_size_align t cd)

and composite_size_align t (cd : Ast.composite_def) : int * int =
  match cd.comp_kind with
  | Ast.Union ->
      List.fold_left
        (fun (sz, al) fld ->
          let fs, fa = size_align t fld.Ast.field_type in
          (max sz fs, max al fa))
        (0, 1) cd.fields
  | Ast.Struct ->
      let off, align =
        List.fold_left
          (fun (off, align) fld ->
            let fs, fa = size_align t fld.Ast.field_type in
            let off = (off + fa - 1) / fa * fa in
            (off + fs, max align fa))
          (0, 1) cd.fields
      in
      let size = (off + align - 1) / align * align in
      (size, align)

let sizeof t ty = fst (size_align t ty)

(** Byte offset of each field of a struct (unions: all zero). *)
let field_offsets t (cd : Ast.composite_def) : (string * int) list =
  match cd.comp_kind with
  | Ast.Union -> List.map (fun f -> (f.Ast.field_name, 0)) cd.fields
  | Ast.Struct ->
      let _, offsets =
        List.fold_left
          (fun (off, acc) fld ->
            let fs, fa = size_align t fld.Ast.field_type in
            let off = (off + fa - 1) / fa * fa in
            (off + fs, (fld.Ast.field_name, off) :: acc))
          (0, []) cd.fields
      in
      List.rev offsets

(* ------------------------------------------------------------------ *)
(* Constant evaluation                                                 *)
(* ------------------------------------------------------------------ *)

exception Not_const of string

let ioc_none = 0L
let ioc_write = 1L
let ioc_read = 2L

let ioc ~dir ~typ ~nr ~size =
  Int64.logor
    (Int64.shift_left dir 30)
    (Int64.logor (Int64.shift_left size 16) (Int64.logor (Int64.shift_left typ 8) nr))

(* C pastes adjacent string literals after macro expansion, so a body like
   [DM_DIR "/" DM_CONTROL_NODE] only parses once the string-valued macros
   are spliced in. Expansion is limited to macros whose bodies contain a
   string literal; numeric macros resolve lazily during evaluation. *)
let rec expand_string_tokens t depth toks =
  if depth > 4 then toks
  else
    List.concat_map
      (fun tok ->
        match tok with
        | Token.Ident n -> (
            match find_macro t n with
            | Some md
              when List.exists
                     (function Token.Str_lit _ -> true | _ -> false)
                     md.macro_body ->
                expand_string_tokens t (depth + 1) md.macro_body
            | _ -> [ tok ])
        | _ -> [ tok ])
      toks

let macro_expr t (md : Ast.macro_def) : Ast.expr =
  Parser.expr_of_tokens ~extra_typedefs:(typedef_names t)
    (expand_string_tokens t 0 md.macro_body)

(** Evaluate an integer constant expression, resolving identifiers through
    macros and enums and expanding the [_IO*] builtin macros. Raises
    {!Not_const} when the expression is not a compile-time constant. *)
let rec eval t (e : Ast.expr) : int64 =
  match e with
  | Ast.Const_int v -> v
  | Ast.Const_char c -> Int64.of_int (Char.code c)
  | Ast.Const_str _ -> raise (Not_const "string literal")
  | Ast.Ident name -> (
      match find_enum_item t name with
      | Some v -> eval t v
      | None -> (
          match find_macro t name with
          | Some md -> eval t (macro_expr t md)
          | None -> raise (Not_const ("unresolved identifier " ^ name))))
  | Ast.Unop (op, a) -> (
      let v = eval t a in
      match op with
      | Ast.Neg -> Int64.neg v
      | Ast.Not -> if Int64.equal v 0L then 1L else 0L
      | Ast.Bit_not -> Int64.lognot v)
  | Ast.Binop (op, a, b) -> (
      let va = eval t a and vb = eval t b in
      let bool_of f = if f then 1L else 0L in
      match op with
      | Ast.Add -> Int64.add va vb
      | Ast.Sub -> Int64.sub va vb
      | Ast.Mul -> Int64.mul va vb
      | Ast.Div -> if Int64.equal vb 0L then raise (Not_const "div by zero") else Int64.div va vb
      | Ast.Mod -> if Int64.equal vb 0L then raise (Not_const "mod by zero") else Int64.rem va vb
      | Ast.Shl -> Int64.shift_left va (Int64.to_int vb)
      | Ast.Shr -> Int64.shift_right_logical va (Int64.to_int vb)
      | Ast.Band -> Int64.logand va vb
      | Ast.Bor -> Int64.logor va vb
      | Ast.Bxor -> Int64.logxor va vb
      | Ast.Land -> bool_of ((not (Int64.equal va 0L)) && not (Int64.equal vb 0L))
      | Ast.Lor -> bool_of ((not (Int64.equal va 0L)) || not (Int64.equal vb 0L))
      | Ast.Eq -> bool_of (Int64.equal va vb)
      | Ast.Ne -> bool_of (not (Int64.equal va vb))
      | Ast.Lt -> bool_of (Int64.compare va vb < 0)
      | Ast.Le -> bool_of (Int64.compare va vb <= 0)
      | Ast.Gt -> bool_of (Int64.compare va vb > 0)
      | Ast.Ge -> bool_of (Int64.compare va vb >= 0))
  | Ast.Ternary (c, a, b) -> if not (Int64.equal (eval t c) 0L) then eval t a else eval t b
  | Ast.Cast (_, a) -> eval t a
  | Ast.Sizeof_type ty -> Int64.of_int (sizeof t ty)
  | Ast.Sizeof_expr _ -> raise (Not_const "sizeof of expression")
  | Ast.Call (name, args) -> eval_builtin t name args
  | Ast.Assign _ | Ast.Member _ | Ast.Arrow _ | Ast.Index _ | Ast.Addr_of _ | Ast.Deref _ ->
      raise (Not_const "non-constant expression")
  | Ast.Type_arg ty -> Int64.of_int (sizeof t ty)

and eval_builtin t name args : int64 =
  let arg i =
    match List.nth_opt args i with
    | Some a -> a
    | None -> raise (Not_const (Printf.sprintf "%s: missing argument %d" name i))
  in
  let size_of_arg a =
    match a with
    | Ast.Type_arg ty -> Int64.of_int (sizeof t ty)
    | e -> eval t e
  in
  match name with
  | "_IO" -> ioc ~dir:ioc_none ~typ:(eval t (arg 0)) ~nr:(eval t (arg 1)) ~size:0L
  | "_IOR" -> ioc ~dir:ioc_read ~typ:(eval t (arg 0)) ~nr:(eval t (arg 1)) ~size:(size_of_arg (arg 2))
  | "_IOW" -> ioc ~dir:ioc_write ~typ:(eval t (arg 0)) ~nr:(eval t (arg 1)) ~size:(size_of_arg (arg 2))
  | "_IOWR" ->
      ioc ~dir:(Int64.logor ioc_read ioc_write) ~typ:(eval t (arg 0)) ~nr:(eval t (arg 1))
        ~size:(size_of_arg (arg 2))
  | "_IOC" ->
      ioc ~dir:(eval t (arg 0)) ~typ:(eval t (arg 1)) ~nr:(eval t (arg 2)) ~size:(size_of_arg (arg 3))
  | "_IOC_NR" -> Int64.logand (eval t (arg 0)) 0xffL
  | "_IOC_TYPE" -> Int64.logand (Int64.shift_right_logical (eval t (arg 0)) 8) 0xffL
  | "_IOC_SIZE" -> Int64.logand (Int64.shift_right_logical (eval t (arg 0)) 16) 0x3fffL
  | "_IOC_DIR" -> Int64.logand (Int64.shift_right_logical (eval t (arg 0)) 30) 0x3L
  | other -> raise (Not_const ("call to non-constant function " ^ other))

let eval_opt t e = try Some (eval t e) with Not_const _ -> None

(** Evaluate a macro by name, if it denotes an integer constant.
    Memoized: macro definitions never change after indexing. *)
let eval_macro t name =
  match Hashtbl.find_opt t.macro_value_cache name with
  | Some v -> v
  | None ->
      let v =
        match find_macro t name with
        | None -> None
        | Some md -> (
            try Some (eval t (macro_expr t md)) with Not_const _ | Parser.Error _ -> None)
      in
      Hashtbl.replace t.macro_value_cache name v;
      v

(* [names] is latest first; the definitions come out in first-declaration
   order *)
let in_declaration_order tbl names = List.rev_map (Hashtbl.find tbl) names

(** Every function, each once, in the order of its first declaration,
    with the definition the index kept: one with a body over a forward
    declaration, else the last. *)
let all_functions t = in_declaration_order t.functions t.function_names

(** Every struct and union, each once, in the order of its first
    declaration, with its last definition. *)
let all_composites t = in_declaration_order t.composites t.composite_names

(** Every global, each once, in the order of its first declaration,
    with its last definition. *)
let all_globals t = in_declaration_order t.globals t.global_names

(** Every macro, each once, in the order of its first definition, with
    its last definition. *)
let all_macros t = in_declaration_order t.macros t.macro_names

(** All macros of this index that evaluate to an integer constant, each
    once, in the order of its first definition ({!all_macros}).
    Memoized per index (definitions never change after indexing), so
    worker domains — each owning its own index — never contend on a
    shared slot, and two indexes used alternately keep their own
    results. *)
let all_macro_values t : (string * int64) list =
  match !(t.all_macro_values_cache) with
  | Some vs -> vs
  | None ->
      let vs =
        List.fold_left
          (fun acc name ->
            match eval_macro t name with Some v -> (name, v) :: acc | None -> acc)
          [] t.macro_names
      in
      t.all_macro_values_cache := Some vs;
      vs

(** The {!all_macro_values} that can be [_IO*] encodings, grouped by
    their nr byte: group [nr] holds, in {!all_macro_values} order, every
    value [v] with [v land 0xff = nr] that lies above [0xff] and has a
    non-zero type byte. An [_IO*] encoding always has one; plain small
    constants (option numbers, sizes) do not. Memoized per index. *)
let ioc_macros_by_nr t : (string * int64) list array =
  match !(t.ioc_by_nr_cache) with
  | Some groups -> groups
  | None ->
      let groups = Array.make 256 [] in
      List.iter
        (fun ((_, v) as mv) ->
          if Int64.compare v 0xffL > 0 && Int64.logand v 0xff00L <> 0L then begin
            let nr = Int64.to_int (Int64.logand v 0xffL) in
            groups.(nr) <- mv :: groups.(nr)
          end)
        (List.rev (all_macro_values t));
      t.ioc_by_nr_cache := Some groups;
      groups

(** A macro that expands to a string constant (device names, paths). *)
let rec string_macro t name : string option =
  match find_macro t name with
  | None -> None
  | Some md -> (
      try
        match macro_expr t md with
        | Ast.Const_str s -> Some s
        | Ast.Ident other -> string_macro t other
        | _ -> None
      with Parser.Error _ -> None)

(** Resolve an expression of string type to its literal value: handles
    literals, string macros, and the implicit concatenation produced by
    [DM_DIR "/" DM_CONTROL_NODE]-style macro bodies (the lexer keeps the
    pieces as adjacent tokens which the macro parser folds; identifiers
    adjacent to strings are resolved here). *)
let rec eval_string t (e : Ast.expr) : string option =
  match e with
  | Ast.Const_str s -> Some s
  | Ast.Ident name -> (
      match string_macro t name with
      | Some s -> Some s
      | None -> (
          (* a macro body like [DM_DIR "/" DM_CONTROL_NODE] parses as a
             call-free juxtaposition only if the parser folded it; to stay
             robust we also try evaluating the macro body as Binop Add *)
          match find_macro t name with
          | Some md -> (
              try eval_string t (macro_expr t md) with Parser.Error _ -> None)
          | None -> None))
  | Ast.Binop (Ast.Add, a, b) -> (
      match (eval_string t a, eval_string t b) with
      | Some x, Some y -> Some (x ^ y)
      | _ -> None)
  | _ -> None

(** Memoized constant lookup for a bare identifier: enum item, integer
    macro, or string macro — the interpreter's hottest path. *)
let ident_const (t : t) (name : string) : ident_const =
  match Hashtbl.find_opt t.ident_cache name with
  | Some v -> v
  | None ->
      let v =
        match find_enum_item t name with
        | Some e -> ( match eval_opt t e with Some i -> C_int i | None -> C_none)
        | None -> (
            match eval_macro t name with
            | Some i -> C_int i
            | None -> (
                match string_macro t name with Some s -> C_str s | None -> C_none))
      in
      Hashtbl.replace t.ident_cache name v;
      v

(** All definitions whose name matches, rendered as source text: the
    [ExtractCode] stand-in for oracle prompts. *)
let extract_source t (name : string) : string option =
  match find_function t name with
  | Some fd when fd.fun_body <> [] -> Some (Pretty.func_str fd)
  | _ -> (
      match find_composite t name with
      | Some cd -> Some (Pretty.composite_str cd)
      | None -> (
          match Hashtbl.find_opt t.enum_defs name with
          | Some ed -> Some (Pretty.enum_str ed)
          | None -> (
              match find_macro t name with
              | Some md -> Some (Pretty.macro_str md)
              | None -> (
                  match find_global t name with
                  | Some gd -> Some (Pretty.global_str gd)
                  | None -> None))))

(** Source files that define [name], for diagnostics. *)
let defining_file t (name : string) : string option =
  List.find_map
    (fun f ->
      if List.exists (fun d -> String.equal (Ast.decl_name d) name) f.Ast.decls then
        Some f.Ast.path
      else None)
    t.files

let stats t =
  ( Hashtbl.length t.functions,
    Hashtbl.length t.composites,
    Hashtbl.length t.macros,
    Hashtbl.length t.globals )
