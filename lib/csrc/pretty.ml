(** Pretty-printer from the mini-C AST back to C-like source text.

    Used to render definitions into oracle prompts (the stand-in for the
    paper's [ExtractCode]) and to measure prompt sizes in tokens. Each
    rendering writes into one [Buffer]: the [add_*] writers append a
    node's text, and the [*_str] functions return a definition's text. *)

let add = Buffer.add_string

let add2 buf a b =
  add buf a;
  add buf b

(* [pre], then [x] as [add_x] writes it, then [post] *)
let add_wrapped buf pre add_x x post =
  add buf pre;
  add_x buf x;
  add buf post

(* [pre] and [x], if there is an [x] *)
let add_opt buf pre add_x = function
  | Some x ->
      add buf pre;
      add_x buf x
  | None -> ()

let add_sep_list sep add_item buf items =
  List.iteri
    (fun i item ->
      if i > 0 then add buf sep;
      add_item buf item)
    items

let rec add_type_prefix buf = function
  | Ast.Void -> add buf "void"
  | Ast.Bool -> add buf "bool"
  | Ast.Int { signed = true; width = 8 } -> add buf "char"
  | Ast.Int { signed = true; width = 16 } -> add buf "short"
  | Ast.Int { signed = true; width = 32 } -> add buf "int"
  | Ast.Int { signed = true; width = 64 } -> add buf "long"
  | Ast.Int { signed = false; width = 8 } -> add buf "unsigned char"
  | Ast.Int { signed = false; width = 16 } -> add buf "unsigned short"
  | Ast.Int { signed = false; width = 32 } -> add buf "unsigned int"
  | Ast.Int { signed = false; width = 64 } -> add buf "unsigned long"
  | Ast.Int { signed; width } ->
      add_wrapped buf (if signed then "int" else "uint") add (string_of_int width) "_t"
  | Ast.Named n -> add buf n
  | Ast.Ptr t ->
      add_type_prefix buf t;
      add buf " *"
  | Ast.Array (t, _) -> add_type_prefix buf t
  | Ast.Struct_ref n -> add2 buf "struct " n
  | Ast.Union_ref n -> add2 buf "union " n
  | Ast.Enum_ref n -> add2 buf "enum " n
  | Ast.Func_ptr (ret, args) ->
      add_type_prefix buf ret;
      add_wrapped buf " (*)(" (add_sep_list ", " add_type_prefix) args ")"

let add_type_suffix buf = function
  | Ast.Array (_, Some n) when n <> 0 -> add_wrapped buf "[" add (string_of_int n) "]"
  | Ast.Array _ -> add buf "[]"
  | _ -> ()

(* [ty name], as a declaration writes it *)
let add_declarator buf ty name =
  add_type_prefix buf ty;
  add2 buf " " name;
  add_type_suffix buf ty

let unop_str = function Ast.Neg -> "-" | Ast.Not -> "!" | Ast.Bit_not -> "~"

let binop_str = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Shl -> "<<"
  | Ast.Shr -> ">>"
  | Ast.Band -> "&"
  | Ast.Bor -> "|"
  | Ast.Bxor -> "^"
  | Ast.Land -> "&&"
  | Ast.Lor -> "||"
  | Ast.Eq -> "=="
  | Ast.Ne -> "!="
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="

let add_escaped_c_string buf s =
  String.iter
    (function
      | '\n' -> add buf "\\n"
      | '\t' -> add buf "\\t"
      | '"' -> add buf "\\\""
      | '\\' -> add buf "\\\\"
      | c -> Buffer.add_char buf c)
    s

(* [v] in lower-case hex without leading zeros; [v] is positive *)
let rec add_hex buf v =
  if Int64.compare v 16L >= 0 then add_hex buf (Int64.shift_right_logical v 4);
  Buffer.add_char buf "0123456789abcdef".[Int64.to_int (Int64.logand v 15L)]

let rec add_expr buf (e : Ast.expr) =
  match e with
  | Ast.Const_int v when Int64.compare v 4096L > 0 ->
      add buf "0x";
      add_hex buf v
  | Ast.Const_int v -> add buf (Int64.to_string v)
  | Ast.Const_char c -> add_wrapped buf "'" Buffer.add_char c "'"
  | Ast.Const_str s -> add_wrapped buf "\"" add_escaped_c_string s "\""
  | Ast.Ident s -> add buf s
  | Ast.Unop (op, a) ->
      add buf (unop_str op);
      add_atom buf a
  | Ast.Binop (op, a, b) ->
      add_atom buf a;
      add_wrapped buf " " add (binop_str op) " ";
      add_atom buf b
  | Ast.Assign (a, b) ->
      add_expr buf a;
      add buf " = ";
      add_expr buf b
  | Ast.Call (f, args) ->
      add2 buf f "(";
      add_sep_list ", " add_expr buf args;
      add buf ")"
  | Ast.Member (a, f) ->
      add_atom buf a;
      add2 buf "." f
  | Ast.Arrow (a, f) ->
      add_atom buf a;
      add2 buf "->" f
  | Ast.Index (a, i) ->
      add_atom buf a;
      add_wrapped buf "[" add_expr i "]"
  | Ast.Cast (ty, a) ->
      add_wrapped buf "(" add_type_prefix ty ")";
      add_atom buf a
  | Ast.Sizeof_type ty -> add_wrapped buf "sizeof(" add_type_prefix ty ")"
  | Ast.Sizeof_expr a -> add_wrapped buf "sizeof(" add_expr a ")"
  | Ast.Ternary (c, t, f) ->
      add_atom buf c;
      add_wrapped buf " ? " add_expr t " : ";
      add_expr buf f
  | Ast.Addr_of a ->
      add buf "&";
      add_atom buf a
  | Ast.Deref a ->
      add buf "*";
      add_atom buf a
  | Ast.Type_arg ty -> add_type_prefix buf ty

and add_atom buf e =
  match e with
  | Ast.Const_int _ | Ast.Const_char _ | Ast.Const_str _ | Ast.Ident _ | Ast.Call _
  | Ast.Member _ | Ast.Arrow _ | Ast.Index _ | Ast.Sizeof_type _ | Ast.Sizeof_expr _
  | Ast.Type_arg _ ->
      add_expr buf e
  | _ -> add_wrapped buf "(" add_expr e ")"

let add_indent buf lvl =
  for _ = 1 to lvl do
    add buf "  "
  done

let add_line buf lvl text =
  add_indent buf lvl;
  add2 buf text "\n"

(* [head], [x] as [add_x] writes it, and [tail], on one line *)
let add_line_with buf lvl head add_x x tail =
  add_indent buf lvl;
  add_wrapped buf head add_x x tail;
  add buf "\n"

(* A statement at nesting level [lvl], as whole lines, each ending in a
   newline. *)
let rec add_stmt buf lvl (s : Ast.stmt) =
  match s.node with
  | Ast.Expr_stmt e -> add_line_with buf lvl "" add_expr e ";"
  | Ast.Decl_stmt (ty, name, init) ->
      add_indent buf lvl;
      add_declarator buf ty name;
      add_opt buf " = " add_expr init;
      add buf ";\n"
  | Ast.If (c, t, e) ->
      add_line_with buf lvl "if (" add_expr c ") {";
      add_body buf lvl t;
      (match e with
      | Some e ->
          add_line buf lvl "} else {";
          add_body buf lvl e
      | None -> ());
      add_line buf lvl "}"
  | Ast.Switch (c, cases) ->
      add_line_with buf lvl "switch (" add_expr c ") {";
      List.iter
        (fun case ->
          List.iter
            (function
              | Ast.Case e -> add_line_with buf lvl "case " add_expr e ":"
              | Ast.Default -> add_line buf lvl "default:")
            case.Ast.labels;
          add_body buf lvl case.Ast.case_body)
        cases;
      add_line buf lvl "}"
  | Ast.While (c, b) ->
      add_line_with buf lvl "while (" add_expr c ") {";
      add_body buf lvl b;
      add_line buf lvl "}"
  | Ast.Do_while (b, c) ->
      add_line buf lvl "do {";
      add_body buf lvl b;
      add_line_with buf lvl "} while (" add_expr c ");"
  | Ast.For (i, c, u, b) ->
      let opt buf = Option.iter (add_expr buf) in
      add_indent buf lvl;
      add_wrapped buf "for (" opt i "; ";
      add_wrapped buf "" opt c "; ";
      add_wrapped buf "" opt u ") {\n";
      add_body buf lvl b;
      add_line buf lvl "}"
  | Ast.Return None -> add_line buf lvl "return;"
  | Ast.Return (Some e) -> add_line_with buf lvl "return " add_expr e ";"
  | Ast.Break -> add_line buf lvl "break;"
  | Ast.Continue -> add_line buf lvl "continue;"
  | Ast.Goto l -> add_line_with buf lvl "goto " add l ";"
  | Ast.Label l -> add_line_with buf (max 0 (lvl - 1)) "" add l ":"
  | Ast.Block b ->
      add_line buf lvl "{";
      add_body buf lvl b;
      add_line buf lvl "}"

(* the statements of a block opened at level [lvl] *)
and add_body buf lvl b = List.iter (add_stmt buf (lvl + 1)) b

let add_params buf = function
  | [] -> add buf "void"
  | ps ->
      add_sep_list ", "
        (fun buf (ty, n) ->
          add_type_prefix buf ty;
          add2 buf " " n)
        buf ps

let add_func buf (f : Ast.func_def) =
  if f.fun_static then add buf "static ";
  add_type_prefix buf f.fun_ret;
  add2 buf " " f.fun_name;
  add_wrapped buf "(" add_params f.fun_params ")";
  if f.fun_body = [] then add buf ";"
  else begin
    add buf " {\n";
    add_body buf 0 f.fun_body;
    add buf "}"
  end

let add_field buf (fld : Ast.field) =
  (match fld.field_type with
  | Ast.Func_ptr (ret, args) ->
      add_wrapped buf "  " add_type_prefix ret " (*";
      add2 buf fld.field_name ")(";
      add_sep_list ", " add_type_prefix buf args;
      add buf ");"
  | ty ->
      add buf "  ";
      add_declarator buf ty fld.field_name;
      add buf ";");
  match fld.field_comment with Some c -> add_wrapped buf " /* " add c " */" | None -> ()

let add_composite buf (c : Ast.composite_def) =
  add buf (match c.comp_kind with Ast.Struct -> "struct " | Ast.Union -> "union ");
  add2 buf c.comp_name " {\n";
  List.iter
    (fun fld ->
      add_field buf fld;
      add buf "\n")
    c.fields;
  add buf "};"

let add_enum buf (e : Ast.enum_def) =
  add buf "enum";
  add_opt buf " " add e.enum_name;
  add buf " {\n";
  List.iter
    (fun i ->
      add2 buf "  " i.Ast.item_name;
      add_opt buf " = " add_expr i.Ast.item_value;
      add buf ",\n")
    e.items;
  add buf "};"

let rec add_ginit buf = function
  | Ast.Init_expr e -> add_expr buf e
  | Ast.Init_designated fields ->
      add buf "{\n";
      List.iter
        (fun (f, v) ->
          add2 buf "  ." f;
          add_wrapped buf " = " add_ginit v ",\n")
        fields;
      add buf "}"
  | Ast.Init_list items -> add_wrapped buf "{ " (add_sep_list ", " add_ginit) items " }"

let add_global buf (g : Ast.global_def) =
  if g.global_static then add buf "static ";
  add_declarator buf g.global_type g.global_name;
  add_opt buf " = " add_ginit g.global_init;
  add buf ";"

let add_macro buf (m : Ast.macro_def) =
  add_wrapped buf "#define " add m.macro_name " ";
  add_sep_list " " (fun buf tok -> add buf (Token.to_string tok)) buf m.macro_body

let add_decl buf = function
  | Ast.D_composite c -> add_composite buf c
  | Ast.D_enum e -> add_enum buf e
  | Ast.D_func f -> add_func buf f
  | Ast.D_global g -> add_global buf g
  | Ast.D_macro m -> add_macro buf m
  | Ast.D_typedef t ->
      add_wrapped buf "typedef " add_type_prefix t.td_type " ";
      add2 buf t.td_name ";"

(* One buffer per domain serves every rendering, so a long definition
   does not regrow a fresh buffer past the minor heap's 256-word limit
   each time it is printed. No writer renders through [to_string], so a
   rendering never nests in another. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 4096)

let to_string add_x x =
  let buf = Domain.DLS.get scratch in
  Buffer.clear buf;
  add_x buf x;
  Buffer.contents buf

let func_str = to_string add_func
let composite_str = to_string add_composite
let enum_str = to_string add_enum
let global_str = to_string add_global
let macro_str = to_string add_macro
let file_str (f : Ast.file) = to_string (add_sep_list "\n\n" add_decl) f.decls
