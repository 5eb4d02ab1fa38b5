(** Recursive-descent parser for the mini-C dialect.

    Statement ids ([sid]) are drawn from a caller-supplied counter so that
    they are unique across the whole corpus; the virtual kernel uses them
    as coverage points.

    The parser walks the lexer's token list from its head: lookahead is
    at most two tokens, so a list serves as well as an array and keeps a
    parse's garbage young (see {!Lexer}). *)

exception Error of string * Loc.t

type state = {
  mutable toks : Token.spanned list;  (** the unread tokens, ending in [Eof] *)
  file : string;
  sid : int ref;
  typedefs : (string, unit) Hashtbl.t;  (** the file's own typedef names *)
  comment_on_line : string option array;
      (** line -> text of the first comment starting on it *)
  code_on_line : bool array;  (** line -> some token other than [Eof] is on it *)
}

(* Typedef names every source may use without declaring them. A string
   match, so no parse copies them into its table. *)
let is_builtin_typedef = function
  | "u8" | "u16" | "u32" | "u64" | "s8" | "s16" | "s32" | "s64"
  | "__u8" | "__u16" | "__u32" | "__u64" | "__s8" | "__s16" | "__s32" | "__s64"
  | "size_t" | "ssize_t" | "loff_t" | "off_t" | "pid_t" | "uid_t" | "gid_t"
  | "uint" | "ulong" | "ushort" | "uintptr_t" | "dev_t" | "umode_t" | "fmode_t"
  | "poll_table" | "wait_queue_head_t" | "spinlock_t" | "atomic_t" | "gfp_t" ->
      true
  | _ -> false

let qualifiers =
  [ "__user"; "__init"; "__exit"; "__iomem"; "__force"; "__rcu"; "inline"; "volatile"; "__must_check" ]

let make ~file ~sid (lexed : Lexer.result) =
  (* only comments attach anything, so without them both tables stay empty:
     the macro bodies [expr_of_tokens] parses on every evaluation never
     have any, and build no tables *)
  let comment_on_line, code_on_line =
    if lexed.comments = [] then ([||], [||])
    else
      let last_line =
        List.fold_left (fun m (t : Token.spanned) -> max m t.line) 0 lexed.tokens
      in
      let last_line = List.fold_left (fun m c -> max m c.Lexer.cline) last_line lexed.comments in
      let comment_on_line = Array.make (last_line + 1) None in
      List.iter
        (fun c ->
          if comment_on_line.(c.Lexer.cline) = None then
            comment_on_line.(c.Lexer.cline) <- Some c.Lexer.text)
        lexed.comments;
      let code_on_line = Array.make (last_line + 1) false in
      List.iter
        (fun (t : Token.spanned) -> if t.tok <> Token.Eof then code_on_line.(t.line) <- true)
        lexed.tokens;
      (comment_on_line, code_on_line)
  in
  { toks = lexed.tokens; file; sid; typedefs = Hashtbl.create 16; comment_on_line; code_on_line }

(* The token list is never empty: the lexer ends it with [Eof], and
   [advance] never drops the last token. *)
let cur st = match st.toks with t :: _ -> t.Token.tok | [] -> Token.Eof

let cur_line st = match st.toks with t :: _ -> t.Token.line | [] -> 0

let loc st = Loc.make ~file:st.file ~line:(cur_line st)

(* the token [off] places after the current one; [Eof] past the end *)
let peek st off =
  let rec go off = function
    | [] -> Token.Eof
    | (t : Token.spanned) :: rest -> if off = 0 then t.tok else go (off - 1) rest
  in
  go off st.toks

let advance st = match st.toks with _ :: (_ :: _ as rest) -> st.toks <- rest | _ -> ()

let error st msg = raise (Error (msg, loc st))

let expect st tok =
  if Token.equal (cur st) tok then advance st
  else
    error st
      (Printf.sprintf "expected %s but found %s" (Token.to_string tok)
         (Token.to_string (cur st)))

let accept st tok =
  if Token.equal (cur st) tok then (
    advance st;
    true)
  else false

let expect_ident st =
  match cur st with
  | Token.Ident s ->
      advance st;
      s
  | t -> error st (Printf.sprintf "expected identifier but found %s" (Token.to_string t))

let fresh_sid st =
  let v = !(st.sid) in
  st.sid := v + 1;
  v

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let skip_qualifiers st =
  let rec go () =
    match cur st with
    | Token.Kw_const ->
        advance st;
        go ()
    | Token.Ident id when List.mem id qualifiers ->
        advance st;
        go ()
    | _ -> ()
  in
  go ()

let is_typedef_name st id = is_builtin_typedef id || Hashtbl.mem st.typedefs id

(** Does the current token start a type? Used to disambiguate casts,
    declarations, and type arguments to the [_IO*] builtins. *)
let starts_type st =
  match cur st with
  | Token.Kw_struct | Token.Kw_union | Token.Kw_enum | Token.Kw_void | Token.Kw_bool
  | Token.Kw_char | Token.Kw_short | Token.Kw_int | Token.Kw_long | Token.Kw_unsigned
  | Token.Kw_signed | Token.Kw_const ->
      true
  | Token.Ident id -> is_typedef_name st id || List.mem id qualifiers
  | _ -> false

(** Parse a base type (no pointers/arrays): [unsigned long], [struct x],
    [u32], ... *)
let parse_base_type st : Ast.ctype =
  skip_qualifiers st;
  let int_of ~signed words =
    (* words: list of short/long/int/char tokens seen *)
    match words with
    | [ `Char ] -> Ast.Int { signed; width = 8 }
    | [ `Short ] | [ `Short; `Int ] -> Ast.Int { signed; width = 16 }
    | [] | [ `Int ] -> Ast.Int { signed; width = 32 }
    | [ `Long ] | [ `Long; `Int ] | [ `Long; `Long ] | [ `Long; `Long; `Int ] ->
        Ast.Int { signed; width = 64 }
    | _ -> error st "unsupported integer type"
  in
  let rec gather acc =
    match cur st with
    | Token.Kw_char ->
        advance st;
        gather (acc @ [ `Char ])
    | Token.Kw_short ->
        advance st;
        gather (acc @ [ `Short ])
    | Token.Kw_int ->
        advance st;
        gather (acc @ [ `Int ])
    | Token.Kw_long ->
        advance st;
        gather (acc @ [ `Long ])
    | _ -> acc
  in
  match cur st with
  | Token.Kw_void ->
      advance st;
      Ast.Void
  | Token.Kw_bool ->
      advance st;
      Ast.Bool
  | Token.Kw_unsigned ->
      advance st;
      let words = gather [] in
      int_of ~signed:false words
  | Token.Kw_signed ->
      advance st;
      let words = gather [] in
      int_of ~signed:true words
  | Token.Kw_char | Token.Kw_short | Token.Kw_int | Token.Kw_long ->
      let words = gather [] in
      int_of ~signed:true words
  | Token.Kw_struct ->
      advance st;
      let name = expect_ident st in
      Ast.Struct_ref name
  | Token.Kw_union ->
      advance st;
      let name = expect_ident st in
      Ast.Union_ref name
  | Token.Kw_enum ->
      advance st;
      let name = expect_ident st in
      Ast.Enum_ref name
  | Token.Ident id when is_typedef_name st id ->
      advance st;
      Ast.Named id
  | t -> error st (Printf.sprintf "expected type but found %s" (Token.to_string t))

let parse_pointers st ty =
  let rec go ty =
    (* qualifiers such as [__user] may appear before or after each star *)
    skip_qualifiers st;
    if accept st Token.Star then (
      skip_qualifiers st;
      go (Ast.Ptr ty))
    else ty
  in
  go ty

(** Parse a full abstract type (base + pointers), as used for casts,
    sizeof, and unnamed function-pointer parameters. *)
let parse_abstract_type st : Ast.ctype =
  let base = parse_base_type st in
  parse_pointers st base

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let binop_of_token = function
  | Token.Plus -> Some (Ast.Add, 9)
  | Token.Minus -> Some (Ast.Sub, 9)
  | Token.Star -> Some (Ast.Mul, 10)
  | Token.Slash -> Some (Ast.Div, 10)
  | Token.Percent -> Some (Ast.Mod, 10)
  | Token.Shl -> Some (Ast.Shl, 8)
  | Token.Shr -> Some (Ast.Shr, 8)
  | Token.Lt -> Some (Ast.Lt, 7)
  | Token.Le -> Some (Ast.Le, 7)
  | Token.Gt -> Some (Ast.Gt, 7)
  | Token.Ge -> Some (Ast.Ge, 7)
  | Token.Eq_eq -> Some (Ast.Eq, 6)
  | Token.Bang_eq -> Some (Ast.Ne, 6)
  | Token.Amp -> Some (Ast.Band, 5)
  | Token.Caret -> Some (Ast.Bxor, 4)
  | Token.Pipe -> Some (Ast.Bor, 3)
  | Token.Amp_amp -> Some (Ast.Land, 2)
  | Token.Pipe_pipe -> Some (Ast.Lor, 1)
  | _ -> None

let compound_assign_of_token = function
  | Token.Plus_assign -> Some Ast.Add
  | Token.Minus_assign -> Some Ast.Sub
  | Token.Star_assign -> Some Ast.Mul
  | Token.Slash_assign -> Some Ast.Div
  | Token.Amp_assign -> Some Ast.Band
  | Token.Pipe_assign -> Some Ast.Bor
  | Token.Caret_assign -> Some Ast.Bxor
  | Token.Shl_assign -> Some Ast.Shl
  | Token.Shr_assign -> Some Ast.Shr
  | _ -> None

let rec parse_expr st : Ast.expr = parse_assign st

and parse_assign st =
  let lhs = parse_ternary st in
  match cur st with
  | Token.Assign ->
      advance st;
      let rhs = parse_assign st in
      Ast.Assign (lhs, rhs)
  | t -> (
      match compound_assign_of_token t with
      | Some op ->
          advance st;
          let rhs = parse_assign st in
          Ast.Assign (lhs, Ast.Binop (op, lhs, rhs))
      | None -> lhs)

and parse_ternary st =
  let cond = parse_binary st 1 in
  if accept st Token.Question then (
    let t = parse_expr st in
    expect st Token.Colon;
    let f = parse_ternary st in
    Ast.Ternary (cond, t, f))
  else cond

and parse_binary st min_prec =
  let lhs = parse_unary st in
  let rec go lhs =
    match binop_of_token (cur st) with
    | Some (op, prec) when prec >= min_prec ->
        advance st;
        let rhs = parse_binary st (prec + 1) in
        go (Ast.Binop (op, lhs, rhs))
    | _ -> lhs
  in
  go lhs

and parse_unary st =
  match cur st with
  | Token.Minus ->
      advance st;
      Ast.Unop (Ast.Neg, parse_unary st)
  | Token.Bang ->
      advance st;
      Ast.Unop (Ast.Not, parse_unary st)
  | Token.Tilde ->
      advance st;
      Ast.Unop (Ast.Bit_not, parse_unary st)
  | Token.Star ->
      advance st;
      Ast.Deref (parse_unary st)
  | Token.Amp ->
      advance st;
      Ast.Addr_of (parse_unary st)
  | Token.Plus_plus ->
      advance st;
      let e = parse_unary st in
      Ast.Assign (e, Ast.Binop (Ast.Add, e, Ast.Const_int 1L))
  | Token.Minus_minus ->
      advance st;
      let e = parse_unary st in
      Ast.Assign (e, Ast.Binop (Ast.Sub, e, Ast.Const_int 1L))
  | Token.Kw_sizeof ->
      advance st;
      expect st Token.Lparen;
      let e =
        if starts_type st then (
          let ty = parse_abstract_type st in
          Ast.Sizeof_type ty)
        else Ast.Sizeof_expr (parse_expr st)
      in
      expect st Token.Rparen;
      e
  | Token.Lparen when starts_type_for_cast st ->
      advance st;
      let ty = parse_abstract_type st in
      expect st Token.Rparen;
      let e = parse_unary st in
      Ast.Cast (ty, e)
  | _ -> parse_postfix st

(* A '(' begins a cast only if the token after it starts a type. [const]
   alone is not enough since the corpus never casts to a bare qualifier. *)
and starts_type_for_cast st =
  match peek st 1 with
  | Token.Kw_struct | Token.Kw_union | Token.Kw_enum | Token.Kw_void | Token.Kw_bool
  | Token.Kw_char | Token.Kw_short | Token.Kw_int | Token.Kw_long | Token.Kw_unsigned
  | Token.Kw_signed | Token.Kw_const ->
      true
  | Token.Ident id -> is_typedef_name st id
  | _ -> false

and parse_postfix st =
  let e = parse_primary st in
  let e = glue_strings st e in
  let rec go e =
    match cur st with
    | Token.Dot ->
        advance st;
        let f = expect_ident st in
        go (Ast.Member (e, f))
    | Token.Arrow ->
        advance st;
        let f = expect_ident st in
        go (Ast.Arrow (e, f))
    | Token.Lbracket ->
        advance st;
        let idx = parse_expr st in
        expect st Token.Rbracket;
        go (Ast.Index (e, idx))
    | Token.Plus_plus ->
        advance st;
        go (Ast.Assign (e, Ast.Binop (Ast.Add, e, Ast.Const_int 1L)))
    | Token.Minus_minus ->
        advance st;
        go (Ast.Assign (e, Ast.Binop (Ast.Sub, e, Ast.Const_int 1L)))
    | _ -> e
  in
  go e

(* C pastes adjacent string literals after macro expansion; the corpus
   relies on this for device paths like [DM_DIR "/" DM_CONTROL_NODE].
   Juxtaposed (string | macro-identifier) runs become a concatenation
   chain encoded with [Add], which {!Index.eval_string} folds. *)
and glue_strings st e =
  let is_strish = function Ast.Const_str _ -> true | _ -> false in
  let rec loop e seen_str =
    match cur st with
    | Token.Str_lit s ->
        advance st;
        loop (Ast.Binop (Ast.Add, e, Ast.Const_str s)) true
    | Token.Ident id when seen_str && not (Token.equal (peek st 1) Token.Lparen) ->
        advance st;
        loop (Ast.Binop (Ast.Add, e, Ast.Ident id)) seen_str
    | _ -> e
  in
  loop e (is_strish e)

and parse_call_args st =
  expect st Token.Lparen;
  if accept st Token.Rparen then []
  else
    let rec go acc =
      let arg =
        if starts_type st && not_an_expression_head st then Ast.Type_arg (parse_abstract_type st)
        else parse_expr st
      in
      if accept st Token.Comma then go (arg :: acc)
      else (
        expect st Token.Rparen;
        List.rev (arg :: acc))
    in
    go []

(* [struct x] in argument position is always a type argument; a typedef
   name is one only when not followed by an operator that would make it an
   expression. *)
and not_an_expression_head st =
  match cur st with
  | Token.Kw_struct | Token.Kw_union | Token.Kw_enum | Token.Kw_void | Token.Kw_unsigned
  | Token.Kw_signed | Token.Kw_bool ->
      true
  | Token.Kw_char | Token.Kw_short | Token.Kw_int | Token.Kw_long -> true
  | Token.Ident id when is_typedef_name st id -> (
      match peek st 1 with
      | Token.Comma | Token.Rparen | Token.Star -> true
      | _ -> false)
  | _ -> false

and parse_primary st =
  match cur st with
  | Token.Int_lit v ->
      advance st;
      Ast.Const_int v
  | Token.Char_lit c ->
      advance st;
      Ast.Const_char c
  | Token.Str_lit s ->
      advance st;
      (* adjacent string literals concatenate, as in C *)
      let buf = Buffer.create (String.length s + 8) in
      Buffer.add_string buf s;
      let rec glue () =
        match cur st with
        | Token.Str_lit s2 ->
            advance st;
            Buffer.add_string buf s2;
            glue ()
        | _ -> ()
      in
      glue ();
      Ast.Const_str (Buffer.contents buf)
  | Token.Ident name -> (
      advance st;
      match cur st with
      | Token.Lparen ->
          let args = parse_call_args st in
          Ast.Call (name, args)
      | _ -> Ast.Ident name)
  | Token.Lparen ->
      advance st;
      let e = parse_expr st in
      expect st Token.Rparen;
      e
  | t -> error st (Printf.sprintf "expected expression but found %s" (Token.to_string t))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec parse_stmt st : Ast.stmt =
  let l = loc st in
  let mk node = { Ast.sid = fresh_sid st; sloc = l; node } in
  match cur st with
  | Token.Lbrace -> mk (Ast.Block (parse_block st))
  | Token.Kw_if ->
      advance st;
      expect st Token.Lparen;
      let cond = parse_expr st in
      expect st Token.Rparen;
      let then_b = parse_stmt_as_block st in
      let else_b =
        if accept st Token.Kw_else then Some (parse_stmt_as_block st) else None
      in
      mk (Ast.If (cond, then_b, else_b))
  | Token.Kw_switch ->
      advance st;
      expect st Token.Lparen;
      let scrutinee = parse_expr st in
      expect st Token.Rparen;
      expect st Token.Lbrace;
      let cases = parse_switch_cases st in
      expect st Token.Rbrace;
      mk (Ast.Switch (scrutinee, cases))
  | Token.Kw_while ->
      advance st;
      expect st Token.Lparen;
      let cond = parse_expr st in
      expect st Token.Rparen;
      let body = parse_stmt_as_block st in
      mk (Ast.While (cond, body))
  | Token.Kw_do ->
      advance st;
      let body = parse_stmt_as_block st in
      expect st Token.Kw_while;
      expect st Token.Lparen;
      let cond = parse_expr st in
      expect st Token.Rparen;
      expect st Token.Semi;
      mk (Ast.Do_while (body, cond))
  | Token.Kw_for ->
      advance st;
      expect st Token.Lparen;
      let init =
        if Token.equal (cur st) Token.Semi then None
        else if starts_type st then (
          (* desugar "for (int i = 0; ...)" into a decl before the loop is
             not possible here, so we keep the init as an assignment and
             rely on implicit declaration by the interpreter *)
          let _ty = parse_abstract_type st in
          let name = expect_ident st in
          expect st Token.Assign;
          let v = parse_expr st in
          Some (Ast.Assign (Ast.Ident name, v)))
        else Some (parse_expr st)
      in
      expect st Token.Semi;
      let cond = if Token.equal (cur st) Token.Semi then None else Some (parse_expr st) in
      expect st Token.Semi;
      let step = if Token.equal (cur st) Token.Rparen then None else Some (parse_expr st) in
      expect st Token.Rparen;
      let body = parse_stmt_as_block st in
      mk (Ast.For (init, cond, step, body))
  | Token.Kw_return ->
      advance st;
      let e = if Token.equal (cur st) Token.Semi then None else Some (parse_expr st) in
      expect st Token.Semi;
      mk (Ast.Return e)
  | Token.Kw_break ->
      advance st;
      expect st Token.Semi;
      mk Ast.Break
  | Token.Kw_continue ->
      advance st;
      expect st Token.Semi;
      mk Ast.Continue
  | Token.Kw_goto ->
      advance st;
      let label = expect_ident st in
      expect st Token.Semi;
      mk (Ast.Goto label)
  | Token.Ident name when Token.equal (peek st 1) Token.Colon ->
      advance st;
      advance st;
      mk (Ast.Label name)
  | _ when starts_type st && is_decl_lookahead st ->
      let ty = parse_abstract_type st in
      let name = expect_ident st in
      let ty =
        if accept st Token.Lbracket then (
          let size =
            match cur st with
            | Token.Int_lit v ->
                advance st;
                Some (Int64.to_int v)
            | Token.Ident _ ->
                let _ = parse_expr st in
                Some 0
            | _ -> None
          in
          expect st Token.Rbracket;
          Ast.Array (ty, size))
        else ty
      in
      let init = if accept st Token.Assign then Some (parse_expr st) else None in
      expect st Token.Semi;
      mk (Ast.Decl_stmt (ty, name, init))
  | _ ->
      let e = parse_expr st in
      expect st Token.Semi;
      mk (Ast.Expr_stmt e)

(* Lookahead to distinguish a declaration from an expression statement:
   after the type there must be an identifier followed by '=', ';' or '['. *)
and is_decl_lookahead st =
  match cur st with
  | Token.Kw_struct | Token.Kw_union | Token.Kw_enum | Token.Kw_void | Token.Kw_bool
  | Token.Kw_char | Token.Kw_short | Token.Kw_int | Token.Kw_long | Token.Kw_unsigned
  | Token.Kw_signed | Token.Kw_const ->
      true
  | Token.Ident id when is_typedef_name st id -> (
      match peek st 1 with
      | Token.Ident _ | Token.Star -> true
      | _ -> false)
  | Token.Ident id when List.mem id qualifiers -> true
  | _ -> false

and parse_stmt_as_block st : Ast.block =
  if Token.equal (cur st) Token.Lbrace then parse_block st else [ parse_stmt st ]

and parse_block st : Ast.block =
  expect st Token.Lbrace;
  let rec go acc =
    if Token.equal (cur st) Token.Rbrace then (
      advance st;
      List.rev acc)
    else go (parse_stmt st :: acc)
  in
  go []

and parse_switch_cases st : Ast.switch_case list =
  let parse_labels () =
    let rec go acc =
      match cur st with
      | Token.Kw_case ->
          advance st;
          let e = parse_expr st in
          expect st Token.Colon;
          go (Ast.Case e :: acc)
      | Token.Kw_default ->
          advance st;
          expect st Token.Colon;
          go (Ast.Default :: acc)
      | _ -> List.rev acc
    in
    go []
  in
  let rec parse_cases acc =
    match cur st with
    | Token.Rbrace -> List.rev acc
    | Token.Kw_case | Token.Kw_default ->
        let labels = parse_labels () in
        let rec body acc =
          match cur st with
          | Token.Kw_case | Token.Kw_default | Token.Rbrace -> List.rev acc
          | _ -> body (parse_stmt st :: acc)
        in
        let case_body = body [] in
        parse_cases ({ Ast.labels; case_body } :: acc)
    | t -> error st (Printf.sprintf "expected case/default but found %s" (Token.to_string t))
  in
  parse_cases []

(* ------------------------------------------------------------------ *)
(* Top-level declarations                                              *)
(* ------------------------------------------------------------------ *)

(** Comment attached to a source line: a trailing comment on the same line,
    or a comment *alone* on the preceding line (a trailing comment of the
    previous declaration does not carry over). *)
let comment_for st line =
  let comment_on l =
    if l >= 0 && l < Array.length st.comment_on_line then st.comment_on_line.(l) else None
  in
  match (comment_on line, comment_on (line - 1)) with
  | (Some _ as same), _ -> same
  | None, (Some _ as above) when not st.code_on_line.(line - 1) -> above
  | _ -> None

let parse_field st : Ast.field =
  let line = cur_line st in
  let base = parse_base_type st in
  (* function-pointer field: [ret ( *name )(args)] *)
  if Token.equal (cur st) Token.Lparen && Token.equal (peek st 1) Token.Star then (
    advance st;
    advance st;
    let name = expect_ident st in
    expect st Token.Rparen;
    expect st Token.Lparen;
    let args =
      if accept st Token.Rparen then []
      else
        let rec go acc =
          let ty = parse_abstract_type st in
          (* optional parameter name *)
          (match cur st with Token.Ident _ -> advance st | _ -> ());
          if accept st Token.Comma then go (ty :: acc)
          else (
            expect st Token.Rparen;
            List.rev (ty :: acc))
        in
        go []
    in
    expect st Token.Semi;
    { Ast.field_name = name; field_type = Ast.Func_ptr (base, args); field_comment = comment_for st line })
  else
    let ty = parse_pointers st base in
    let name = expect_ident st in
    let ty =
      if accept st Token.Lbracket then (
        let size =
          match cur st with
          | Token.Int_lit v ->
              advance st;
              Some (Int64.to_int v)
          | Token.Rbracket -> None
          | _ ->
              (* symbolic array size: treat as fixed, size resolved later *)
              let _ = parse_expr st in
              Some 0
        in
        expect st Token.Rbracket;
        Ast.Array (ty, size))
      else ty
    in
    expect st Token.Semi;
    { Ast.field_name = name; field_type = ty; field_comment = comment_for st line }

let parse_composite st kind : Ast.composite_def =
  let comp_loc = loc st in
  (match kind with
  | Ast.Struct -> expect st Token.Kw_struct
  | Ast.Union -> expect st Token.Kw_union);
  let name = expect_ident st in
  expect st Token.Lbrace;
  let rec fields acc =
    if Token.equal (cur st) Token.Rbrace then (
      advance st;
      List.rev acc)
    else fields (parse_field st :: acc)
  in
  let fields = fields [] in
  expect st Token.Semi;
  { Ast.comp_kind = kind; comp_name = name; fields; comp_loc }

let parse_enum st : Ast.enum_def =
  let enum_loc = loc st in
  expect st Token.Kw_enum;
  let name = match cur st with
    | Token.Ident n ->
        advance st;
        Some n
    | _ -> None
  in
  expect st Token.Lbrace;
  let rec items acc =
    match cur st with
    | Token.Rbrace ->
        advance st;
        List.rev acc
    | Token.Ident item_name ->
        advance st;
        let item_value = if accept st Token.Assign then Some (parse_expr st) else None in
        let _ = accept st Token.Comma in
        items ({ Ast.item_name; item_value } :: acc)
    | t -> error st (Printf.sprintf "expected enum item but found %s" (Token.to_string t))
  in
  let items = items [] in
  expect st Token.Semi;
  { Ast.enum_name = name; items; enum_loc }

let rec parse_ginit st : Ast.ginit =
  if Token.equal (cur st) Token.Lbrace then (
    advance st;
    if Token.equal (cur st) Token.Dot then (
      (* designated initializer *)
      let rec go acc =
        expect st Token.Dot;
        let fname = expect_ident st in
        expect st Token.Assign;
        let v = parse_ginit st in
        let acc = (fname, v) :: acc in
        if accept st Token.Comma then
          if Token.equal (cur st) Token.Rbrace then (
            advance st;
            List.rev acc)
          else go acc
        else (
          expect st Token.Rbrace;
          List.rev acc)
      in
      Ast.Init_designated (go []))
    else
      let rec go acc =
        if Token.equal (cur st) Token.Rbrace then (
          advance st;
          List.rev acc)
        else
          let v = parse_ginit st in
          let acc = v :: acc in
          if accept st Token.Comma then go acc
          else (
            expect st Token.Rbrace;
            List.rev acc)
      in
      Ast.Init_list (go []))
  else Ast.Init_expr (parse_expr st)

let parse_macro st : Ast.macro_def =
  let macro_loc = loc st in
  expect st Token.Hash_define;
  let name = expect_ident st in
  let rec body acc =
    match cur st with
    | Token.Newline ->
        advance st;
        List.rev acc
    | Token.Eof -> List.rev acc
    | t ->
        advance st;
        body (t :: acc)
  in
  { Ast.macro_name = name; macro_body = body []; macro_loc }

(** Parse one top-level declaration. *)
let parse_decl st : Ast.decl option =
  match cur st with
  | Token.Eof -> None
  | Token.Hash_include ->
      advance st;
      (* includes carry no information in the synthetic corpus *)
      Some (D_macro { macro_name = "__include__"; macro_body = []; macro_loc = loc st })
  | Token.Hash_define -> Some (Ast.D_macro (parse_macro st))
  | Token.Kw_typedef ->
      let td_loc = loc st in
      advance st;
      let ty = parse_abstract_type st in
      let name = expect_ident st in
      expect st Token.Semi;
      Hashtbl.replace st.typedefs name ();
      Some (Ast.D_typedef { td_name = name; td_type = ty; td_loc })
  | Token.Kw_struct when Token.equal (peek st 2) Token.Lbrace ->
      Some (Ast.D_composite (parse_composite st Ast.Struct))
  | Token.Kw_union when Token.equal (peek st 2) Token.Lbrace ->
      Some (Ast.D_composite (parse_composite st Ast.Union))
  | Token.Kw_enum when Token.equal (peek st 1) Token.Lbrace || Token.equal (peek st 2) Token.Lbrace ->
      Some (Ast.D_enum (parse_enum st))
  | _ ->
      (* function or global *)
      let gloc = loc st in
      let static = accept st Token.Kw_static in
      skip_qualifiers st;
      let base = parse_base_type st in
      let ty = parse_pointers st base in
      let name = expect_ident st in
      if Token.equal (cur st) Token.Lparen then (
        (* function definition *)
        advance st;
        let params =
          if accept st Token.Rparen then []
          else if Token.equal (cur st) Token.Kw_void && Token.equal (peek st 1) Token.Rparen then (
            advance st;
            advance st;
            [])
          else
            let rec go acc =
              let pty = parse_abstract_type st in
              let pname = match cur st with
                | Token.Ident n ->
                    advance st;
                    n
                | _ -> "_"
              in
              (* array parameter decays to pointer *)
              let pty =
                if accept st Token.Lbracket then (
                  (match cur st with Token.Int_lit _ -> advance st | _ -> ());
                  expect st Token.Rbracket;
                  Ast.Ptr pty)
                else pty
              in
              if accept st Token.Comma then go ((pty, pname) :: acc)
              else (
                expect st Token.Rparen;
                List.rev ((pty, pname) :: acc))
            in
            go []
        in
        if accept st Token.Semi then
          (* forward declaration: keep as a macro-like marker, no body *)
          Some
            (Ast.D_func
               { fun_name = name; fun_ret = ty; fun_params = params; fun_body = [];
                 fun_static = static; fun_loc = gloc })
        else
          let body = parse_block st in
          Some
            (Ast.D_func
               { fun_name = name; fun_ret = ty; fun_params = params; fun_body = body;
                 fun_static = static; fun_loc = gloc }))
      else
        let ty =
          if accept st Token.Lbracket then (
            let size =
              match cur st with
              | Token.Int_lit v ->
                  advance st;
                  Some (Int64.to_int v)
              | Token.Rbracket -> None
              | _ ->
                  let _ = parse_expr st in
                  Some 0
            in
            expect st Token.Rbracket;
            Ast.Array (ty, size))
          else ty
        in
        let init = if accept st Token.Assign then Some (parse_ginit st) else None in
        expect st Token.Semi;
        Some
          (Ast.D_global
             { global_name = name; global_type = ty; global_init = init;
               global_static = static; global_loc = gloc })

let parse_file ~file ~sid (src : string) : Ast.file =
  let lexed = Lexer.lex src in
  let st = make ~file ~sid lexed in
  let rec go acc =
    match parse_decl st with
    | None -> List.rev acc
    | Some (Ast.D_macro { macro_name = "__include__"; _ }) -> go acc
    | Some d -> go (d :: acc)
  in
  { Ast.path = file; decls = go [] }

(** Parse a raw token list (e.g. a macro body) as a single expression.
    [extra_typedefs] are typedef names beyond the builtin ones, so that
    type arguments such as [struct dm_ioctl] inside [_IOWR(...)] parse. *)
let expr_of_tokens ?(extra_typedefs = []) (toks : Token.t list) : Ast.expr =
  let spanned =
    List.fold_right
      (fun tok acc -> { Token.tok; line = 0 } :: acc)
      toks
      [ { Token.tok = Token.Eof; line = 0 } ]
  in
  let st = make ~file:"<macro>" ~sid:(ref 0) { Lexer.tokens = spanned; comments = [] } in
  List.iter (fun n -> Hashtbl.replace st.typedefs n ()) extra_typedefs;
  parse_expr st

