(** Parser for syzlang specification text.

    Accepts the subset printed by {!Printer} (and hand-written specs in
    the same style): resources, syscalls with [$] variants, flag sets,
    and struct/union definitions. Unknown identifiers in type position
    are resolved against the declared resources and types in a second
    pass; names that remain unresolved are kept as struct references for
    the validator to flag. *)

exception Error of string * int  (** message, line number *)

type token =
  | Ident of string
  | Int of int64
  | Str of string
  | Lbracket
  | Rbracket
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Comma
  | Dollar
  | Equals
  | Colon
  | Minus

let tokenize_line lineno (line : string) : token list =
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  let emit t = toks := t :: !toks in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  while !i < n do
    let c = line.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = '#' then i := n (* comment *)
    else if c = '"' then begin
      let j = ref (!i + 1) in
      let buf = Buffer.create 16 in
      while !j < n && line.[!j] <> '"' do
        Buffer.add_char buf line.[!j];
        incr j
      done;
      if !j >= n then raise (Error ("unterminated string", lineno));
      emit (Str (Buffer.contents buf));
      i := !j + 1
    end
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while
        !j < n
        && (is_ident_char line.[!j] || line.[!j] = 'x')
      do
        incr j
      done;
      let text = String.sub line !i (!j - !i) in
      (match Int64.of_string_opt text with
      | Some v -> emit (Int v)
      | None -> raise (Error (Printf.sprintf "bad integer %S" text, lineno)));
      i := !j
    end
    else if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char line.[!j] do
        incr j
      done;
      emit (Ident (String.sub line !i (!j - !i)));
      i := !j
    end
    else begin
      (match c with
      | '[' -> emit Lbracket
      | ']' -> emit Rbracket
      | '(' -> emit Lparen
      | ')' -> emit Rparen
      | '{' -> emit Lbrace
      | '}' -> emit Rbrace
      | ',' -> emit Comma
      | '$' -> emit Dollar
      | '=' -> emit Equals
      | ':' -> emit Colon
      | '-' -> emit Minus
      | c -> raise (Error (Printf.sprintf "unexpected character %C" c, lineno)));
      incr i
    end
  done;
  List.rev !toks

(* token-stream cursor over one line *)
type cursor = { mutable toks : token list; line : int }

let cpeek c = match c.toks with [] -> None | t :: _ -> Some t

let cnext c =
  match c.toks with
  | [] -> raise (Error ("unexpected end of line", c.line))
  | t :: rest ->
      c.toks <- rest;
      t

let cexpect c t =
  let got = cnext c in
  if got <> t then raise (Error ("unexpected token", c.line))

let cident c =
  match cnext c with
  | Ident s -> s
  | _ -> raise (Error ("expected identifier", c.line))

let width_of_ident = function
  | "int8" -> Some Ast.I8
  | "int16" -> Some Ast.I16
  | "int32" -> Some Ast.I32
  | "int64" -> Some Ast.I64
  | "intptr" -> Some Ast.Iptr
  | _ -> None

let parse_int c =
  match cnext c with
  | Int v -> v
  | Minus -> (
      match cnext c with
      | Int v -> Int64.neg v
      | _ -> raise (Error ("expected integer", c.line)))
  | _ -> raise (Error ("expected integer", c.line))

let parse_const_ref c =
  match cpeek c with
  | Some (Ident n) ->
      ignore (cnext c);
      Ast.const_of_name n
  | _ -> Ast.const_of_value (parse_int c)

let rec parse_typ c : Ast.typ =
  match cnext c with
  | Ident "string" -> (
      match cpeek c with
      | Some Lbracket ->
          ignore (cnext c);
          let s = match cnext c with
            | Str s -> s
            | _ -> raise (Error ("expected string literal", c.line))
          in
          cexpect c Rbracket;
          Ast.String (Some s)
      | _ -> Ast.String None)
  | Ident "buffer" ->
      cexpect c Lbracket;
      let d = parse_dir c in
      cexpect c Rbracket;
      Ast.Buffer d
  | Ident "ptr" ->
      cexpect c Lbracket;
      let d = parse_dir c in
      cexpect c Comma;
      let t = parse_typ c in
      cexpect c Rbracket;
      Ast.Ptr (d, t)
  | Ident "array" ->
      cexpect c Lbracket;
      let t = parse_typ c in
      let n =
        match cpeek c with
        | Some Comma ->
            ignore (cnext c);
            Some (Int64.to_int (parse_int c))
        | _ -> None
      in
      cexpect c Rbracket;
      Ast.Array (t, n)
  | Ident "const" ->
      cexpect c Lbracket;
      let cr = parse_const_ref c in
      let w =
        match cpeek c with
        | Some Comma ->
            ignore (cnext c);
            parse_width c
        | _ -> Ast.Iptr
      in
      cexpect c Rbracket;
      Ast.Const (cr, w)
  | Ident "flags" ->
      cexpect c Lbracket;
      let name = cident c in
      let w =
        match cpeek c with
        | Some Comma ->
            ignore (cnext c);
            parse_width c
        | _ -> Ast.Iptr
      in
      cexpect c Rbracket;
      Ast.Flags (name, w)
  | Ident "len" ->
      cexpect c Lbracket;
      let target = cident c in
      let w =
        match cpeek c with
        | Some Comma ->
            ignore (cnext c);
            parse_width c
        | _ -> Ast.Iptr
      in
      cexpect c Rbracket;
      Ast.Len (target, w)
  | Ident "bytesize" ->
      cexpect c Lbracket;
      let target = cident c in
      let w =
        match cpeek c with
        | Some Comma ->
            ignore (cnext c);
            parse_width c
        | _ -> Ast.Iptr
      in
      cexpect c Rbracket;
      Ast.Bytesize (target, w)
  | Ident "fd" -> Ast.Fd
  | Ident "void" -> Ast.Void
  | Ident name -> (
      match width_of_ident name with
      | Some w -> (
          match cpeek c with
          | Some Lbracket ->
              ignore (cnext c);
              let lo = parse_int c in
              cexpect c Colon;
              let hi = parse_int c in
              cexpect c Rbracket;
              Ast.Int (w, Some { lo; hi })
          | _ -> Ast.Int (w, None))
      | None ->
          (* user-defined name: resolved against resources/types later *)
          Ast.Struct_ref name)
  | _ -> raise (Error ("expected type", c.line))

and parse_dir c =
  match cident c with
  | "in" -> Ast.In
  | "out" -> Ast.Out
  | "inout" -> Ast.Inout
  | d -> raise (Error ("bad direction " ^ d, c.line))

and parse_width c =
  let name = cident c in
  match width_of_ident name with
  | Some w -> w
  | None -> raise (Error ("expected int width, got " ^ name, c.line))

let parse_field c : Ast.field =
  let fname = cident c in
  let ftyp = parse_typ c in
  { Ast.fname; ftyp }

let parse_syscall c (name : string) : Ast.syscall =
  let variant =
    match cpeek c with
    | Some Dollar ->
        ignore (cnext c);
        Some (cident c)
    | _ -> None
  in
  cexpect c Lparen;
  let rec args acc =
    match cpeek c with
    | Some Rparen ->
        ignore (cnext c);
        List.rev acc
    | _ ->
        let f = parse_field c in
        (match cpeek c with
        | Some Comma -> ignore (cnext c)
        | _ -> ());
        args (f :: acc)
  in
  let args = args [] in
  let ret = match cpeek c with Some (Ident r) -> ignore (cnext c); Some r | _ -> None in
  { Ast.call_name = name; variant; args; ret }

(** Parse a full specification text. [name] names the resulting spec. *)
let rec parse_spec ~name (text : string) : Ast.spec =
  let lines = String.split_on_char '\n' text in
  let resources = ref [] in
  let syscalls = ref [] in
  let types = ref [] in
  let flag_sets = ref [] in
  (* struct/union bodies span multiple lines; the int is the line that
     opened the body *)
  let pending : (string * Ast.comp_kind * int * Ast.field list ref) option ref = ref None in
  List.iteri
    (fun lineno line ->
      let lineno = lineno + 1 in
      let toks = tokenize_line lineno line in
      match (!pending, toks) with
      | Some _, [] -> ()
      | Some (cname, kind, _, fields), [ Rbrace ] | Some (cname, kind, _, fields), [ Rbracket ] ->
          types :=
            { Ast.comp_name = cname; comp_kind = kind; comp_fields = List.rev !fields }
            :: !types;
          pending := None
      | Some (_, _, _, fields), _ ->
          let c = { toks; line = lineno } in
          fields := parse_field c :: !fields
      | None, [] -> ()
      | None, Ident "resource" :: rest ->
          let c = { toks = rest; line = lineno } in
          let res_name = cident c in
          cexpect c Lbracket;
          let res_underlying = cident c in
          cexpect c Rbracket;
          resources := { Ast.res_name; res_underlying } :: !resources
      | None, [ Ident cname; Lbrace ] -> pending := Some (cname, Ast.Struct, lineno, ref [])
      | None, [ Ident cname; Lbracket ] -> pending := Some (cname, Ast.Union, lineno, ref [])
      | None, Ident sname :: Equals :: rest ->
          let c = { toks = rest; line = lineno } in
          let rec values acc =
            let v = parse_const_ref c in
            match cpeek c with
            | Some Comma ->
                ignore (cnext c);
                values (v :: acc)
            | _ -> List.rev (v :: acc)
          in
          flag_sets := { Ast.set_name = sname; set_values = values [] } :: !flag_sets
      | None, Ident sname :: rest ->
          let c = { toks = rest; line = lineno } in
          syscalls := parse_syscall c sname :: !syscalls
      | None, _ -> raise (Error ("unexpected line", lineno)))
    lines;
  (match !pending with
  | Some (cname, _, opened, _) ->
      raise (Error (Printf.sprintf "unterminated type definition %s" cname, opened))
  | None -> ());
  let spec =
    {
      Ast.spec_name = name;
      resources = List.rev !resources;
      syscalls = List.rev !syscalls;
      types = List.rev !types;
      flag_sets = List.rev !flag_sets;
    }
  in
  resolve spec

(** Second pass: rewrite bare identifiers in type position to resource or
    union references where the spec declares them. *)
and resolve (spec : Ast.spec) : Ast.spec =
  let is_resource n = List.exists (fun r -> r.Ast.res_name = n) spec.resources in
  let union_names =
    List.filter_map
      (fun c -> if c.Ast.comp_kind = Ast.Union then Some c.Ast.comp_name else None)
      spec.types
  in
  let rec fix t =
    match t with
    | Ast.Struct_ref n when is_resource n -> Ast.Resource_ref n
    | Ast.Struct_ref n when List.mem n union_names -> Ast.Union_ref n
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
  }
