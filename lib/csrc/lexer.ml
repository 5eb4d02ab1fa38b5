(** Hand-written lexer for the mini-C dialect.

    Comments are not discarded: they are collected into a side table keyed
    by line number so the parser can attach them to struct fields and
    declarations. The analysis oracle uses those comments to infer
    semantic relations (the paper's "textual comprehension" advantage).

    The cursor is a plain byte index checked against the source length,
    so scanning allocates nothing per character; a NUL byte is an
    ordinary (unexpected) character, never end of input.

    Tokens come out as the list the scanner builds, in source order, and
    the parser walks it from the head. An array would cost a minor
    collection per source: [Array.of_list] of more than 256 young tokens
    allocates the array in the major heap, and the runtime first empties
    the minor heap rather than point a major block at young values. That
    collection costs about as much as the scan itself. *)

exception Error of string * int (* message, line *)

type comment = { text : string; cline : int }

type result = {
  tokens : Token.spanned list; (* in source order, ending in [Eof] *)
  comments : comment list; (* in source order *)
}

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_int_suffix = function 'u' | 'U' | 'l' | 'L' -> true | _ -> false

let unescape = function 'n' -> '\n' | 't' -> '\t' | '0' -> '\000' | c -> c

let lex (src : string) : result =
  let n = String.length src in
  let tokens = ref [] in
  let comments = ref [] in
  let line = ref 1 in
  (* [pos] starts at 0 and only moves forward, so it is never negative;
     each [String.unsafe_get src i] below sits right after a check that
     [i < n], which keeps it in range *)
  let pos = ref 0 in
  let in_define = ref false in
  (* [off] is a non-negative literal at every call *)
  let is_at off c = !pos + off < n && String.unsafe_get src (!pos + off) = c in
  (* lookahead for operators only: past the end it reads as NUL, which no
     multi-character operator contains *)
  let peek off = if !pos + off < n then String.unsafe_get src (!pos + off) else '\000' in
  let advance () =
    if is_at 0 '\n' then incr line;
    incr pos
  in
  let skip_while p =
    (* in range: [!pos < n] is checked first *)
    while !pos < n && p (String.unsafe_get src !pos) do
      advance ()
    done
  in
  let emit tok = tokens := { Token.tok; line = !line } :: !tokens in
  let error msg = raise (Error (msg, !line)) in
  let lex_ident () =
    let start = !pos in
    skip_while is_ident_char;
    String.sub src start (!pos - start)
  in
  let lex_number () =
    let start = !pos in
    let hex = is_at 0 '0' && (is_at 1 'x' || is_at 1 'X') in
    if hex then pos := !pos + 2;
    skip_while (if hex then is_hex_digit else is_digit);
    (* the integer suffix (U, L, UL, ULL, ...) is not part of the value *)
    let text = String.sub src start (!pos - start) in
    skip_while is_int_suffix;
    match Int64.of_string_opt text with
    | Some v -> v
    | None -> error (Printf.sprintf "invalid integer literal %S" text)
  in
  let lex_string () =
    advance ();
    (* opening quote *)
    let buf = Buffer.create 16 in
    let rec go () =
      (* in range: both reads follow an [!pos >= n] check that raises *)
      if !pos >= n then error "unterminated string literal";
      match String.unsafe_get src !pos with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then error "unterminated escape";
          Buffer.add_char buf (unescape (String.unsafe_get src !pos));
          advance ();
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let lex_char () =
    advance ();
    (* opening quote *)
    let escaped = is_at 0 '\\' in
    if escaped then advance ();
    (* in range: the check above raises at the end of the source *)
    if !pos >= n then error "unterminated char literal";
    let c = String.unsafe_get src !pos in
    advance ();
    if not (is_at 0 '\'') then error "unterminated char literal";
    advance ();
    if escaped then unescape c else c
  in
  let skip_line_comment () =
    let start = !pos + 2 in
    let l = !line in
    skip_while (fun c -> c <> '\n');
    let text = String.trim (String.sub src start (!pos - start)) in
    comments := { text; cline = l } :: !comments
  in
  let skip_block_comment () =
    let l = !line in
    pos := !pos + 2;
    let start = !pos in
    while not (is_at 0 '*' && is_at 1 '/') do
      if !pos >= n then error "unterminated block comment";
      advance ()
    done;
    let text = String.trim (String.sub src start (!pos - start)) in
    comments := { text; cline = l } :: !comments;
    pos := !pos + 2
  in
  let lex_directive () =
    incr pos;
    (* '#' *)
    match lex_ident () with
    | "define" ->
        in_define := true;
        emit Token.Hash_define
    | "include" ->
        (* consume to end of line, discarded *)
        skip_while (fun c -> c <> '\n');
        emit Token.Hash_include
    | other -> error (Printf.sprintf "unsupported directive #%s" other)
  in
  let end_define () =
    if !in_define then (
      in_define := false;
      emit Token.Newline)
  in
  (* operators never span a newline, so the cursor jumps without [advance] *)
  let punct len tok =
    pos := !pos + len;
    emit tok
  in
  let rec loop () =
    if !pos >= n then (
      end_define ();
      emit Token.Eof)
    else
      (* in range: the [!pos >= n] branch above returned *)
      match String.unsafe_get src !pos with
      | '\n' ->
          end_define ();
          advance ();
          loop ()
      | ' ' | '\t' | '\r' ->
          incr pos;
          loop ()
      | '/' when is_at 1 '/' ->
          skip_line_comment ();
          loop ()
      | '/' when is_at 1 '*' ->
          skip_block_comment ();
          loop ()
      | '#' ->
          lex_directive ();
          loop ()
      | '"' ->
          let s = lex_string () in
          emit (Token.Str_lit s);
          loop ()
      | '\'' ->
          let c = lex_char () in
          emit (Token.Char_lit c);
          loop ()
      | c when is_digit c ->
          let v = lex_number () in
          emit (Token.Int_lit v);
          loop ()
      | c when is_ident_start c ->
          let id = lex_ident () in
          (match Token.keyword_of_string id with
          | Some kw -> emit kw
          | None -> emit (Token.Ident id));
          loop ()
      | c ->
          let c1 = peek 1 in
          (match c with
          | '.' when c1 = '.' && peek 2 = '.' -> punct 3 Token.Ellipsis
          | '-' when c1 = '>' -> punct 2 Token.Arrow
          | '<' when c1 = '<' && peek 2 = '=' -> punct 3 Token.Shl_assign
          | '>' when c1 = '>' && peek 2 = '=' -> punct 3 Token.Shr_assign
          | '<' when c1 = '<' -> punct 2 Token.Shl
          | '>' when c1 = '>' -> punct 2 Token.Shr
          | '<' when c1 = '=' -> punct 2 Token.Le
          | '>' when c1 = '=' -> punct 2 Token.Ge
          | '=' when c1 = '=' -> punct 2 Token.Eq_eq
          | '!' when c1 = '=' -> punct 2 Token.Bang_eq
          | '&' when c1 = '&' -> punct 2 Token.Amp_amp
          | '|' when c1 = '|' -> punct 2 Token.Pipe_pipe
          | '+' when c1 = '+' -> punct 2 Token.Plus_plus
          | '-' when c1 = '-' -> punct 2 Token.Minus_minus
          | '+' when c1 = '=' -> punct 2 Token.Plus_assign
          | '-' when c1 = '=' -> punct 2 Token.Minus_assign
          | '*' when c1 = '=' -> punct 2 Token.Star_assign
          | '/' when c1 = '=' -> punct 2 Token.Slash_assign
          | '&' when c1 = '=' -> punct 2 Token.Amp_assign
          | '|' when c1 = '=' -> punct 2 Token.Pipe_assign
          | '^' when c1 = '=' -> punct 2 Token.Caret_assign
          | '(' -> punct 1 Token.Lparen
          | ')' -> punct 1 Token.Rparen
          | '{' -> punct 1 Token.Lbrace
          | '}' -> punct 1 Token.Rbrace
          | '[' -> punct 1 Token.Lbracket
          | ']' -> punct 1 Token.Rbracket
          | ';' -> punct 1 Token.Semi
          | ',' -> punct 1 Token.Comma
          | '.' -> punct 1 Token.Dot
          | ':' -> punct 1 Token.Colon
          | '?' -> punct 1 Token.Question
          | '+' -> punct 1 Token.Plus
          | '-' -> punct 1 Token.Minus
          | '*' -> punct 1 Token.Star
          | '/' -> punct 1 Token.Slash
          | '%' -> punct 1 Token.Percent
          | '&' -> punct 1 Token.Amp
          | '|' -> punct 1 Token.Pipe
          | '^' -> punct 1 Token.Caret
          | '~' -> punct 1 Token.Tilde
          | '!' -> punct 1 Token.Bang
          | '<' -> punct 1 Token.Lt
          | '>' -> punct 1 Token.Gt
          | '=' -> punct 1 Token.Assign
          | _ -> error (Printf.sprintf "unexpected character %C" c));
          loop ()
  in
  loop ();
  { tokens = List.rev !tokens; comments = List.rev !comments }
