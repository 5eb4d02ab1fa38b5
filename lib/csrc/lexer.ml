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

(* The lexer's cursor. [pos] starts at 0 and only moves forward, so it is
   never negative; each [String.unsafe_get src i] below sits right after
   a check that [i < n], which keeps it in range. *)
type state = {
  src : string;
  n : int;
  mutable pos : int;
  mutable line : int;
  mutable in_define : bool;
  mutable tokens : Token.spanned list; (* latest first *)
  mutable comments : comment list; (* latest first *)
}

let error st msg = raise (Error (msg, st.line))
let emit st tok = st.tokens <- { Token.tok; line = st.line } :: st.tokens

(* [off] is a non-negative literal at every call *)
let is_at st off c = st.pos + off < st.n && String.unsafe_get st.src (st.pos + off) = c

(* lookahead for operators only: past the end it reads as NUL, which no
   multi-character operator contains *)
let peek st off = if st.pos + off < st.n then String.unsafe_get st.src (st.pos + off) else '\000'

let advance st =
  if is_at st 0 '\n' then st.line <- st.line + 1;
  st.pos <- st.pos + 1

(* The per-byte scans: each returns the first index at or after [i] whose
   byte ends the run, or [n]. None of these runs holds a newline. Each is
   its own loop rather than one scanner given a predicate, so no byte
   costs a closure call. *)
let rec ident_end src n i =
  if i < n && is_ident_char (String.unsafe_get src i) then ident_end src n (i + 1) else i

let rec digits_end src n i =
  if i < n && is_digit (String.unsafe_get src i) then digits_end src n (i + 1) else i

let rec hex_digits_end src n i =
  if i < n && is_hex_digit (String.unsafe_get src i) then hex_digits_end src n (i + 1) else i

let rec int_suffix_end src n i =
  if i < n && is_int_suffix (String.unsafe_get src i) then int_suffix_end src n (i + 1) else i

let rec line_end src n i = if i < n && String.unsafe_get src i <> '\n' then line_end src n (i + 1) else i

let lex_ident st =
  let start = st.pos in
  st.pos <- ident_end st.src st.n start;
  String.sub st.src start (st.pos - start)

let lex_number st =
  let start = st.pos in
  let hex = is_at st 0 '0' && (is_at st 1 'x' || is_at st 1 'X') in
  let stop =
    if hex then hex_digits_end st.src st.n (start + 2) else digits_end st.src st.n start
  in
  (* the integer suffix (U, L, UL, ULL, ...) is not part of the value *)
  let text = String.sub st.src start (stop - start) in
  st.pos <- int_suffix_end st.src st.n stop;
  match Int64.of_string_opt text with
  | Some v -> v
  | None -> error st (Printf.sprintf "invalid integer literal %S" text)

(* the body of a string literal after its opening quote, through the
   closing one *)
let rec string_body st buf =
  (* in range: both reads follow a [pos >= n] check that raises *)
  if st.pos >= st.n then error st "unterminated string literal";
  match String.unsafe_get st.src st.pos with
  | '"' -> advance st
  | '\\' ->
      advance st;
      if st.pos >= st.n then error st "unterminated escape";
      Buffer.add_char buf (unescape (String.unsafe_get st.src st.pos));
      advance st;
      string_body st buf
  | c ->
      Buffer.add_char buf c;
      advance st;
      string_body st buf

let lex_string st =
  advance st;
  (* opening quote *)
  let buf = Buffer.create 16 in
  string_body st buf;
  Buffer.contents buf

let lex_char st =
  advance st;
  (* opening quote *)
  let escaped = is_at st 0 '\\' in
  if escaped then advance st;
  (* in range: the check above raises at the end of the source *)
  if st.pos >= st.n then error st "unterminated char literal";
  let c = String.unsafe_get st.src st.pos in
  advance st;
  if not (is_at st 0 '\'') then error st "unterminated char literal";
  advance st;
  if escaped then unescape c else c

let add_comment st ~cline start stop =
  let text = String.trim (String.sub st.src start (stop - start)) in
  st.comments <- { text; cline } :: st.comments

let skip_line_comment st =
  let start = st.pos + 2 in
  let stop = line_end st.src st.n start in
  add_comment st ~cline:st.line start stop;
  st.pos <- stop

(* The index of the [*/] closing a block comment, counting the newlines
   before it. *)
let rec block_comment_end st i =
  (* in range: [i] is never negative, and each read follows [i + 1 < n]
     or [i < n] *)
  if i + 1 < st.n && String.unsafe_get st.src i = '*' && String.unsafe_get st.src (i + 1) = '/'
  then i
  else if i >= st.n then error st "unterminated block comment"
  else begin
    if String.unsafe_get st.src i = '\n' then st.line <- st.line + 1;
    block_comment_end st (i + 1)
  end

let skip_block_comment st =
  let cline = st.line in
  let start = st.pos + 2 in
  let stop = block_comment_end st start in
  add_comment st ~cline start stop;
  st.pos <- stop + 2

let lex_directive st =
  st.pos <- st.pos + 1;
  (* '#' *)
  match lex_ident st with
  | "define" ->
      st.in_define <- true;
      emit st Token.Hash_define
  | "include" ->
      (* consume to end of line, discarded *)
      st.pos <- line_end st.src st.n st.pos;
      emit st Token.Hash_include
  | other -> error st (Printf.sprintf "unsupported directive #%s" other)

let end_define st =
  if st.in_define then (
    st.in_define <- false;
    emit st Token.Newline)

(* operators never span a newline, so the cursor jumps without [advance] *)
let punct st len tok =
  st.pos <- st.pos + len;
  emit st tok

let rec loop st =
  if st.pos >= st.n then (
    end_define st;
    emit st Token.Eof)
  else
    (* in range: the [pos >= n] branch above returned *)
    match String.unsafe_get st.src st.pos with
    | '\n' ->
        end_define st;
        advance st;
        loop st
    | ' ' | '\t' | '\r' ->
        st.pos <- st.pos + 1;
        loop st
    | '/' when is_at st 1 '/' ->
        skip_line_comment st;
        loop st
    | '/' when is_at st 1 '*' ->
        skip_block_comment st;
        loop st
    | '#' ->
        lex_directive st;
        loop st
    | '"' ->
        let s = lex_string st in
        emit st (Token.Str_lit s);
        loop st
    | '\'' ->
        let c = lex_char st in
        emit st (Token.Char_lit c);
        loop st
    | c when is_digit c ->
        let v = lex_number st in
        emit st (Token.Int_lit v);
        loop st
    | c when is_ident_start c ->
        let id = lex_ident st in
        (match Token.keyword_of_string id with
        | Some kw -> emit st kw
        | None -> emit st (Token.Ident id));
        loop st
    | c ->
        let c1 = peek st 1 in
        (match c with
        | '.' when c1 = '.' && peek st 2 = '.' -> punct st 3 Token.Ellipsis
        | '-' when c1 = '>' -> punct st 2 Token.Arrow
        | '<' when c1 = '<' && peek st 2 = '=' -> punct st 3 Token.Shl_assign
        | '>' when c1 = '>' && peek st 2 = '=' -> punct st 3 Token.Shr_assign
        | '<' when c1 = '<' -> punct st 2 Token.Shl
        | '>' when c1 = '>' -> punct st 2 Token.Shr
        | '<' when c1 = '=' -> punct st 2 Token.Le
        | '>' when c1 = '=' -> punct st 2 Token.Ge
        | '=' when c1 = '=' -> punct st 2 Token.Eq_eq
        | '!' when c1 = '=' -> punct st 2 Token.Bang_eq
        | '&' when c1 = '&' -> punct st 2 Token.Amp_amp
        | '|' when c1 = '|' -> punct st 2 Token.Pipe_pipe
        | '+' when c1 = '+' -> punct st 2 Token.Plus_plus
        | '-' when c1 = '-' -> punct st 2 Token.Minus_minus
        | '+' when c1 = '=' -> punct st 2 Token.Plus_assign
        | '-' when c1 = '=' -> punct st 2 Token.Minus_assign
        | '*' when c1 = '=' -> punct st 2 Token.Star_assign
        | '/' when c1 = '=' -> punct st 2 Token.Slash_assign
        | '&' when c1 = '=' -> punct st 2 Token.Amp_assign
        | '|' when c1 = '=' -> punct st 2 Token.Pipe_assign
        | '^' when c1 = '=' -> punct st 2 Token.Caret_assign
        | '(' -> punct st 1 Token.Lparen
        | ')' -> punct st 1 Token.Rparen
        | '{' -> punct st 1 Token.Lbrace
        | '}' -> punct st 1 Token.Rbrace
        | '[' -> punct st 1 Token.Lbracket
        | ']' -> punct st 1 Token.Rbracket
        | ';' -> punct st 1 Token.Semi
        | ',' -> punct st 1 Token.Comma
        | '.' -> punct st 1 Token.Dot
        | ':' -> punct st 1 Token.Colon
        | '?' -> punct st 1 Token.Question
        | '+' -> punct st 1 Token.Plus
        | '-' -> punct st 1 Token.Minus
        | '*' -> punct st 1 Token.Star
        | '/' -> punct st 1 Token.Slash
        | '%' -> punct st 1 Token.Percent
        | '&' -> punct st 1 Token.Amp
        | '|' -> punct st 1 Token.Pipe
        | '^' -> punct st 1 Token.Caret
        | '~' -> punct st 1 Token.Tilde
        | '!' -> punct st 1 Token.Bang
        | '<' -> punct st 1 Token.Lt
        | '>' -> punct st 1 Token.Gt
        | '=' -> punct st 1 Token.Assign
        | _ -> error st (Printf.sprintf "unexpected character %C" c));
        loop st

let lex (src : string) : result =
  let st =
    { src; n = String.length src; pos = 0; line = 1; in_define = false; tokens = []; comments = [] }
  in
  loop st;
  { tokens = List.rev st.tokens; comments = List.rev st.comments }
