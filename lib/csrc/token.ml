(** Tokens of the mini-C dialect used by the synthetic kernel corpus. *)

(* The front end compares only ints with [=] and [<>]: a polymorphic
   compare is a C call ([caml_equal]) that allocates nothing, so no
   allocation pin sees what it costs. Comparing tokens, strings or lists
   with them here fails to compile; {!equal} matches on the constructor. *)
open struct
  [@@@warning "-32"]

  external ( = ) : int -> int -> bool = "%equal"
  external ( <> ) : int -> int -> bool = "%notequal"
end

type t =
  | Ident of string
  | Int_lit of int64
  | Char_lit of char
  | Str_lit of string
  (* keywords *)
  | Kw_struct
  | Kw_union
  | Kw_enum
  | Kw_static
  | Kw_const
  | Kw_unsigned
  | Kw_signed
  | Kw_void
  | Kw_char
  | Kw_short
  | Kw_int
  | Kw_long
  | Kw_bool
  | Kw_if
  | Kw_else
  | Kw_switch
  | Kw_case
  | Kw_default
  | Kw_while
  | Kw_for
  | Kw_do
  | Kw_return
  | Kw_break
  | Kw_continue
  | Kw_goto
  | Kw_sizeof
  | Kw_typedef
  (* punctuation *)
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Semi
  | Comma
  | Dot
  | Arrow
  | Colon
  | Question
  | Ellipsis
  (* operators *)
  | Plus
  | Minus
  | Star
  | Slash
  | Percent
  | Amp
  | Pipe
  | Caret
  | Tilde
  | Bang
  | Lt
  | Gt
  | Le
  | Ge
  | Eq_eq
  | Bang_eq
  | Amp_amp
  | Pipe_pipe
  | Shl
  | Shr
  | Assign
  | Plus_assign
  | Minus_assign
  | Star_assign
  | Slash_assign
  | Amp_assign
  | Pipe_assign
  | Caret_assign
  | Shl_assign
  | Shr_assign
  | Plus_plus
  | Minus_minus
  (* preprocessor *)
  | Hash_define
  | Hash_include
  | Newline (* significant only right after a #define body *)
  | Eof

let keyword_of_string = function
  | "struct" -> Some Kw_struct
  | "union" -> Some Kw_union
  | "enum" -> Some Kw_enum
  | "static" -> Some Kw_static
  | "const" -> Some Kw_const
  | "unsigned" -> Some Kw_unsigned
  | "signed" -> Some Kw_signed
  | "void" -> Some Kw_void
  | "char" -> Some Kw_char
  | "short" -> Some Kw_short
  | "int" -> Some Kw_int
  | "long" -> Some Kw_long
  | "bool" -> Some Kw_bool
  | "if" -> Some Kw_if
  | "else" -> Some Kw_else
  | "switch" -> Some Kw_switch
  | "case" -> Some Kw_case
  | "default" -> Some Kw_default
  | "while" -> Some Kw_while
  | "for" -> Some Kw_for
  | "do" -> Some Kw_do
  | "return" -> Some Kw_return
  | "break" -> Some Kw_break
  | "continue" -> Some Kw_continue
  | "goto" -> Some Kw_goto
  | "sizeof" -> Some Kw_sizeof
  | "typedef" -> Some Kw_typedef
  | _ -> None

let to_string = function
  | Ident s -> s
  | Int_lit i -> Int64.to_string i
  | Char_lit c -> Printf.sprintf "'%c'" c
  | Str_lit s -> Printf.sprintf "%S" s
  | Kw_struct -> "struct"
  | Kw_union -> "union"
  | Kw_enum -> "enum"
  | Kw_static -> "static"
  | Kw_const -> "const"
  | Kw_unsigned -> "unsigned"
  | Kw_signed -> "signed"
  | Kw_void -> "void"
  | Kw_char -> "char"
  | Kw_short -> "short"
  | Kw_int -> "int"
  | Kw_long -> "long"
  | Kw_bool -> "bool"
  | Kw_if -> "if"
  | Kw_else -> "else"
  | Kw_switch -> "switch"
  | Kw_case -> "case"
  | Kw_default -> "default"
  | Kw_while -> "while"
  | Kw_for -> "for"
  | Kw_do -> "do"
  | Kw_return -> "return"
  | Kw_break -> "break"
  | Kw_continue -> "continue"
  | Kw_goto -> "goto"
  | Kw_sizeof -> "sizeof"
  | Kw_typedef -> "typedef"
  | Lparen -> "("
  | Rparen -> ")"
  | Lbrace -> "{"
  | Rbrace -> "}"
  | Lbracket -> "["
  | Rbracket -> "]"
  | Semi -> ";"
  | Comma -> ","
  | Dot -> "."
  | Arrow -> "->"
  | Colon -> ":"
  | Question -> "?"
  | Ellipsis -> "..."
  | Plus -> "+"
  | Minus -> "-"
  | Star -> "*"
  | Slash -> "/"
  | Percent -> "%"
  | Amp -> "&"
  | Pipe -> "|"
  | Caret -> "^"
  | Tilde -> "~"
  | Bang -> "!"
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="
  | Eq_eq -> "=="
  | Bang_eq -> "!="
  | Amp_amp -> "&&"
  | Pipe_pipe -> "||"
  | Shl -> "<<"
  | Shr -> ">>"
  | Assign -> "="
  | Plus_assign -> "+="
  | Minus_assign -> "-="
  | Star_assign -> "*="
  | Slash_assign -> "/="
  | Amp_assign -> "&="
  | Pipe_assign -> "|="
  | Caret_assign -> "^="
  | Shl_assign -> "<<="
  | Shr_assign -> ">>="
  | Plus_plus -> "++"
  | Minus_minus -> "--"
  | Hash_define -> "#define"
  | Hash_include -> "#include"
  | Newline -> "\\n"
  | Eof -> "<eof>"

(* constant constructors are immediates, so [==] compares them *)
let equal (a : t) (b : t) =
  match (a, b) with
  | Ident x, Ident y | Str_lit x, Str_lit y -> String.equal x y
  | Int_lit x, Int_lit y -> Int64.equal x y
  | Char_lit x, Char_lit y -> Char.equal x y
  | _ -> a == b

(** A token paired with the line it starts on. *)
type spanned = { tok : t; line : int }
