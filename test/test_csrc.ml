(* Tests for the mini-C lexer, parser, pretty-printer and index. *)

let dm_snippet =
  {|
#define DM_DIR "mapper"
#define DM_CONTROL_NODE "control"
#define DM_NAME "device-mapper"
#define DM_IOCTL 0xfd
#define DM_VERSION_CMD 0
#define DM_LIST_DEVICES_CMD 2
#define DM_VERSION _IOWR(DM_IOCTL, DM_VERSION_CMD, struct dm_ioctl)
#define DM_LIST_DEVICES _IOWR(DM_IOCTL, DM_LIST_DEVICES_CMD, struct dm_ioctl)

struct dm_ioctl {
  u32 version[3];  /* protocol version */
  u32 data_size;   /* total size of data passed in, including this struct */
  u32 data_start;
  char name[128];
  u64 event_nr;
};

static int dm_open(struct file *filp)
{
  return 0;
}

static long ctl_ioctl(struct file *file, unsigned int command, struct dm_ioctl *u)
{
  unsigned int cmd;
  cmd = _IOC_NR(command);
  if (cmd == DM_VERSION_CMD)
    return 0;
  return lookup_ioctl(cmd, u);
}

static long dm_ctl_ioctl(struct file *file, unsigned int command, unsigned long u)
{
  return ctl_ioctl(file, command, (struct dm_ioctl *)u);
}

static const struct file_operations _ctl_fops = {
  .open = dm_open,
  .unlocked_ioctl = dm_ctl_ioctl,
};

static struct miscdevice _dm_misc = {
  .minor = 12,
  .name = DM_NAME,
  .nodename = DM_DIR "/" DM_CONTROL_NODE,
  .fops = &_ctl_fops,
};
|}

let parse src =
  let sid = ref 0 in
  Csrc.Parser.parse_file ~file:"test.c" ~sid src

let index_of src = Csrc.Index.of_files [ parse src ]

let test_lex_basics () =
  let r = Csrc.Lexer.lex "int x = 0x10; // hi\n" in
  let kinds = List.map (fun s -> s.Csrc.Token.tok) r.tokens in
  Alcotest.(check int) "token count" 6 (List.length kinds);
  Alcotest.(check int) "comment count" 1 (List.length r.comments);
  match kinds with
  | [ Csrc.Token.Kw_int; Csrc.Token.Ident "x"; Csrc.Token.Assign; Csrc.Token.Int_lit 16L; Csrc.Token.Semi; Csrc.Token.Eof ] -> ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lex_char_and_string () =
  let r = Csrc.Lexer.lex {|"a\nb" 'x' '\n'|} in
  match List.map (fun s -> s.Csrc.Token.tok) r.tokens with
  | [ Csrc.Token.Str_lit "a\nb"; Csrc.Token.Char_lit 'x'; Csrc.Token.Char_lit '\n'; Csrc.Token.Eof ] -> ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_lex_suffixes () =
  let r = Csrc.Lexer.lex "42UL 0xffULL 7L" in
  match List.map (fun s -> s.Csrc.Token.tok) r.tokens with
  | [ Csrc.Token.Int_lit 42L; Csrc.Token.Int_lit 255L; Csrc.Token.Int_lit 7L; Csrc.Token.Eof ] -> ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_parse_dm () =
  let f = parse dm_snippet in
  let names = List.map Csrc.Ast.decl_name f.decls in
  Alcotest.(check bool) "has ctl_ioctl" true (List.mem "ctl_ioctl" names);
  Alcotest.(check bool) "has dm_ioctl struct" true (List.mem "dm_ioctl" names);
  Alcotest.(check bool) "has _dm_misc" true (List.mem "_dm_misc" names)

let test_struct_fields_and_comments () =
  let idx = index_of dm_snippet in
  match Csrc.Index.find_composite idx "dm_ioctl" with
  | None -> Alcotest.fail "dm_ioctl not indexed"
  | Some cd ->
      Alcotest.(check int) "field count" 5 (List.length cd.fields);
      let f0 = List.nth cd.fields 0 in
      Alcotest.(check (option string))
        "version comment" (Some "protocol version") f0.field_comment;
      let f3 = List.nth cd.fields 3 in
      Alcotest.(check string) "name field" "name" f3.field_name;
      (match f3.field_type with
      | Csrc.Ast.Array (Csrc.Ast.Int { signed = true; width = 8 }, Some 128) -> ()
      | _ -> Alcotest.fail "name should be char[128]")

let test_macro_eval () =
  let idx = index_of dm_snippet in
  (match Csrc.Index.eval_macro idx "DM_IOCTL" with
  | Some v -> Alcotest.(check int64) "DM_IOCTL" 0xfdL v
  | None -> Alcotest.fail "DM_IOCTL not constant");
  match Csrc.Index.eval_macro idx "DM_LIST_DEVICES" with
  | Some v ->
      (* _IOWR = dir 3 << 30 | size << 16 | 0xfd << 8 | 2 *)
      let size = Int64.of_int (Csrc.Index.sizeof idx (Csrc.Ast.Struct_ref "dm_ioctl")) in
      let expected =
        Int64.logor
          (Int64.shift_left 3L 30)
          (Int64.logor (Int64.shift_left size 16) (Int64.logor (Int64.shift_left 0xfdL 8) 2L))
      in
      Alcotest.(check int64) "DM_LIST_DEVICES encoding" expected v
  | None -> Alcotest.fail "DM_LIST_DEVICES not constant"

let test_string_macro_concat () =
  let idx = index_of dm_snippet in
  match Csrc.Index.find_global idx "_dm_misc" with
  | None -> Alcotest.fail "_dm_misc not found"
  | Some g -> (
      match g.global_init with
      | Some (Csrc.Ast.Init_designated fields) -> (
          let nodename = List.assoc "nodename" fields in
          match nodename with
          | Csrc.Ast.Init_expr e -> (
              match Csrc.Index.eval_string idx e with
              | Some s -> Alcotest.(check string) "nodename" "mapper/control" s
              | None -> Alcotest.fail "nodename not a string")
          | _ -> Alcotest.fail "nodename initializer shape")
      | _ -> Alcotest.fail "_dm_misc initializer shape")

let test_layout () =
  let idx = index_of dm_snippet in
  (* 3*4 (version) + 4 + 4 + 128 + pad(4) + 8 = 160 *)
  Alcotest.(check int) "sizeof dm_ioctl" 160
    (Csrc.Index.sizeof idx (Csrc.Ast.Struct_ref "dm_ioctl"));
  let offsets = Csrc.Index.field_offsets idx
      (Option.get (Csrc.Index.find_composite idx "dm_ioctl")) in
  Alcotest.(check int) "offset of event_nr" 152 (List.assoc "event_nr" offsets)

let test_ioc_nr () =
  let idx = index_of dm_snippet in
  let cmd = Option.get (Csrc.Index.eval_macro idx "DM_LIST_DEVICES") in
  let nr =
    Csrc.Index.eval idx (Csrc.Ast.Call ("_IOC_NR", [ Csrc.Ast.Const_int cmd ]))
  in
  Alcotest.(check int64) "_IOC_NR" 2L nr

let test_pretty_roundtrip () =
  let f = parse dm_snippet in
  let printed = Csrc.Pretty.file_str f in
  (* re-parsing the printed text must succeed and keep the same decls *)
  let f2 = parse printed in
  Alcotest.(check int) "same decl count" (List.length f.decls) (List.length f2.decls);
  Alcotest.(check (list string))
    "same decl names"
    (List.map Csrc.Ast.decl_name f.decls)
    (List.map Csrc.Ast.decl_name f2.decls)

let test_switch_parse () =
  let src =
    {|
static long vol_cdev_ioctl(struct file *file, unsigned int cmd, unsigned long arg)
{
  int err = 0;
  switch (cmd) {
  case 1:
  case 2:
    err = 1;
    break;
  default:
    err = -25;
    break;
  }
  return err;
}
|}
  in
  let f = parse src in
  match f.decls with
  | [ Csrc.Ast.D_func fd ] ->
      let stmts = Csrc.Ast.stmts_of_body fd.fun_body in
      let has_switch =
        List.exists (fun s -> match s.Csrc.Ast.node with Csrc.Ast.Switch _ -> true | _ -> false) stmts
      in
      Alcotest.(check bool) "has switch" true has_switch;
      let sw =
        List.find_map
          (fun s -> match s.Csrc.Ast.node with Csrc.Ast.Switch (_, cs) -> Some cs | _ -> None)
          stmts
        |> Option.get
      in
      Alcotest.(check int) "case groups" 2 (List.length sw);
      Alcotest.(check int) "labels in first group" 2 (List.length (List.hd sw).labels)
  | _ -> Alcotest.fail "expected one function"

let test_goto_and_labels () =
  let src =
    {|
static int f(int x)
{
  if (x < 0)
    goto out;
  x = x + 1;
out:
  return x;
}
|}
  in
  let f = parse src in
  match f.decls with
  | [ Csrc.Ast.D_func fd ] ->
      let stmts = Csrc.Ast.stmts_of_body fd.fun_body in
      let kinds =
        List.filter_map
          (fun s ->
            match s.Csrc.Ast.node with
            | Csrc.Ast.Goto l -> Some ("goto:" ^ l)
            | Csrc.Ast.Label l -> Some ("label:" ^ l)
            | _ -> None)
          stmts
      in
      Alcotest.(check (list string)) "goto/label" [ "goto:out"; "label:out" ] kinds
  | _ -> Alcotest.fail "expected one function"

let test_called_functions () =
  let f = parse dm_snippet in
  let ctl =
    List.find_map
      (function Csrc.Ast.D_func fd when fd.fun_name = "ctl_ioctl" -> Some fd | _ -> None)
      f.decls
    |> Option.get
  in
  let calls = Csrc.Ast.called_functions ctl.fun_body in
  Alcotest.(check bool) "calls lookup_ioctl" true (List.mem "lookup_ioctl" calls);
  Alcotest.(check bool) "calls _IOC_NR" true (List.mem "_IOC_NR" calls)

let test_enum_values () =
  let src = {|
enum vdev_state {
  VDEV_IDLE,
  VDEV_RUNNING,
  VDEV_ERROR = 10,
  VDEV_DEAD,
};
|} in
  let idx = index_of src in
  let check name v =
    match Csrc.Index.find_enum_item idx name with
    | Some e -> Alcotest.(check int64) name v (Csrc.Index.eval idx e)
    | None -> Alcotest.fail (name ^ " missing")
  in
  check "VDEV_IDLE" 0L;
  check "VDEV_RUNNING" 1L;
  check "VDEV_ERROR" 10L;
  check "VDEV_DEAD" 11L

let test_unions_and_nested () =
  let src =
    {|
struct inner { u32 a; u32 b; };
union payload {
  struct inner in;
  u64 raw;
  char bytes[16];
};
|}
  in
  let idx = index_of src in
  Alcotest.(check int) "sizeof union" 16
    (Csrc.Index.sizeof idx (Csrc.Ast.Union_ref "payload"))

let test_flexible_array () =
  let src = {|
struct vfio_irq_set {
  u32 argsz;
  u32 count;
  u8 data[];
};
|} in
  let idx = index_of src in
  Alcotest.(check int) "sizeof with flexible member" 8
    (Csrc.Index.sizeof idx (Csrc.Ast.Struct_ref "vfio_irq_set"))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_extract_source () =
  let idx = index_of dm_snippet in
  (match Csrc.Index.extract_source idx "ctl_ioctl" with
  | Some src ->
      Alcotest.(check bool) "contains _IOC_NR" true (contains src "_IOC_NR")
  | None -> Alcotest.fail "ctl_ioctl source missing");
  match Csrc.Index.extract_source idx "dm_ioctl" with
  | Some src ->
      Alcotest.(check bool) "struct source has data_size" true (contains src "data_size")
  | None -> Alcotest.fail "dm_ioctl source missing"

(* Enumerations walk declarations in source order: each name once, at
   its first declaration, with the definition its table kept. A later
   definition replaces an earlier one but keeps its place; for functions
   a definition with a body wins over a forward declaration. *)
let test_enumeration_order () =
  let idx =
    index_of
      {|struct b { int x; };
int g2;
#define M2 2
int f2(void);
struct a { int y; };
int g1 = 1;
#define M1 1
int f1(void) { return 1; }
int f2(void) { return 2; }
int f1(void);
struct b { long z; };
int g2 = 5;
#define M2 3
#define S "str"
|}
  in
  let check_kept what find name_of expect defs =
    Alcotest.(check (list string)) (what ^ " order") expect (List.map name_of defs);
    List.iter
      (fun d ->
        match find idx (name_of d) with
        | Some kept when kept == d -> ()
        | _ -> Alcotest.failf "%s %s is not the table's definition" what (name_of d))
      defs
  in
  let fns = Csrc.Index.all_functions idx in
  check_kept "function" Csrc.Index.find_function
    (fun (fd : Csrc.Ast.func_def) -> fd.fun_name) [ "f2"; "f1" ] fns;
  List.iter
    (fun (fd : Csrc.Ast.func_def) ->
      if fd.fun_body = [] then Alcotest.failf "%s kept its forward declaration" fd.fun_name)
    fns;
  let comps = Csrc.Index.all_composites idx in
  check_kept "composite" Csrc.Index.find_composite
    (fun (cd : Csrc.Ast.composite_def) -> cd.comp_name) [ "b"; "a" ] comps;
  Alcotest.(check (list string)) "struct b's last definition" [ "z" ]
    (List.map (fun (f : Csrc.Ast.field) -> f.field_name) (List.hd comps).fields);
  check_kept "global" Csrc.Index.find_global
    (fun (gd : Csrc.Ast.global_def) -> gd.global_name) [ "g2"; "g1" ]
    (Csrc.Index.all_globals idx);
  check_kept "macro" Csrc.Index.find_macro
    (fun (md : Csrc.Ast.macro_def) -> md.macro_name) [ "M2"; "M1"; "S" ]
    (Csrc.Index.all_macros idx);
  Alcotest.(check (list (pair string int64))) "macro values" [ ("M2", 3L); ("M1", 1L) ]
    (Csrc.Index.all_macro_values idx)

(* ------------------------------------------------------------------ *)
(* Lexer differential                                                  *)
(* ------------------------------------------------------------------ *)

(* The [char option] cursor lexer that the index-cursor one replaced, kept
   as the reference oracle: every token, line, comment and error must be
   the same. *)
let reference_lex (src : string) : Csrc.Lexer.result =
  let open Csrc in
  let error_of msg line = raise (Lexer.Error (msg, line)) in
  let n = String.length src in
  let tokens = ref [] in
  let comments = ref [] in
  let line = ref 1 in
  let pos = ref 0 in
  let in_define = ref false in
  let peek off = if !pos + off < n then Some src.[!pos + off] else None in
  let cur () = peek 0 in
  let advance () =
    (match cur () with Some '\n' -> incr line | _ -> ());
    incr pos
  in
  let emit tok = tokens := { Token.tok; line = !line } :: !tokens in
  let error msg = error_of msg !line in
  let lex_ident () =
    let start = !pos in
    while (match cur () with Some c -> Lexer.is_ident_char c | None -> false) do
      advance ()
    done;
    String.sub src start (!pos - start)
  in
  let lex_number () =
    let start = !pos in
    let hex =
      match (cur (), peek 1) with
      | Some '0', Some ('x' | 'X') ->
          advance ();
          advance ();
          true
      | _ -> false
    in
    let valid c = if hex then Lexer.is_hex_digit c else Lexer.is_digit c in
    while (match cur () with Some c -> valid c | None -> false) do
      advance ()
    done;
    while (match cur () with Some ('u' | 'U' | 'l' | 'L') -> true | _ -> false) do
      advance ()
    done;
    let text = String.sub src start (!pos - start) in
    let text =
      let len = ref (String.length text) in
      while !len > 0 && (match text.[!len - 1] with 'u' | 'U' | 'l' | 'L' -> true | _ -> false) do
        decr len
      done;
      String.sub text 0 !len
    in
    match Int64.of_string_opt text with
    | Some v -> v
    | None -> error (Printf.sprintf "invalid integer literal %S" text)
  in
  let lex_string () =
    advance ();
    let buf = Buffer.create 16 in
    let rec go () =
      match cur () with
      | None -> error "unterminated string literal"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match cur () with
          | Some 'n' ->
              Buffer.add_char buf '\n';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char buf '\t';
              advance ();
              go ()
          | Some '0' ->
              Buffer.add_char buf '\000';
              advance ();
              go ()
          | Some c ->
              Buffer.add_char buf c;
              advance ();
              go ()
          | None -> error "unterminated escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let lex_char () =
    advance ();
    let c =
      match cur () with
      | Some '\\' -> (
          advance ();
          match cur () with
          | Some 'n' -> '\n'
          | Some 't' -> '\t'
          | Some '0' -> '\000'
          | Some c -> c
          | None -> error "unterminated char literal")
      | Some c -> c
      | None -> error "unterminated char literal"
    in
    advance ();
    (match cur () with
    | Some '\'' -> advance ()
    | _ -> error "unterminated char literal");
    c
  in
  let skip_line_comment () =
    let start = !pos + 2 in
    let l = !line in
    while (match cur () with Some c when c <> '\n' -> true | _ -> false) do
      advance ()
    done;
    let text = String.trim (String.sub src start (!pos - start)) in
    comments := { Lexer.text; cline = l } :: !comments
  in
  let skip_block_comment () =
    let l = !line in
    advance ();
    advance ();
    let start = !pos in
    let rec go () =
      match (cur (), peek 1) with
      | Some '*', Some '/' ->
          let text = String.trim (String.sub src start (!pos - start)) in
          comments := { Lexer.text; cline = l } :: !comments;
          advance ();
          advance ()
      | Some _, _ ->
          advance ();
          go ()
      | None, _ -> error "unterminated block comment"
    in
    go ()
  in
  let lex_directive () =
    advance ();
    let word = lex_ident () in
    match word with
    | "define" ->
        in_define := true;
        emit Token.Hash_define
    | "include" ->
        while (match cur () with Some c when c <> '\n' -> true | _ -> false) do
          advance ()
        done;
        emit Token.Hash_include
    | other -> error (Printf.sprintf "unsupported directive #%s" other)
  in
  let rec loop () =
    match cur () with
    | None ->
        if !in_define then (
          in_define := false;
          emit Token.Newline);
        emit Token.Eof
    | Some '\n' ->
        if !in_define then (
          in_define := false;
          emit Token.Newline);
        advance ();
        loop ()
    | Some (' ' | '\t' | '\r') ->
        advance ();
        loop ()
    | Some '/' when peek 1 = Some '/' ->
        skip_line_comment ();
        loop ()
    | Some '/' when peek 1 = Some '*' ->
        skip_block_comment ();
        loop ()
    | Some '#' ->
        lex_directive ();
        loop ()
    | Some '"' ->
        let s = lex_string () in
        emit (Token.Str_lit s);
        loop ()
    | Some '\'' ->
        let c = lex_char () in
        emit (Token.Char_lit c);
        loop ()
    | Some c when Lexer.is_digit c ->
        let v = lex_number () in
        emit (Token.Int_lit v);
        loop ()
    | Some c when Lexer.is_ident_start c ->
        let id = lex_ident () in
        (match Token.keyword_of_string id with
        | Some kw -> emit kw
        | None -> emit (Token.Ident id));
        loop ()
    | Some c ->
        let two a = advance (); advance (); emit a in
        let three a = advance (); advance (); advance (); emit a in
        let one a = advance (); emit a in
        (match (c, peek 1, peek 2) with
        | '.', Some '.', Some '.' -> three Token.Ellipsis
        | '-', Some '>', _ -> two Token.Arrow
        | '<', Some '<', Some '=' -> three Token.Shl_assign
        | '>', Some '>', Some '=' -> three Token.Shr_assign
        | '<', Some '<', _ -> two Token.Shl
        | '>', Some '>', _ -> two Token.Shr
        | '<', Some '=', _ -> two Token.Le
        | '>', Some '=', _ -> two Token.Ge
        | '=', Some '=', _ -> two Token.Eq_eq
        | '!', Some '=', _ -> two Token.Bang_eq
        | '&', Some '&', _ -> two Token.Amp_amp
        | '|', Some '|', _ -> two Token.Pipe_pipe
        | '+', Some '+', _ -> two Token.Plus_plus
        | '-', Some '-', _ -> two Token.Minus_minus
        | '+', Some '=', _ -> two Token.Plus_assign
        | '-', Some '=', _ -> two Token.Minus_assign
        | '*', Some '=', _ -> two Token.Star_assign
        | '/', Some '=', _ -> two Token.Slash_assign
        | '&', Some '=', _ -> two Token.Amp_assign
        | '|', Some '=', _ -> two Token.Pipe_assign
        | '^', Some '=', _ -> two Token.Caret_assign
        | '(', _, _ -> one Token.Lparen
        | ')', _, _ -> one Token.Rparen
        | '{', _, _ -> one Token.Lbrace
        | '}', _, _ -> one Token.Rbrace
        | '[', _, _ -> one Token.Lbracket
        | ']', _, _ -> one Token.Rbracket
        | ';', _, _ -> one Token.Semi
        | ',', _, _ -> one Token.Comma
        | '.', _, _ -> one Token.Dot
        | ':', _, _ -> one Token.Colon
        | '?', _, _ -> one Token.Question
        | '+', _, _ -> one Token.Plus
        | '-', _, _ -> one Token.Minus
        | '*', _, _ -> one Token.Star
        | '/', _, _ -> one Token.Slash
        | '%', _, _ -> one Token.Percent
        | '&', _, _ -> one Token.Amp
        | '|', _, _ -> one Token.Pipe
        | '^', _, _ -> one Token.Caret
        | '~', _, _ -> one Token.Tilde
        | '!', _, _ -> one Token.Bang
        | '<', _, _ -> one Token.Lt
        | '>', _, _ -> one Token.Gt
        | '=', _, _ -> one Token.Assign
        | _ -> error (Printf.sprintf "unexpected character %C" c));
        loop ()
  in
  loop ();
  { Lexer.tokens = List.rev !tokens; comments = List.rev !comments }

(* What a lexer made of [src]: its result or its located error. Any other
   exception is a robustness bug and fails the check by name. *)
let lex_outcome lex src =
  match lex src with
  | r -> Ok r
  | exception Csrc.Lexer.Error (msg, line) -> Error (msg, line)
  | exception e -> Alcotest.failf "lexing %S raised %s" src (Printexc.to_string e)

let same_lexing src = lex_outcome Csrc.Lexer.lex src = lex_outcome reference_lex src

let corpus_sources =
  lazy
    (Array.of_list
       (Corpus.Headers.kernel_h
       :: List.map (fun (e : Corpus.Types.entry) -> e.source) (Lazy.force Corpus.Registry.all)))

let test_lexer_matches_reference_on_corpus () =
  Array.iteri
    (fun i src ->
      if not (same_lexing src) then
        Alcotest.failf "lexers disagree on corpus source %d (0 is the shared header)" i)
    (Lazy.force corpus_sources)

(* Bytes the lexer treats specially: quotes, escapes, comment and directive
   starts, number prefixes and suffixes, operator characters, NUL, and
   bytes it must reject. *)
let tricky_bytes = "\"'\\/*#\000\n\r\t 0xXuUlL.<>=!&|+-^(){};,?~%@$`\127\255"

let adversarial =
  [
    "\000"; "int x\000;"; "\"abc"; "\"ab\\"; "\"a\nb"; "'"; "'a"; "'\\"; "'\\n"; "'ab'"; "''";
    "'\n'"; "/* open"; "/* open *"; "/*/"; "//"; "0x"; "0x;"; "0xUL"; "0Xg"; "7ULLu"; "42uLlU";
    "0XfFuL"; "99999999999999999999"; "0xffffffffffffffffff"; "#"; "#if"; "#pragma once";
    "#define"; "#define X 1"; "#include <x.h>"; "#undef X"; "@"; ".."; "..."; "<<="; ">>=";
  ]

(* Mostly real code: a slice of a corpus source, the slice with random
   byte edits, or a slice followed by an adversarial tail (so an
   unsupported directive or open literal lands at end of input). *)
let gen_lexer_input st =
  let sources = Lazy.force corpus_sources in
  let int k = Random.State.int st k in
  let slice () =
    let s = sources.(int (Array.length sources)) in
    let a = int (String.length s + 1) in
    String.sub s a (int (min 400 (String.length s - a) + 1))
  in
  let tricky () = tricky_bytes.[int (String.length tricky_bytes)] in
  let mutate s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match int 30 with
        | 0 -> ()
        | 1 ->
            Buffer.add_char b (tricky ());
            Buffer.add_char b c
        | 2 -> Buffer.add_char b (tricky ())
        | 3 -> Buffer.add_char b (Char.chr (int 256))
        | _ -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  match int 4 with
  | 0 -> slice ()
  | 1 -> mutate (slice ())
  | 2 -> slice () ^ List.nth adversarial (int (List.length adversarial))
  | _ -> String.init (int 24) (fun _ -> tricky ())

let qcheck_lexer_matches_reference =
  QCheck.Test.make ~name:"lexer = char-option reference on mutated sources" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") ~shrink:(fun s -> QCheck.Shrink.string s)
       gen_lexer_input)
    same_lexing

(* ------------------------------------------------------------------ *)
(* Parser robustness                                                   *)
(* ------------------------------------------------------------------ *)

(* Only the front end's declared errors escape [parse_file], located in
   the file it was given at a line the source has. Anything else, such
   as an index out of bounds when the parser reaches [Eof] early, fails
   the property by name. *)
let parse_fails_cleanly src =
  let lines = List.length (String.split_on_char '\n' src) in
  let in_source line = 1 <= line && line <= lines in
  match Csrc.Parser.parse_file ~file:"fuzz.c" ~sid:(ref 0) src with
  | _ -> true
  | exception Csrc.Lexer.Error (_, line) -> in_source line
  | exception Csrc.Parser.Error (_, loc) -> loc.file = "fuzz.c" && in_source loc.line
  | exception e -> QCheck.Test.fail_reportf "parse_file raised %s" (Printexc.to_string e)

(* A whole corpus source cut at a random byte, so the parser meets [Eof]
   inside any construct. *)
let gen_truncated_source st =
  let sources = Lazy.force corpus_sources in
  let s = sources.(Random.State.int st (Array.length sources)) in
  String.sub s 0 (Random.State.int st (String.length s + 1))

let qcheck_parser_errors_declared name ~count gen =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:(Printf.sprintf "%S") ~shrink:(fun s -> QCheck.Shrink.string s) gen)
    parse_fails_cleanly

let qcheck_parse_mutants =
  qcheck_parser_errors_declared "parse_file raises only located errors on mutated sources"
    ~count:3000 gen_lexer_input

let qcheck_parse_truncated =
  qcheck_parser_errors_declared "parse_file raises only located errors on truncated sources"
    ~count:500 gen_truncated_source

let test_lexer_adversarial_errors () =
  List.iter
    (fun src -> if not (same_lexing src) then Alcotest.failf "lexers disagree on %S" src)
    adversarial;
  (* a NUL byte is a character to reject, not the end of input *)
  let error_of src =
    match Csrc.Lexer.lex src with
    | _ -> Alcotest.failf "%S lexed without error" src
    | exception Csrc.Lexer.Error (msg, line) -> (msg, line)
  in
  Alcotest.(check (pair string int)) "NUL byte"
    ("unexpected character '\\000'", 1) (error_of "int x\000;");
  Alcotest.(check (pair string int)) "open string located at end of input"
    ("unterminated string literal", 3) (error_of "int x;\n\"open\n")

(* A struct field takes the comment on its own line, else a comment alone
   on the line above; a trailing comment after code above is not its. *)
let test_field_comment_attachment () =
  let src =
    {|
struct s {
  u32 first;
  /* alone above a */
  u32 a;
  u32 b; /* trailing after b */
  u32 c;
  u32 d; // one
  u32 e; /* two */ /* three */

  u32 f;
};
|}
  in
  match Csrc.Index.find_composite (index_of src) "s" with
  | None -> Alcotest.fail "struct s not indexed"
  | Some cd ->
      Alcotest.(check (list (pair string (option string))))
        "field comments"
        [
          ("first", None); ("a", Some "alone above a"); ("b", Some "trailing after b");
          ("c", None); ("d", Some "one"); ("e", Some "two"); ("f", None);
        ]
        (List.map (fun (f : Csrc.Ast.field) -> (f.field_name, f.field_comment)) cd.fields)

(* ------------------------------------------------------------------ *)
(* Parse pins                                                          *)
(* ------------------------------------------------------------------ *)

(* The shared header, then every registry source parsed the way
   [Machine.boot] parses the loaded ones: under its module file name,
   with one statement-id counter threaded through them in registry
   order. *)
let registry_asts () =
  let sid = ref 0 in
  Csrc.Parser.parse_file ~file:"include/kernel.h" ~sid:(ref 0) Corpus.Headers.kernel_h
  :: List.map
       (fun (e : Corpus.Types.entry) ->
         Csrc.Parser.parse_file ~file:(Corpus.Types.module_file_name e) ~sid e.source)
       (Lazy.force Corpus.Registry.all)

(* Every AST node, location and statement id the parser builds over the
   corpus, digested without sharing so that only the trees count. A
   change to the lexer or parser must reproduce it exactly. *)
let test_registry_ast_digest () =
  Alcotest.(check string) "MD5 of the marshalled registry ASTs" "a848815756ebd4aaf3d8d78d5ae8974c"
    (Digest.to_hex (Digest.string (Marshal.to_string (registry_asts ()) [ Marshal.No_sharing ])))

(* Parsing a source is young garbage only, so a parse that fits in the
   minor heap runs no minor collection. Each source is parsed on an
   empty minor heap; with the default 256k-word heap none may collect. *)
let test_parse_forces_no_collection () =
  let sources = Lazy.force corpus_sources in
  let forced =
    Array.fold_left
      (fun n src ->
        let collected, words =
          Alloc_pin.collections (fun () -> Csrc.Parser.parse_file ~file:"m.c" ~sid:(ref 0) src)
        in
        if collected > Alloc_pin.heaps_filled words then n + 1 else n)
      0 sources
  in
  if forced > 0 then
    Alcotest.failf "%d of %d corpus sources forced a minor collection while parsing" forced
      (Array.length sources)

(* ------------------------------------------------------------------ *)
(* Printer differential                                                *)
(* ------------------------------------------------------------------ *)

(* The printer that assembled each rendering from [Printf.sprintf], [^]
   and [String.concat], kept as the reference oracle of the one-buffer
   printer: every rendering must be byte-identical. *)
module Reference_pretty = struct
  open Csrc

  let rec type_prefix = function
    | Ast.Void -> "void"
    | Ast.Bool -> "bool"
    | Ast.Int { signed = true; width = 8 } -> "char"
    | Ast.Int { signed = true; width = 16 } -> "short"
    | Ast.Int { signed = true; width = 32 } -> "int"
    | Ast.Int { signed = true; width = 64 } -> "long"
    | Ast.Int { signed = false; width = 8 } -> "unsigned char"
    | Ast.Int { signed = false; width = 16 } -> "unsigned short"
    | Ast.Int { signed = false; width = 32 } -> "unsigned int"
    | Ast.Int { signed = false; width = 64 } -> "unsigned long"
    | Ast.Int { signed; width } ->
        Printf.sprintf "%s%d_t" (if signed then "int" else "uint") width
    | Ast.Named n -> n
    | Ast.Ptr t -> type_prefix t ^ " *"
    | Ast.Array (t, _) -> type_prefix t
    | Ast.Struct_ref n -> "struct " ^ n
    | Ast.Union_ref n -> "union " ^ n
    | Ast.Enum_ref n -> "enum " ^ n
    | Ast.Func_ptr (ret, args) ->
        Printf.sprintf "%s (*)(%s)" (type_prefix ret)
          (String.concat ", " (List.map type_prefix args))

  let type_suffix = function
    | Ast.Array (_, Some 0) -> "[]"
    | Ast.Array (_, Some n) -> Printf.sprintf "[%d]" n
    | Ast.Array (_, None) -> "[]"
    | _ -> ""

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

  let escape_c_string s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec expr_str (e : Ast.expr) : string =
    match e with
    | Ast.Const_int v ->
        if Int64.compare v 4096L > 0 then Printf.sprintf "0x%Lx" v else Int64.to_string v
    | Ast.Const_char c -> Printf.sprintf "'%c'" c
    | Ast.Const_str s -> Printf.sprintf "\"%s\"" (escape_c_string s)
    | Ast.Ident s -> s
    | Ast.Unop (op, a) -> Printf.sprintf "%s%s" (unop_str op) (atom a)
    | Ast.Binop (op, a, b) ->
        Printf.sprintf "%s %s %s" (atom a) (binop_str op) (atom b)
    | Ast.Assign (a, b) -> Printf.sprintf "%s = %s" (expr_str a) (expr_str b)
    | Ast.Call (f, args) ->
        Printf.sprintf "%s(%s)" f (String.concat ", " (List.map expr_str args))
    | Ast.Member (a, f) -> Printf.sprintf "%s.%s" (atom a) f
    | Ast.Arrow (a, f) -> Printf.sprintf "%s->%s" (atom a) f
    | Ast.Index (a, i) -> Printf.sprintf "%s[%s]" (atom a) (expr_str i)
    | Ast.Cast (ty, a) -> Printf.sprintf "(%s)%s" (type_prefix ty) (atom a)
    | Ast.Sizeof_type ty -> Printf.sprintf "sizeof(%s)" (type_prefix ty)
    | Ast.Sizeof_expr a -> Printf.sprintf "sizeof(%s)" (expr_str a)
    | Ast.Ternary (c, t, f) ->
        Printf.sprintf "%s ? %s : %s" (atom c) (expr_str t) (expr_str f)
    | Ast.Addr_of a -> Printf.sprintf "&%s" (atom a)
    | Ast.Deref a -> Printf.sprintf "*%s" (atom a)
    | Ast.Type_arg ty -> type_prefix ty

  and atom e =
    match e with
    | Ast.Const_int _ | Ast.Const_char _ | Ast.Const_str _ | Ast.Ident _ | Ast.Call _
    | Ast.Member _ | Ast.Arrow _ | Ast.Index _ | Ast.Sizeof_type _ | Ast.Sizeof_expr _
    | Ast.Type_arg _ ->
        expr_str e
    | _ -> "(" ^ expr_str e ^ ")"

  let indent n = String.make (n * 2) ' '

  let rec stmt_lines lvl (s : Ast.stmt) : string list =
    let pad = indent lvl in
    match s.node with
    | Ast.Expr_stmt e -> [ pad ^ expr_str e ^ ";" ]
    | Ast.Decl_stmt (ty, name, init) ->
        let init_s = match init with Some e -> " = " ^ expr_str e | None -> "" in
        [ Printf.sprintf "%s%s %s%s%s;" pad (type_prefix ty) name (type_suffix ty) init_s ]
    | Ast.If (c, t, e) ->
        let head = Printf.sprintf "%sif (%s) {" pad (expr_str c) in
        let body = List.concat_map (stmt_lines (lvl + 1)) t in
        let tail =
          match e with
          | None -> [ pad ^ "}" ]
          | Some e ->
              (pad ^ "} else {") :: (List.concat_map (stmt_lines (lvl + 1)) e @ [ pad ^ "}" ])
        in
        (head :: body) @ tail
    | Ast.Switch (c, cases) ->
        let head = Printf.sprintf "%sswitch (%s) {" pad (expr_str c) in
        let case_lines case =
          let labels =
            List.map
              (function
                | Ast.Case e -> Printf.sprintf "%scase %s:" pad (expr_str e)
                | Ast.Default -> pad ^ "default:")
              case.Ast.labels
          in
          labels @ List.concat_map (stmt_lines (lvl + 1)) case.Ast.case_body
        in
        (head :: List.concat_map case_lines cases) @ [ pad ^ "}" ]
    | Ast.While (c, b) ->
        (Printf.sprintf "%swhile (%s) {" pad (expr_str c)
        :: List.concat_map (stmt_lines (lvl + 1)) b)
        @ [ pad ^ "}" ]
    | Ast.Do_while (b, c) ->
        ((pad ^ "do {") :: List.concat_map (stmt_lines (lvl + 1)) b)
        @ [ Printf.sprintf "%s} while (%s);" pad (expr_str c) ]
    | Ast.For (i, c, u, b) ->
        let opt = function Some e -> expr_str e | None -> "" in
        (Printf.sprintf "%sfor (%s; %s; %s) {" pad (opt i) (opt c) (opt u)
        :: List.concat_map (stmt_lines (lvl + 1)) b)
        @ [ pad ^ "}" ]
    | Ast.Return None -> [ pad ^ "return;" ]
    | Ast.Return (Some e) -> [ Printf.sprintf "%sreturn %s;" pad (expr_str e) ]
    | Ast.Break -> [ pad ^ "break;" ]
    | Ast.Continue -> [ pad ^ "continue;" ]
    | Ast.Goto l -> [ Printf.sprintf "%sgoto %s;" pad l ]
    | Ast.Label l -> [ Printf.sprintf "%s%s:" (indent (max 0 (lvl - 1))) l ]
    | Ast.Block b ->
        ((pad ^ "{") :: List.concat_map (stmt_lines (lvl + 1)) b) @ [ pad ^ "}" ]

  let func_str (f : Ast.func_def) : string =
    let params =
      match f.fun_params with
      | [] -> "void"
      | ps ->
          String.concat ", "
            (List.map (fun (ty, n) -> Printf.sprintf "%s %s" (type_prefix ty) n) ps)
    in
    let head =
      Printf.sprintf "%s%s %s(%s)"
        (if f.fun_static then "static " else "")
        (type_prefix f.fun_ret) f.fun_name params
    in
    if f.fun_body = [] then head ^ ";"
    else
      String.concat "\n"
        ((head ^ " {") :: (List.concat_map (stmt_lines 1) f.fun_body @ [ "}" ]))

  let field_str (fld : Ast.field) : string =
    let comment = match fld.field_comment with Some c -> Printf.sprintf " /* %s */" c | None -> "" in
    match fld.field_type with
    | Ast.Func_ptr (ret, args) ->
        Printf.sprintf "  %s (*%s)(%s);%s" (type_prefix ret) fld.field_name
          (String.concat ", " (List.map type_prefix args))
          comment
    | ty ->
        Printf.sprintf "  %s %s%s;%s" (type_prefix ty) fld.field_name (type_suffix ty) comment

  let composite_str (c : Ast.composite_def) : string =
    let kw = match c.comp_kind with Ast.Struct -> "struct" | Ast.Union -> "union" in
    String.concat "\n"
      ((Printf.sprintf "%s %s {" kw c.comp_name :: List.map field_str c.fields) @ [ "};" ])

  let enum_str (e : Ast.enum_def) : string =
    let item i =
      match i.Ast.item_value with
      | Some v -> Printf.sprintf "  %s = %s," i.Ast.item_name (expr_str v)
      | None -> Printf.sprintf "  %s," i.Ast.item_name
    in
    let name = match e.enum_name with Some n -> " " ^ n | None -> "" in
    String.concat "\n" ((Printf.sprintf "enum%s {" name :: List.map item e.items) @ [ "};" ])

  let rec ginit_str = function
    | Ast.Init_expr e -> expr_str e
    | Ast.Init_designated fields ->
        "{\n"
        ^ String.concat ""
            (List.map (fun (f, v) -> Printf.sprintf "  .%s = %s,\n" f (ginit_str v)) fields)
        ^ "}"
    | Ast.Init_list items -> "{ " ^ String.concat ", " (List.map ginit_str items) ^ " }"

  let global_str (g : Ast.global_def) : string =
    let init = match g.global_init with Some i -> " = " ^ ginit_str i | None -> "" in
    Printf.sprintf "%s%s %s%s%s;"
      (if g.global_static then "static " else "")
      (type_prefix g.global_type) g.global_name (type_suffix g.global_type) init

  let macro_str (m : Ast.macro_def) : string =
    Printf.sprintf "#define %s %s" m.macro_name
      (String.concat " " (List.map Token.to_string m.macro_body))

  let typedef_str (t : Ast.typedef_def) : string =
    Printf.sprintf "typedef %s %s;" (type_prefix t.td_type) t.td_name

  let decl_str = function
    | Ast.D_composite c -> composite_str c
    | Ast.D_enum e -> enum_str e
    | Ast.D_func f -> func_str f
    | Ast.D_global g -> global_str g
    | Ast.D_macro m -> macro_str m
    | Ast.D_typedef t -> typedef_str t

  let file_str (f : Ast.file) : string =
    String.concat "\n\n" (List.map decl_str f.decls)
end

(* Every statement, expression, type and initializer form the parser
   builds, some of which no corpus source uses *)
let printer_sample =
  {|#define SAMPLE_MAGIC 0x5a
#define SAMPLE_CMD _IOWR(SAMPLE_MAGIC, 3, struct sample_args)
#define SAMPLE_NAME "sample" "\n\t\"q\"\\"
enum { SAMPLE_A, SAMPLE_B = 4, SAMPLE_C = SAMPLE_B << 2 };
enum sample_mode { MODE_OFF = -1, MODE_ON = ~0 };
struct sample_args {
  unsigned char kind; /* the kind */
  short delta;
  bool ok;
  u32 flags;
  char name[16];
  int pad[0];
  struct sample_ops *ops;
  long (*handler)(struct file *, unsigned int, unsigned long);
  u8 data[];
};
union sample_u { int i; void *p; };
static int sample_table[4] = { 1, 2, 3, 4 };
static const struct file_operations sample_fops = {
  .owner = THIS_MODULE,
  .unlocked_ioctl = sample_ioctl,
};
static long sample_ioctl(struct file *f, unsigned int cmd, unsigned long arg)
{
  struct sample_args a;
  int i = 0;
  int j;
  char c = '\n';
  if (copy_from_user(&a, (void *)arg, sizeof(a)))
    return -EFAULT;
  for (i = 0; i < 4; i++) {
    j = j + sample_table[i] * 2 - (i % 3) / 1;
  }
  for (;;) {
    break;
  }
  do {
    i--;
  } while (i > 0 && !j || (j != 3));
  while (i < 10)
    i += 2;
  j = i > 3 ? i : -i;
  j = (int)a.delta + sizeof(struct sample_args) + a.ops->count + strlen("a\"b\\c\n");
  j = *(&j) ^ (j | 7) & ~j;
  if (j >= 8192) {
    goto out;
  } else if (j <= 2) {
    j = 0x12345678;
  } else {
    j >>= 1;
  }
  switch (cmd) {
  case SAMPLE_CMD:
  case 7:
    return 0;
  default:
    continue;
  }
  {
    int inner = 1;
  }
out:
  return j == 1;
}
static void sample_noop(void);
|}

(* Every function, composite, enum, macro and global of the shared header,
   of every registry source and of [printer_sample], and each whole file,
   prints the same through both printers. *)
let test_printer_matches_reference () =
  List.iter
    (fun (f : Csrc.Ast.file) ->
      List.iter
        (fun d ->
          let same =
            match d with
            | Csrc.Ast.D_func fd -> Csrc.Pretty.func_str fd = Reference_pretty.func_str fd
            | Csrc.Ast.D_composite cd ->
                Csrc.Pretty.composite_str cd = Reference_pretty.composite_str cd
            | Csrc.Ast.D_enum ed -> Csrc.Pretty.enum_str ed = Reference_pretty.enum_str ed
            | Csrc.Ast.D_macro md -> Csrc.Pretty.macro_str md = Reference_pretty.macro_str md
            | Csrc.Ast.D_global gd -> Csrc.Pretty.global_str gd = Reference_pretty.global_str gd
            | Csrc.Ast.D_typedef _ -> true
          in
          if not same then
            Alcotest.failf "%s: %s prints differently" f.path (Csrc.Ast.decl_name d))
        f.decls;
      if Csrc.Pretty.file_str f <> Reference_pretty.file_str f then
        Alcotest.failf "%s prints differently as a file" f.path)
    (parse printer_sample :: registry_asts ())

let qcheck_roundtrip_ints =
  QCheck.Test.make ~name:"int literal lex roundtrip" ~count:200
    QCheck.(int_bound 0xffffff)
    (fun n ->
      let src = Printf.sprintf "int x = %d;" n in
      let r = Csrc.Lexer.lex src in
      match List.map (fun s -> s.Csrc.Token.tok) r.tokens with
      | [ Csrc.Token.Kw_int; Csrc.Token.Ident "x"; Csrc.Token.Assign; Csrc.Token.Int_lit v; Csrc.Token.Semi; Csrc.Token.Eof ] ->
          Int64.to_int v = n
      | _ -> false)

let () =
  Alcotest.run "csrc"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lex_basics;
          Alcotest.test_case "char and string" `Quick test_lex_char_and_string;
          Alcotest.test_case "suffixes" `Quick test_lex_suffixes;
          QCheck_alcotest.to_alcotest qcheck_roundtrip_ints;
          Alcotest.test_case "corpus = reference" `Quick test_lexer_matches_reference_on_corpus;
          Alcotest.test_case "adversarial = reference" `Quick test_lexer_adversarial_errors;
          QCheck_alcotest.to_alcotest qcheck_lexer_matches_reference;
        ] );
      ( "parser",
        [
          Alcotest.test_case "dm snippet" `Quick test_parse_dm;
          Alcotest.test_case "fields and comments" `Quick test_struct_fields_and_comments;
          Alcotest.test_case "field comment attachment" `Quick test_field_comment_attachment;
          Alcotest.test_case "switch" `Quick test_switch_parse;
          Alcotest.test_case "goto and labels" `Quick test_goto_and_labels;
          Alcotest.test_case "called functions" `Quick test_called_functions;
          Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
          Alcotest.test_case "printer = reference" `Quick test_printer_matches_reference;
          Alcotest.test_case "registry AST digest" `Quick test_registry_ast_digest;
          Alcotest.test_case "no forced minor collection" `Quick test_parse_forces_no_collection;
          QCheck_alcotest.to_alcotest qcheck_parse_mutants;
          QCheck_alcotest.to_alcotest qcheck_parse_truncated;
        ] );
      ( "index",
        [
          Alcotest.test_case "macro eval" `Quick test_macro_eval;
          Alcotest.test_case "string macro concat" `Quick test_string_macro_concat;
          Alcotest.test_case "layout" `Quick test_layout;
          Alcotest.test_case "ioc nr" `Quick test_ioc_nr;
          Alcotest.test_case "enum values" `Quick test_enum_values;
          Alcotest.test_case "unions" `Quick test_unions_and_nested;
          Alcotest.test_case "flexible array" `Quick test_flexible_array;
          Alcotest.test_case "extract source" `Quick test_extract_source;
          Alcotest.test_case "enumeration order" `Quick test_enumeration_order;
        ] );
    ]
