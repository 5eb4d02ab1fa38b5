(* Tests for the syzlang AST, parser, printer, validator and merge. *)

let kernel =
  lazy
    (let sid = ref 0 in
     Csrc.Index.of_files
       (Corpus.Headers.parse_with_header ~sid ~file:"dm.c" Corpus.Drv_dm.source))

let parse text = Syzlang.Parser.parse_spec ~name:"t" text

let simple_spec =
  {|resource fd_t[fd]
openat$t(fd const[AT_FDCWD], file ptr[in, string["/dev/mapper/control"]], flags const[O_RDWR], mode const[0]) fd_t
ioctl$DM_VERSION(fd fd_t, cmd const[DM_VERSION], arg ptr[inout, dm_ioctl])

dm_flags = DM_VERSION_CMD, DM_LIST_DEVICES_CMD, 7

dm_ioctl {
	version array[int32, 3]
	data_size int32
	name string
	payload sub_union
}
sub_union [
	a int32
	b int64
]
|}

let test_parse_roundtrip () =
  let spec = parse simple_spec in
  Alcotest.(check int) "syscalls" 2 (List.length spec.syscalls);
  Alcotest.(check int) "types" 2 (List.length spec.types);
  Alcotest.(check int) "resources" 1 (List.length spec.resources);
  Alcotest.(check int) "flag sets" 1 (List.length spec.flag_sets);
  (* printing then reparsing preserves the counts *)
  let spec2 = parse (Syzlang.Printer.spec_str spec) in
  Alcotest.(check int) "syscalls after roundtrip" 2 (List.length spec2.syscalls);
  Alcotest.(check int) "types after roundtrip" 2 (List.length spec2.types)

let test_union_resolution () =
  let spec = parse simple_spec in
  let dm = List.find (fun c -> c.Syzlang.Ast.comp_name = "dm_ioctl") spec.types in
  let payload = List.nth dm.comp_fields 3 in
  match payload.ftyp with
  | Syzlang.Ast.Union_ref "sub_union" -> ()
  | _ -> Alcotest.fail "payload should resolve to a union reference"

let test_resource_resolution () =
  let spec = parse simple_spec in
  let ioctl = List.nth spec.syscalls 1 in
  match (List.hd ioctl.args).ftyp with
  | Syzlang.Ast.Resource_ref "fd_t" -> ()
  | _ -> Alcotest.fail "fd argument should resolve to the resource"

let test_validate_clean () =
  let spec = parse simple_spec in
  Alcotest.(check int) "no errors" 0
    (List.length (Syzlang.Validate.validate ~kernel:(Lazy.force kernel) spec))

let test_validate_unknown_const () =
  let spec = parse (simple_spec ^ "ioctl$BAD(fd fd_t, cmd const[NO_SUCH_MACRO], arg intptr)\n") in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) spec in
  Alcotest.(check bool) "reports unknown const" true
    (List.exists
       (fun e ->
         e.Syzlang.Validate.err_item = Syzlang.Validate.In_syscall "ioctl$BAD"
         && e.err_msg = "unknown const NO_SUCH_MACRO")
       errors)

let test_validate_unknown_type () =
  let spec = parse (simple_spec ^ "ioctl$T2(fd fd_t, cmd const[DM_VERSION], arg ptr[in, ghost_t])\n") in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) spec in
  Alcotest.(check bool) "reports undefined type" true
    (List.exists (fun e -> e.Syzlang.Validate.err_msg = "undefined type ghost_t") errors)

let test_validate_duplicate () =
  let dup = simple_spec ^ "ioctl$DM_VERSION(fd fd_t, cmd const[DM_VERSION], arg intptr)\n" in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) (parse dup) in
  Alcotest.(check bool) "reports duplicate" true
    (List.exists (fun e -> e.Syzlang.Validate.err_msg = "duplicate syscall name") errors)

let test_validate_len_target () =
  let text =
    {|resource fd_t[fd]
bad_struct {
	count len[nonexistent, int32]
	data array[int8, 4]
}
|}
  in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) (parse text) in
  Alcotest.(check bool) "reports bad len target" true
    (List.exists
       (fun e -> e.Syzlang.Validate.err_msg = "len target nonexistent is not a sibling field")
       errors)

let test_validate_ioctl_needs_const_cmd () =
  let text =
    {|resource fd_t[fd]
ioctl$X(fd fd_t, cmd intptr, arg intptr)
|}
  in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) (parse text) in
  Alcotest.(check bool) "flags non-const cmd" true
    (List.exists
       (fun e -> e.Syzlang.Validate.err_msg = "ioctl command argument must be a const or flags")
       errors)

let test_validate_undeclared_resource () =
  let text = {|ioctl$X(fd fd_ghost, cmd const[DM_VERSION], arg intptr)
|} in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) (parse text) in
  (* fd_ghost parses as a struct ref since no resource declares it *)
  Alcotest.(check bool) "reports something undefined" true (errors <> [])

let test_validate_err_ident_structured () =
  (* identifier errors carry the offending name as a structured field,
     so consumers (the repair loop) never parse it out of message text *)
  let spec =
    parse (simple_spec ^ "ioctl$BAD(fd fd_t, cmd const[NO_SUCH_MACRO], arg ptr[in, ghost_t])\n")
  in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) spec in
  let ident_of msg =
    List.find_map
      (fun (e : Syzlang.Validate.error) -> if e.err_msg = msg then Some e.err_ident else None)
      errors
  in
  Alcotest.(check (option (option string))) "unknown const carries its name"
    (Some (Some "NO_SUCH_MACRO")) (ident_of "unknown const NO_SUCH_MACRO");
  Alcotest.(check (option (option string))) "undefined type carries its name"
    (Some (Some "ghost_t")) (ident_of "undefined type ghost_t")

let test_validate_err_ident_absent_for_structural () =
  (* structural errors name no identifier; err_ident must be None even
     when the message happens to end in an identifier-looking word *)
  let dup = simple_spec ^ "ioctl$DM_VERSION(fd fd_t, cmd const[DM_VERSION], arg intptr)\n" in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) (parse dup) in
  List.iter
    (fun (e : Syzlang.Validate.error) ->
      if e.err_msg = "duplicate syscall name" then
        Alcotest.(check (option string)) "duplicate has no ident" None e.err_ident)
    errors;
  let shape = {|resource fd_t[fd]
ioctl$X(fd fd_t, cmd intptr, arg intptr)
|} in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) (parse shape) in
  List.iter
    (fun (e : Syzlang.Validate.error) ->
      if e.err_msg = "ioctl command argument must be a const or flags" then
        Alcotest.(check (option string)) "ioctl shape has no ident" None e.err_ident)
    errors

let test_validate_len_target_ident () =
  let text =
    {|resource fd_t[fd]
bad_struct {
	count len[nonexistent, int32]
	data array[int8, 4]
}
|}
  in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) (parse text) in
  Alcotest.(check bool) "len error carries mid-message ident" true
    (List.exists
       (fun (e : Syzlang.Validate.error) -> e.err_ident = Some "nonexistent")
       errors)

let test_resolve_spec_fills_values () =
  let spec = parse simple_spec in
  let resolved = Syzlang.Validate.resolve_spec ~kernel:(Lazy.force kernel) spec in
  let ioctl = List.nth resolved.syscalls 1 in
  let cmd = List.nth ioctl.args 1 in
  match cmd.ftyp with
  | Syzlang.Ast.Const (c, _) ->
      Alcotest.(check bool) "value filled in" true (c.const_value <> None)
  | _ -> Alcotest.fail "cmd should be a const"

let test_merge_dedup () =
  let a = parse simple_spec in
  let b = parse simple_spec in
  let merged = Syzlang.Merge.merge_all ~name:"t" [ a; b ] in
  Alcotest.(check int) "no duplicate syscalls" 2 (List.length merged.syscalls);
  Alcotest.(check int) "no duplicate types" 2 (List.length merged.types)

let test_new_syscalls () =
  let base = parse simple_spec in
  let next =
    parse (simple_spec ^ "ioctl$DM_DEV_CREATE(fd fd_t, cmd const[DM_DEV_CREATE], arg intptr)\n")
  in
  let fresh = Syzlang.Merge.new_syscalls ~base next in
  Alcotest.(check int) "one new syscall" 1 (List.length fresh);
  Alcotest.(check string) "its name" "ioctl$DM_DEV_CREATE"
    (Syzlang.Ast.syscall_full_name (List.hd fresh))

(* ------------------------------------------------------------------ *)
(* Merge and validator differentials                                   *)
(* ------------------------------------------------------------------ *)

(* The pairwise-fold merge and the [List.mem] validator that
   [Merge.merge_all] and [Validate.validate] replaced, kept as reference
   oracles: every merged suite must equal the fold's, item order
   included, and every error list the old validator's. *)
module Reference = struct
  open Syzlang

  let dedup_by key xs =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun x ->
        let k = key x in
        if Hashtbl.mem seen k then false
        else (
          Hashtbl.replace seen k ();
          true))
      xs

  let merge2 (a : Ast.spec) (b : Ast.spec) : Ast.spec =
    {
      Ast.spec_name = a.spec_name;
      resources = dedup_by (fun r -> r.Ast.res_name) (a.resources @ b.resources);
      syscalls = dedup_by Ast.syscall_full_name (a.syscalls @ b.syscalls);
      types = dedup_by (fun c -> c.Ast.comp_name) (a.types @ b.types);
      flag_sets = dedup_by (fun f -> f.Ast.set_name) (a.flag_sets @ b.flag_sets);
    }

  let merge_all ~name (specs : Ast.spec list) : Ast.spec =
    match specs with
    | [] -> Ast.empty_spec name
    | first :: rest ->
        let merged = List.fold_left merge2 first rest in
        { merged with Ast.spec_name = name }

  (* the validator with [List.mem] name lookups *)
  let validate ~(kernel : Csrc.Index.t) (spec : Ast.spec) : Validate.error list =
    let open Validate in
    let errors = ref [] in
    let err ?ident item msg =
      errors :=
        { err_spec = spec.spec_name; err_item = item; err_msg = msg; err_ident = ident }
        :: !errors
    in
    let type_names = List.map (fun c -> c.Ast.comp_name) spec.types in
    let resource_names = List.map (fun r -> r.Ast.res_name) spec.resources in
    let flag_set_names = List.map (fun f -> f.Ast.set_name) spec.flag_sets in
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
          if not (List.mem name flag_set_names) then
            err ~ident:name item (Printf.sprintf "undefined flags %s" name)
      | Ast.Struct_ref name | Ast.Union_ref name ->
          if not (List.mem name type_names) then
            err ~ident:name item (Printf.sprintf "undefined type %s" name)
      | Ast.Resource_ref name ->
          if not (List.mem name resource_names) then
            err ~ident:name item (Printf.sprintf "undefined resource %s" name)
      | Ast.Len (target, _) | Ast.Bytesize (target, _) ->
          if not (List.mem target siblings) then
            err ~ident:target item
              (Printf.sprintf "len target %s is not a sibling field" target)
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
    let seen = Hashtbl.create 16 in
    List.iter
      (fun c ->
        let full = Ast.syscall_full_name c in
        if Hashtbl.mem seen full then err (In_syscall full) "duplicate syscall name"
        else Hashtbl.replace seen full ())
      spec.syscalls;
    List.iter
      (fun c ->
        let full = Ast.syscall_full_name c in
        let item = In_syscall full in
        let siblings = List.map (fun f -> f.Ast.fname) c.Ast.args in
        List.iter (fun f -> check_typ item ~siblings f.Ast.ftyp) c.Ast.args;
        (match c.Ast.ret with
        | Some r when not (List.mem r resource_names) ->
            err ~ident:r item (Printf.sprintf "return resource %s is not declared" r)
        | _ -> ());
        if c.Ast.call_name = "ioctl" then
          match c.Ast.args with
          | _fd :: cmd :: _ -> (
              match cmd.Ast.ftyp with
              | Ast.Const _ | Ast.Flags _ -> ()
              | _ -> err item "ioctl command argument must be a const or flags")
          | _ -> err item "ioctl must take at least (fd, cmd)")
      spec.syscalls;
    List.iter
      (fun cd ->
        let item = In_type cd.Ast.comp_name in
        if cd.Ast.comp_fields = [] then err item "empty struct/union";
        let siblings = List.map (fun f -> f.Ast.fname) cd.Ast.comp_fields in
        List.iter (fun f -> check_typ item ~siblings f.Ast.ftyp) cd.Ast.comp_fields)
      spec.types;
    List.iter
      (fun fs ->
        let item = In_flag_set fs.Ast.set_name in
        if fs.Ast.set_values = [] then err item "empty flag set";
        List.iter (check_const item) fs.Ast.set_values)
      spec.flag_sets;
    List.iter
      (fun r ->
        if r.Ast.res_underlying <> "fd" && not (List.mem r.Ast.res_underlying resource_names)
        then
          err ~ident:r.Ast.res_underlying (In_resource r.Ast.res_name)
            (Printf.sprintf "unknown underlying resource %s" r.Ast.res_underlying))
      spec.resources;
    List.rev !errors
end

(* Random specs over small name pools, so names collide within a spec
   and across specs in every item kind, and references dangle. Items
   that share a name usually differ in content, so which occurrence
   survives a merge is observable. *)
let gen_spec : Syzlang.Ast.spec QCheck.Gen.t =
  let open QCheck.Gen in
  let open Syzlang.Ast in
  let type_name = oneofl [ "t0"; "t1"; "t2"; "t_ghost" ] in
  let res_name = oneofl [ "r0"; "r1"; "r2"; "r_ghost" ] in
  let flag_name = oneofl [ "f0"; "f1"; "f_ghost" ] in
  let field_name = oneofl [ "x"; "y"; "z" ] in
  let const = map const_of_name (oneofl [ "DM_VERSION"; "O_RDWR"; "NO_SUCH_MACRO" ]) in
  let typ =
    fix
      (fun self depth ->
        let leaf =
          oneof
            [
              map (fun n -> Struct_ref n) type_name;
              map (fun n -> Union_ref n) type_name;
              map (fun n -> Flags (n, I32)) flag_name;
              map (fun n -> Resource_ref n) res_name;
              map (fun n -> Len (n, I32)) field_name;
              map (fun c -> Const (c, I32)) const;
              map (fun n -> Int (I32, Some { lo = Int64.of_int n; hi = 4L })) (int_bound 8);
              return Fd;
            ]
        in
        if depth = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun t -> Ptr (In, t)) (self (depth - 1));
              map2 (fun t n -> Array (t, Some n)) (self (depth - 1)) (int_range (-1) 4);
            ])
      2
  in
  let fields =
    list_size (int_bound 3) (map2 (fun fname ftyp -> { fname; ftyp }) field_name typ)
  in
  let syscall =
    map4
      (fun call_name variant args ret -> { call_name; variant; args; ret })
      (oneofl [ "ioctl"; "openat"; "read" ])
      (opt (oneofl [ "A"; "B"; "C" ]))
      fields
      (opt res_name)
  in
  let comp =
    map3
      (fun comp_name comp_kind comp_fields -> { comp_name; comp_kind; comp_fields })
      type_name (oneofl [ Struct; Union ]) fields
  in
  let resource =
    map2
      (fun res_name res_underlying -> { res_name; res_underlying })
      res_name
      (oneofl [ "fd"; "r0"; "r1"; "r_ghost" ])
  in
  let flag_set =
    map2 (fun set_name set_values -> { set_name; set_values }) flag_name
      (list_size (int_bound 2) const)
  in
  let items g = list_size (int_bound 4) g in
  map4
    (fun resources syscalls types flag_sets ->
      { spec_name = "g"; resources; syscalls; types; flag_sets })
    (items resource) (items syscall) (items comp) (items flag_set)

let arb_spec = QCheck.make ~print:Syzlang.Printer.spec_str gen_spec

(* no specs, a lone spec (which keeps its own duplicates), or many *)
let arb_spec_list =
  QCheck.make
    ~print:(fun specs -> String.concat "\n----\n" (List.map Syzlang.Printer.spec_str specs))
    QCheck.Gen.(
      oneof
        [
          return [];
          map (fun s -> [ s ]) gen_spec;
          list_size (int_range 2 5) gen_spec;
        ])

let qcheck_merge_matches_reference =
  QCheck.Test.make ~name:"merge_all = fold of merge2" ~count:500 arb_spec_list (fun specs ->
      Syzlang.Merge.merge_all ~name:"m" specs = Reference.merge_all ~name:"m" specs)

let qcheck_validate_matches_reference =
  QCheck.Test.make ~name:"validate = List.mem validator" ~count:500 arb_spec (fun spec ->
      let kernel = Lazy.force kernel in
      Syzlang.Validate.validate ~kernel spec = Reference.validate ~kernel spec)

let test_rewrite_substitution () =
  let spec = parse simple_spec in
  let broken = Syzlang.Rewrite.substitute_name spec ~bad:"DM_VERSION" ~good:"DM_VERSION_X" in
  let ioctl = List.nth broken.syscalls 1 in
  Alcotest.(check (option string)) "variant renamed" (Some "DM_VERSION_X") ioctl.variant;
  (* and back *)
  let fixed = Syzlang.Rewrite.substitute_name broken ~bad:"DM_VERSION_X" ~good:"DM_VERSION" in
  Alcotest.(check int) "fixed validates" 0
    (List.length (Syzlang.Validate.validate ~kernel:(Lazy.force kernel) fixed))

let test_counts () =
  let spec = parse simple_spec in
  Alcotest.(check int) "count_syscalls" 2 (Syzlang.Ast.count_syscalls spec);
  Alcotest.(check int) "count_types" 2 (Syzlang.Ast.count_types spec)

let test_manual_specs_parse_and_validate () =
  (* every hand-written spec in the corpus must parse and validate *)
  let kernel =
    (Vkernel.Machine.boot (Corpus.Registry.loaded ())).Vkernel.Machine.index
  in
  List.iter
    (fun (e : Corpus.Types.entry) ->
      match e.existing_spec with
      | None -> ()
      | Some _ -> (
          match Baseline.Syzkaller_specs.spec_of_entry e with
          | None -> Alcotest.failf "spec for %s did not parse" e.name
          | Some spec ->
              let errors = Syzlang.Validate.validate ~kernel spec in
              if errors <> [] then
                Alcotest.failf "manual spec for %s invalid: %s" e.name
                  (Syzlang.Validate.error_to_string (List.hd errors))))
    (Corpus.Registry.loaded ())

let qcheck_parse_never_crashes =
  QCheck.Test.make ~name:"parser rejects garbage gracefully" ~count:300
    QCheck.(string_of_size (Gen.int_bound 80))
    (fun s ->
      match Syzlang.Parser.parse_spec ~name:"fuzz" s with
      | _ -> true
      | exception Syzlang.Parser.Error _ -> true)

(* The manual specs and the pipeline's specs of every generation target,
   printed *)
let printed_specs =
  lazy
    (let entries = Corpus.Registry.loaded () in
     let kernel = (Vkernel.Machine.boot entries).Vkernel.Machine.index in
     let oracle = Oracle.create ~knowledge:kernel () in
     let generated =
       List.filter_map
         (fun e -> (Kernelgpt.Pipeline.run ~oracle ~kernel e).o_spec)
         (Report.Suites.generation_targets entries)
     in
     let manual = List.filter_map Baseline.Syzkaller_specs.spec_of_entry entries in
     Array.of_list (List.map Syzlang.Printer.spec_str (manual @ generated)))

(* Tokens a mutant may put in place of one of the text's: the syntax's
   punctuation and keywords, numbers at and past int64, and characters
   the syntax lacks *)
let replacement_tokens =
  [| "{"; "}"; "["; "]"; "("; ")"; ","; "$"; "="; ":"; "-"; "#"; "\""; "?"; ""; "resource";
     "fd"; "ptr"; "in"; "inout"; "const"; "flags"; "len"; "array"; "string"; "int8"; "intptr";
     "0"; "-1"; "0x10"; "9223372036854775807"; "99999999999999999999"; "0xg"; "x y" |]

(* One mutation of [text]: drop, duplicate or swap a line, cut the text
   at a byte, or replace one token *)
let mutate_text text =
  let open QCheck.Gen in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let join ls = String.concat "\n" ls in
  let line_edit f = map (fun i -> join (List.concat (List.mapi (f i) (Array.to_list lines)))) in
  let swap i j =
    let ls = Array.copy lines in
    ls.(i) <- lines.(j);
    ls.(j) <- lines.(i);
    join (Array.to_list ls)
  in
  (* a token is a run of word characters or one other visible character *)
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  let starts =
    List.filter
      (fun i ->
        let c = text.[i] in
        c <> ' ' && c <> '\t' && c <> '\n' && not (i > 0 && is_word c && is_word text.[i - 1]))
      (List.init (String.length text) Fun.id)
    |> Array.of_list
  in
  let replace k r =
    let i = starts.(k) in
    let j = ref (i + 1) in
    if is_word text.[i] then
      while !j < String.length text && is_word text.[!j] do
        incr j
      done;
    String.sub text 0 i ^ replacement_tokens.(r) ^ String.sub text !j (String.length text - !j)
  in
  let any_line = int_bound (n - 1) in
  frequency
    ([
       (2, line_edit (fun i k l -> if k = i then [] else [ l ]) any_line);
       (2, line_edit (fun i k l -> if k = i then [ l; l ] else [ l ]) any_line);
       (2, map2 swap any_line any_line);
       (1, map (fun k -> String.sub text 0 k) (int_bound (String.length text)));
     ]
    @
    if starts = [||] then []
    else
      [
        ( 3,
          map2 replace
            (int_bound (Array.length starts - 1))
            (int_bound (Array.length replacement_tokens - 1)) );
      ])

(* Only the parser's own error may escape a mutated printed spec, and it
   names a line the text has *)
let qcheck_mutated_specs_fail_located =
  let gen =
    QCheck.Gen.(
      delay (fun () ->
          let specs = Lazy.force printed_specs in
          let* i = int_bound (Array.length specs - 1) in
          let* rounds = int_range 1 3 in
          let rec go k text = if k = 0 then return text else mutate_text text >>= go (k - 1) in
          go rounds specs.(i)))
  in
  QCheck.Test.make ~name:"mutated printed specs fail at a line" ~count:1000
    (QCheck.make ~print:Fun.id gen) (fun text ->
      let lines = List.length (String.split_on_char '\n' text) in
      match Syzlang.Parser.parse_spec ~name:"mutant" text with
      | _ -> true
      | exception Syzlang.Parser.Error (msg, line) ->
          if line < 1 || line > lines then
            QCheck.Test.fail_reportf "%S at line %d of a %d-line text" msg line lines
          else true)

let test_unterminated_type_line () =
  match parse "resource fd_x[fd]\nfoo {\n  a int32\n" with
  | _ -> Alcotest.fail "an unterminated struct parsed"
  | exception Syzlang.Parser.Error (msg, line) ->
      Alcotest.(check (pair string int)) "error" ("unterminated type definition foo", 2) (msg, line)

let qcheck_printer_parser_stable =
  (* printing a randomly assembled well-formed spec and reparsing keeps
     the syscall count *)
  let gen =
    QCheck.Gen.(
      map
        (fun n ->
          let calls =
            List.init (1 + (n mod 5)) (fun i ->
                {
                  Syzlang.Ast.call_name = "ioctl";
                  variant = Some (Printf.sprintf "C%d" i);
                  args =
                    [
                      { Syzlang.Ast.fname = "fd"; ftyp = Syzlang.Ast.Resource_ref "fd_x" };
                      {
                        Syzlang.Ast.fname = "cmd";
                        ftyp = Syzlang.Ast.Const (Syzlang.Ast.const_of_value (Int64.of_int i), Syzlang.Ast.Iptr);
                      };
                      { Syzlang.Ast.fname = "arg"; ftyp = Syzlang.Ast.Int (Syzlang.Ast.Iptr, None) };
                    ];
                  ret = None;
                })
          in
          {
            Syzlang.Ast.spec_name = "x";
            resources = [ { Syzlang.Ast.res_name = "fd_x"; res_underlying = "fd" } ];
            syscalls = calls;
            types = [];
            flag_sets = [];
          })
        (int_bound 1000))
  in
  QCheck.Test.make ~name:"print/parse preserves syscall count" ~count:100
    (QCheck.make gen) (fun spec ->
      let text = Syzlang.Printer.spec_str spec in
      let spec2 = Syzlang.Parser.parse_spec ~name:"x" text in
      List.length spec2.syscalls = List.length spec.syscalls)

(* The builtin constants are a [match]; over an index that defines
   nothing, [resolve_const] gives exactly the list they replaced. *)
let former_builtin_consts =
  [
    ("AT_FDCWD", -100L); ("O_RDONLY", 0L); ("O_WRONLY", 1L); ("O_RDWR", 2L);
    ("O_NONBLOCK", 0x800L); ("O_CLOEXEC", 0o2000000L); ("SOCK_STREAM", 1L); ("SOCK_DGRAM", 2L);
    ("SOCK_RAW", 3L); ("SOCK_SEQPACKET", 5L); ("AF_UNSPEC", 0L); ("AF_UNIX", 1L);
    ("AF_INET", 2L); ("AF_INET6", 10L); ("AF_PACKET", 17L); ("AF_NETLINK", 16L);
    ("AF_BLUETOOTH", 31L); ("AF_RDS", 21L); ("AF_LLC", 26L); ("AF_CAIF", 37L);
    ("AF_PHONET", 35L); ("AF_PPPOX", 24L); ("AF_VSOCK", 40L); ("AF_MCTP", 45L);
    ("SOL_SOCKET", 1L); ("MSG_DONTWAIT", 0x40L);
  ]

let test_builtin_consts_match_list () =
  let empty = Csrc.Index.empty () in
  Corpus_idents.agree ~what:"builtin const"
    ~show:(function Some v -> Int64.to_string v | None -> "none")
    ~listed:(List.map fst former_builtin_consts)
    ~reference:(fun name -> List.assoc_opt name former_builtin_consts)
    (fun name ->
      Syzlang.Validate.resolve_const empty { Syzlang.Ast.const_name = Some name; const_value = None })

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "syzlang"
    [
      ( "parser",
        [
          t "roundtrip" test_parse_roundtrip;
          t "union resolution" test_union_resolution;
          t "resource resolution" test_resource_resolution;
          QCheck_alcotest.to_alcotest qcheck_parse_never_crashes;
          t "unterminated type line" test_unterminated_type_line;
          QCheck_alcotest.to_alcotest qcheck_mutated_specs_fail_located;
          QCheck_alcotest.to_alcotest qcheck_printer_parser_stable;
        ] );
      ( "validate",
        [
          t "clean spec" test_validate_clean;
          t "unknown const" test_validate_unknown_const;
          t "unknown type" test_validate_unknown_type;
          t "duplicate syscall" test_validate_duplicate;
          t "len target" test_validate_len_target;
          t "ioctl cmd const" test_validate_ioctl_needs_const_cmd;
          t "undeclared resource" test_validate_undeclared_resource;
          t "err_ident structured" test_validate_err_ident_structured;
          t "err_ident absent for structural" test_validate_err_ident_absent_for_structural;
          t "err_ident mid-message" test_validate_len_target_ident;
          t "resolve fills values" test_resolve_spec_fills_values;
          QCheck_alcotest.to_alcotest qcheck_validate_matches_reference;
          t "builtin consts = former list" test_builtin_consts_match_list;
        ] );
      ( "merge-and-rewrite",
        [
          t "merge dedup" test_merge_dedup;
          t "new syscalls" test_new_syscalls;
          QCheck_alcotest.to_alcotest qcheck_merge_matches_reference;
          t "rewrite substitution" test_rewrite_substitution;
          t "counts" test_counts;
        ] );
      ("corpus-specs", [ t "all manual specs parse+validate" test_manual_specs_parse_and_validate ]);
    ]
