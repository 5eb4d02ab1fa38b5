(* Corpus-wide invariants: every module parses, ground truth is
   consistent with the source, the population matches the paper's §5.1
   numbers, and the bug registry points at real modules. *)

let all = lazy (Lazy.force Corpus.Registry.all)

let test_population_counts () =
  let all = Lazy.force all in
  let drivers = List.filter (fun (e : Corpus.Types.entry) -> e.kind = Corpus.Types.Driver) all in
  let sockets = List.filter (fun (e : Corpus.Types.entry) -> e.kind = Corpus.Types.Socket) all in
  Alcotest.(check int) "666 driver handlers" 666 (List.length drivers);
  Alcotest.(check int) "85 socket handlers" 85 (List.length sockets);
  Alcotest.(check int) "278 loaded drivers" 278
    (List.length (List.filter (fun (e : Corpus.Types.entry) -> e.loaded) drivers));
  Alcotest.(check int) "81 loaded sockets" 81
    (List.length (List.filter (fun (e : Corpus.Types.entry) -> e.loaded) sockets))

let test_unique_names () =
  let names = List.map (fun (e : Corpus.Types.entry) -> e.name) (Lazy.force all) in
  Alcotest.(check int) "registry keys unique" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_every_source_parses () =
  List.iter
    (fun (e : Corpus.Types.entry) ->
      let sid = ref 0 in
      match Corpus.Headers.parse_with_header ~sid ~file:(e.name ^ ".c") e.source with
      | _ -> ()
      | exception Csrc.Parser.Error (msg, loc) ->
          Alcotest.failf "%s does not parse: %s at %s" e.name msg (Csrc.Loc.to_string loc)
      | exception Csrc.Lexer.Error (msg, line) ->
          Alcotest.failf "%s does not lex: %s at line %d" e.name msg line)
    (Lazy.force all)

let test_gt_fops_exists () =
  List.iter
    (fun (e : Corpus.Types.entry) ->
      let sid = ref 0 in
      let idx = Csrc.Index.of_files (Corpus.Headers.parse_with_header ~sid ~file:"m.c" e.source) in
      match Csrc.Index.find_global idx e.gt.gt_fops with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: fops global %s missing" e.name e.gt.gt_fops)
    (Lazy.force all)

let test_gt_commands_are_macros () =
  (* every ground-truth command must be a defined, evaluable macro *)
  List.iter
    (fun (e : Corpus.Types.entry) ->
      if e.loaded then begin
        let sid = ref 0 in
        let idx =
          Csrc.Index.of_files (Corpus.Headers.parse_with_header ~sid ~file:"m.c" e.source)
        in
        List.iter
          (fun (g : Corpus.Types.gt_command) ->
            match Csrc.Index.eval_macro idx g.gc_name with
            | Some _ -> ()
            | None -> Alcotest.failf "%s: command %s not a constant macro" e.name g.gc_name)
          e.gt.gt_ioctls
      end)
    (Lazy.force all)

let test_gt_arg_types_exist () =
  List.iter
    (fun (e : Corpus.Types.entry) ->
      if e.loaded then begin
        let sid = ref 0 in
        let idx =
          Csrc.Index.of_files (Corpus.Headers.parse_with_header ~sid ~file:"m.c" e.source)
        in
        List.iter
          (fun (g : Corpus.Types.gt_command) ->
            match g.gc_arg_type with
            | Some t when Csrc.Index.find_composite idx t = None ->
                Alcotest.failf "%s: arg type %s of %s missing" e.name t g.gc_name
            | _ -> ())
          (e.gt.gt_ioctls @ e.gt.gt_setsockopts)
      end)
    (Lazy.force all)

let test_device_paths_unique () =
  let paths =
    List.concat_map (fun (e : Corpus.Types.entry) -> if e.loaded then e.gt.gt_paths else [])
      (Lazy.force all)
  in
  Alcotest.(check int) "device paths unique" (List.length paths)
    (List.length (List.sort_uniq String.compare paths))

let test_socket_triples_unique () =
  let triples =
    List.filter_map
      (fun (e : Corpus.Types.entry) -> if e.loaded then e.gt.gt_socket else None)
      (Lazy.force all)
  in
  Alcotest.(check int) "socket triples unique" (List.length triples)
    (List.length (List.sort_uniq compare triples))

let test_bug_modules_exist () =
  List.iter
    (fun (b : Corpus.Types.bug) ->
      match Corpus.Registry.find b.bug_module with
      | Some e -> Alcotest.(check bool) (b.bug_module ^ " loaded") true e.loaded
      | None -> Alcotest.failf "bug module %s missing" b.bug_module)
    Corpus.Registry.bugs

let test_bug_count_matches_paper () =
  Alcotest.(check int) "24 bugs" 24 (List.length Corpus.Registry.bugs);
  Alcotest.(check int) "11 CVEs" 11
    (List.length (List.filter (fun b -> b.Corpus.Types.bug_cve <> None) Corpus.Registry.bugs));
  Alcotest.(check int) "12 fixed" 12
    (List.length (List.filter (fun b -> b.Corpus.Types.bug_fixed) Corpus.Registry.bugs));
  Alcotest.(check int) "21 confirmed" 21
    (List.length (List.filter (fun b -> b.Corpus.Types.bug_confirmed) Corpus.Registry.bugs))

let test_table_membership () =
  Alcotest.(check int) "28 valid table-5 drivers" 28 (List.length (Corpus.Registry.table5 ()));
  Alcotest.(check int) "10 table-6 sockets" 10 (List.length (Corpus.Registry.table6 ()));
  Alcotest.(check int) "10 ablation drivers" 10 (List.length (Corpus.Registry.ablation_drivers ()))

let test_generation_deterministic () =
  let a = Corpus.Gen.population ~seed:7 ~n_drivers:5 ~loaded_drivers:3 ~n_sockets:2 ~loaded_sockets:1 () in
  let b = Corpus.Gen.population ~seed:7 ~n_drivers:5 ~loaded_drivers:3 ~n_sockets:2 ~loaded_sockets:1 () in
  List.iter2
    (fun (x : Corpus.Types.entry) (y : Corpus.Types.entry) ->
      Alcotest.(check string) "same name" x.name y.name;
      Alcotest.(check string) "same source" x.source y.source)
    a b

let test_generated_spec_fraction_consistency () =
  (* an entry with a full-coverage spec must not be "incomplete" *)
  let complete =
    List.filter
      (fun (e : Corpus.Types.entry) ->
        e.loaded && not (Baseline.Syzkaller_specs.is_incomplete e))
      (Lazy.force all)
  in
  Alcotest.(check bool) "some handlers are complete" true (List.length complete > 100);
  List.iter
    (fun (e : Corpus.Types.entry) ->
      Alcotest.(check bool) (e.name ^ " has a spec") true (e.existing_spec <> None))
    complete

let test_pick_empty_raises () =
  (* regression: pick on an empty list used to die inside List.nth with
     an unhelpful Failure; it must name the culprit instead *)
  let r = Corpus.Gen.rng_make 1 in
  Alcotest.check_raises "empty pick is a descriptive invalid_arg"
    (Invalid_argument "Gen.pick: empty list") (fun () ->
      ignore (Corpus.Gen.pick r ([] : int list)));
  Alcotest.check_raises "rng pick matches"
    (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Fuzzer.Rng.pick (Fuzzer.Rng.make 1) ([] : int list)))

let test_pick_in_range () =
  let r = Corpus.Gen.rng_make 42 in
  for _ = 1 to 200 do
    let x = Corpus.Gen.pick r [ 1; 2; 3 ] in
    Alcotest.(check bool) "picked a member" true (List.mem x [ 1; 2; 3 ])
  done;
  Alcotest.(check int) "singleton pick" 9 (Corpus.Gen.pick r [ 9 ])

(* ------------------------------------------------------------------ *)
(* The shared header is parsed once and reused by every index          *)

let fresh_header ~sid =
  Csrc.Parser.parse_file ~file:"include/kernel.h" ~sid Corpus.Headers.kernel_h

let test_header_draws_no_sids () =
  let sid = ref 0 in
  let fresh = fresh_header ~sid in
  if !sid <> 0 then
    Alcotest.failf
      "parsing include/kernel.h drew %d statement ids; a header shared across indexes and \
       domains must hold no statements"
      !sid;
  if fresh <> Corpus.Headers.header then
    Alcotest.fail "Headers.header differs from a fresh parse of kernel_h"

let test_parse_with_header_matches_fresh_parse () =
  List.iter
    (fun (e : Corpus.Types.entry) ->
      (* a nonzero start checks that the body alone threads the counter *)
      let shared_sid = ref 1000 and fresh_sid = ref 1000 in
      let shared = Corpus.Headers.parse_with_header ~sid:shared_sid ~file:"m.c" e.source in
      let header = fresh_header ~sid:fresh_sid in
      let fresh = [ header; Csrc.Parser.parse_file ~file:"m.c" ~sid:fresh_sid e.source ] in
      if shared <> fresh then Alcotest.failf "%s: shared-header parse differs from a fresh one" e.name;
      if !shared_sid <> !fresh_sid then
        Alcotest.failf "%s: sid counter ends at %d, a fresh parse at %d" e.name !shared_sid
          !fresh_sid)
    (Lazy.force all)

let test_boot_sids_match_fresh_parse () =
  let entries = Corpus.Registry.loaded () in
  let m = Vkernel.Machine.boot entries in
  (* the boot of a kernel that parses its header afresh, ahead of the modules *)
  let sid = ref 0 in
  ignore (fresh_header ~sid);
  let expected = Hashtbl.create 4096 in
  List.iter
    (fun (e : Corpus.Types.entry) ->
      let before = !sid in
      ignore (Csrc.Parser.parse_file ~file:(e.name ^ ".c") ~sid e.source);
      for s = before to !sid - 1 do
        Hashtbl.replace expected s e.name
      done)
    entries;
  let sorted h = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []) in
  Alcotest.(check int) "n_sids" !sid m.Vkernel.Machine.n_sids;
  Alcotest.(check int) "n_sids of the loaded corpus" 16191 m.Vkernel.Machine.n_sids;
  Alcotest.(check (list (pair int string))) "sid_module" (sorted expected)
    (sorted m.Vkernel.Machine.sid_module)

let test_whole_kernel_boot () =
  let m = Vkernel.Machine.boot (Corpus.Registry.loaded ()) in
  Alcotest.(check int) "278 devices" 278 (Hashtbl.length m.Vkernel.Machine.devices);
  Alcotest.(check int) "81 sockets" 81
    (Hashtbl.fold (fun _ regs n -> n + List.length regs) m.Vkernel.Machine.sockets 0)

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "corpus"
    [
      ( "population",
        [
          t "paper counts" test_population_counts;
          t "unique names" test_unique_names;
          t "deterministic generation" test_generation_deterministic;
          t "spec-fraction consistency" test_generated_spec_fraction_consistency;
          t "pick empty raises" test_pick_empty_raises;
          t "pick in range" test_pick_in_range;
        ] );
      ( "ground-truth",
        [
          t "all sources parse" test_every_source_parses;
          t "fops exist" test_gt_fops_exists;
          t "commands are macros" test_gt_commands_are_macros;
          t "arg types exist" test_gt_arg_types_exist;
          t "device paths unique" test_device_paths_unique;
          t "socket triples unique" test_socket_triples_unique;
        ] );
      ( "bugs-and-tables",
        [
          t "bug modules exist" test_bug_modules_exist;
          t "bug counts" test_bug_count_matches_paper;
          t "table membership" test_table_membership;
        ] );
      ( "shared-header",
        [
          t "header draws no sids" test_header_draws_no_sids;
          t "parse_with_header = fresh parse" test_parse_with_header_matches_fresh_parse;
          t "boot sids = fresh parse" test_boot_sids_match_fresh_parse;
        ] );
      ("machine", [ t "whole kernel boots" test_whole_kernel_boot ]);
    ]
