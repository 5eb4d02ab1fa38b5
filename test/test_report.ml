(* Smoke tests of the experiment layer: suite assembly and the
   statistics tables (fuzzing-heavy experiments run at tiny budgets). *)

let ctx = lazy (Report.Suites.build ())

(* Table 3's suites, pinned: item counts (syscalls, types, resources,
   flag sets) and the MD5 of the printed suite, so a change in what a
   merge keeps or in what order fails here. *)
let test_suites_assemble () =
  let ctx = Lazy.force ctx in
  List.iter
    (fun (suite, shape, md5) ->
      let s : Syzlang.Ast.spec = suite ctx in
      Alcotest.(check (list int)) (s.spec_name ^ " shape") shape
        List.
          [ length s.syscalls; length s.types; length s.resources; length s.flag_sets ];
      Alcotest.(check string) (s.spec_name ^ " printed md5") md5
        (Digest.to_hex (Digest.string (Syzlang.Printer.spec_str s))))
    [
      (Report.Suites.syzkaller_suite, [ 2122; 851; 308; 1 ], "7e54fccf5464a7977dfda71db4868685");
      (Report.Suites.syzdescribe_suite, [ 2901; 993; 336; 1 ], "efe3baa58a5484f2e0d25cc3d3b5508d");
      (Report.Suites.kernelgpt_suite, [ 3228; 1275; 369; 2 ], "bc5dbf0e0c21ef41155023ae50893361");
    ]

(* Merging is linear in the suite: four copies of the manual specs, each
   renamed so nothing collides, allocate about four times what one copy
   does. A merge that re-walks the suite built so far for every spec it
   adds allocates about sixteen times (14.5x for a pairwise fold), so the
   6x bound tells the two apart. *)
let test_merge_allocation_linear () =
  let manual =
    List.filter_map Baseline.Syzkaller_specs.spec_of_entry (Corpus.Registry.loaded ())
  in
  let copy i =
    let sfx n = Printf.sprintf "%s_%d" n i in
    List.map
      (fun (s : Syzlang.Ast.spec) ->
        Syzlang.Ast.
          {
            s with
            resources = List.map (fun r -> { r with res_name = sfx r.res_name }) s.resources;
            syscalls = List.map (fun c -> { c with call_name = sfx c.call_name }) s.syscalls;
            types = List.map (fun c -> { c with comp_name = sfx c.comp_name }) s.types;
            flag_sets = List.map (fun f -> { f with set_name = sfx f.set_name }) s.flag_sets;
          })
      manual
  in
  let words specs =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Syzlang.Merge.merge_all ~name:"m" specs));
    Gc.minor_words () -. w0
  in
  let one = copy 0 and four = List.concat_map copy [ 0; 1; 2; 3 ] in
  let w1 = words one and w4 = words four in
  if w4 >= 6.0 *. w1 then
    Alcotest.failf "merging 4 copies allocated %.0f words, %.1fx one copy's %.0f" w4 (w4 /. w1) w1

let test_table1_shape () =
  let t = Report.Exp_specs.table1 (Lazy.force ctx) in
  (* pinned to the printed table: the paper's shape (KernelGPT validates
     most incomplete handlers, SyzDescribe far fewer and never sockets),
     and the SyzDescribe column counts only specs whose inferred device
     path the booted kernel registers *)
  let row (r : Report.Exp_specs.table1_row) =
    Printf.sprintf "%d / %d / %s / %d (%d)" r.t1_total r.t1_incomplete
      (match r.t1_sd_valid with Some v -> string_of_int v | None -> "N/A")
      r.t1_kgpt_valid r.t1_kgpt_fixed
  in
  Alcotest.(check string) "Driver" "278 / 76 / 49 / 75 (9)" (row t.drivers);
  Alcotest.(check string) "Socket" "81 / 69 / N/A / 67 (10)" (row t.sockets)

let test_table2_shape () =
  let t = Report.Exp_specs.table2 (Lazy.force ctx) in
  Alcotest.(check bool) "kgpt generates driver syscalls" true (t.kg_driver.t2_syscalls > 100);
  Alcotest.(check bool) "kgpt generates socket syscalls" true (t.kg_socket.t2_syscalls > 100);
  Alcotest.(check bool) "kgpt more types than sd" true (t.kg_driver.t2_types > t.sd_driver.t2_types)

let test_fig7_sums () =
  let ctx = Lazy.force ctx in
  let h = Report.Exp_specs.fig7 ctx Corpus.Types.Driver in
  let bucketed = Array.fold_left ( + ) 0 h.buckets in
  Alcotest.(check int) "histogram partitions loaded drivers" 278 (bucketed + h.none_missing)

let test_table3_tiny () =
  let t = Report.Exp_fuzz.table3 ~reps:1 ~budget:300 (Lazy.force ctx) in
  Alcotest.(check int) "three suites" 3 (List.length t.rows);
  List.iter
    (fun (r : Report.Exp_fuzz.suite_result) ->
      Alcotest.(check bool) (r.sr_name ^ " has coverage") true (r.sr_cov > 0.0))
    t.rows

let test_correctness_audit () =
  let a = Report.Exp_correctness.audit (Lazy.force ctx) in
  Alcotest.(check bool) "audits a few dozen drivers" true (a.a_drivers > 20);
  (* §5.1.3 shape: the vast majority of commands are recovered *)
  Alcotest.(check bool) "missing tail is small" true (a.a_missing_cmds * 5 < a.a_total_cmds)

(* ------------------------------------------------------------------ *)
(* Parallel determinism: jobs=4 must reproduce the sequential results
   exactly — same specs, coverage, crash counts, and oracle accounting *)

let test_suites_build_parallel_deterministic () =
  let seq = Lazy.force ctx in
  let par = Report.Suites.build ~jobs:4 () in
  Alcotest.(check bool) "table1 identical" true
    (Report.Exp_specs.table1 seq = Report.Exp_specs.table1 par);
  Alcotest.(check int) "oracle queries match" seq.oracle.Oracle.queries
    par.oracle.Oracle.queries;
  Alcotest.(check int) "oracle tokens match" seq.oracle.Oracle.prompt_tokens
    par.oracle.Oracle.prompt_tokens;
  Alcotest.(check int) "same kernelgpt suite"
    (Syzlang.Ast.count_syscalls (Report.Suites.kernelgpt_suite seq))
    (Syzlang.Ast.count_syscalls (Report.Suites.kernelgpt_suite par))

let test_table3_parallel_deterministic () =
  let ctx = Lazy.force ctx in
  let seq = Report.Exp_fuzz.table3 ~reps:2 ~budget:200 ~jobs:1 ctx in
  let par = Report.Exp_fuzz.table3 ~reps:2 ~budget:200 ~jobs:4 ctx in
  List.iter2
    (fun (a : Report.Exp_fuzz.suite_result) (b : Report.Exp_fuzz.suite_result) ->
      Alcotest.(check string) "suite name" a.sr_name b.sr_name;
      Alcotest.(check (float 0.0)) (a.sr_name ^ " coverage") a.sr_cov b.sr_cov;
      Alcotest.(check int) (a.sr_name ^ " unique") a.sr_unique b.sr_unique;
      Alcotest.(check (float 0.0)) (a.sr_name ^ " crashes") a.sr_crashes b.sr_crashes)
    seq.rows par.rows

let test_table5_parallel_deterministic () =
  let ctx = Lazy.force ctx in
  let seq = Report.Exp_drivers.table5 ~reps:2 ~budget:150 ~jobs:1 ctx in
  let par = Report.Exp_drivers.table5 ~reps:2 ~budget:150 ~jobs:4 ctx in
  Alcotest.(check int) "same row count"
    (List.length seq.driver_rows) (List.length par.driver_rows);
  List.iter2
    (fun (a : Report.Exp_drivers.row) (b : Report.Exp_drivers.row) ->
      Alcotest.(check string) "row name" a.r_name b.r_name;
      Alcotest.(check bool) (a.r_name ^ " cells identical") true (a = b))
    seq.driver_rows par.driver_rows

let test_table5_cells_pair_with_suites () =
  (* regression: the results cursor must be consumed left-to-right.
     Record-field evaluation order (right-to-left in practice) once
     crossed the Syzkaller and KernelGPT coverage columns. *)
  let ctx = Lazy.force ctx in
  let t = Report.Exp_drivers.table5 ~reps:1 ~budget:150 ~jobs:1 ctx in
  let entry = Corpus.Registry.find_exn "kvm" in
  let expect = function
    | None -> Alcotest.fail "kvm suite spec missing"
    | Some spec ->
        let machine = Vkernel.Machine.boot [ entry ] in
        let res = Fuzzer.Campaign.run ~seed:104729 ~budget:150 ~machine spec in
        float_of_int (Fuzzer.Campaign.module_coverage machine res entry.name)
  in
  let row =
    List.find
      (fun (r : Report.Exp_drivers.row) -> r.r_name = entry.display_name)
      t.driver_rows
  in
  Alcotest.(check (option (float 0.0))) "syzkaller cell is the syzkaller campaign"
    (Some (expect (Baseline.Syzkaller_specs.spec_of_entry entry)))
    row.r_syzkaller.c_cov;
  Alcotest.(check (option (float 0.0))) "kernelgpt cell is the kernelgpt campaign"
    (Some (expect (Report.Suites.kgpt_spec ctx entry.name)))
    row.r_kernelgpt.c_cov

let test_module_suite_merges () =
  let ctx = Lazy.force ctx in
  let dm = Report.Suites.module_suite ctx "dm" in
  Alcotest.(check bool) "dm module suite has the generated ioctls" true
    (Syzlang.Ast.count_syscalls dm >= 18)

(* Building the shared context sequentially: the whole-kernel boot, then
   the KernelGPT pipeline and SyzDescribe over every generation target;
   12,532,122 minor and 66,909 direct major-heap words when pinned *)
let test_pin_suites_build () =
  let w = Alloc_pin.repeat (fun () -> Report.Suites.build ~jobs:1 ()) in
  Alloc_pin.check ~bound:12_909_000.0 w.minor;
  Alloc_pin.check ~what:"direct major-heap words" ~bound:68_920.0 w.direct_major

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "report"
    [
      ( "experiments",
        [
          t "suites assemble" test_suites_assemble;
          t "merge allocation linear" test_merge_allocation_linear;
          t "table1 shape" test_table1_shape;
          t "table2 shape" test_table2_shape;
          t "fig7 partitions" test_fig7_sums;
          t "table3 tiny run" test_table3_tiny;
          t "correctness audit" test_correctness_audit;
          t "module suite" test_module_suite_merges;
          t "suites build allocation pin" test_pin_suites_build;
        ] );
      ( "parallel-determinism",
        [
          t "suites build jobs=4" test_suites_build_parallel_deterministic;
          t "table3 jobs=4" test_table3_parallel_deterministic;
          t "table5 jobs=4" test_table5_parallel_deterministic;
          t "table5 cell pairing" test_table5_cells_pair_with_suites;
        ] );
    ]
