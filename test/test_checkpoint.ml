(* Tests for campaign checkpoint/resume and the executor supervisor:
   round-trip identity, corruption detection, wedge-then-reboot. *)

let dm_ctx =
  lazy
    (let entry = Corpus.Registry.find_exn "dm" in
     let machine = Vkernel.Machine.boot [ entry ] in
     let kernel = machine.Vkernel.Machine.index in
     let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
     let spec = Option.get (Kernelgpt.Pipeline.run ~oracle ~kernel entry).o_spec in
     (machine, spec))

let tmp_file () = Filename.temp_file "kgpt-ckpt" ".jsonl"

let outcome (res : Fuzzer.Campaign.result) =
  ( res.executions,
    Fuzzer.Campaign.total_coverage res,
    Fuzzer.Campaign.crash_titles res,
    res.corpus_size,
    res.corpus_evictions )

(* ------------------------------------------------------------------ *)
(* Checkpoint round-trips                                              *)
(* ------------------------------------------------------------------ *)

(* stop at K, save, load into a fresh campaign, run to completion: the
   result must be identical to never having stopped *)
let resume_matches_uninterrupted ~seed ~budget ~stop_at =
  let machine, spec = Lazy.force dm_ctx in
  let uninterrupted =
    let t = Fuzzer.Campaign.init ~seed ~budget ~machine spec in
    ignore (Fuzzer.Campaign.drive t);
    outcome (Fuzzer.Campaign.result t)
  in
  let file = tmp_file () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let t = Fuzzer.Campaign.init ~seed ~budget ~machine spec in
      (match
         Fuzzer.Campaign.drive ~stop_after:stop_at
           ~on_checkpoint:(fun t -> Fuzzer.Checkpoint.save file (Fuzzer.Campaign.snapshot t))
           t
       with
      | `Stopped -> ()
      | `Completed -> Alcotest.fail "expected the campaign to stop early");
      let snap =
        match Fuzzer.Checkpoint.load file with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let resumed =
        match Fuzzer.Campaign.of_snapshot ~machine spec snap with
        | Ok t -> t
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check int) "resumed at the stop point" stop_at
        (Fuzzer.Campaign.executions resumed);
      ignore (Fuzzer.Campaign.drive resumed);
      outcome (Fuzzer.Campaign.result resumed) = uninterrupted)

let test_resume_identity () =
  List.iter
    (fun stop_at ->
      Alcotest.(check bool)
        (Printf.sprintf "resume at %d matches uninterrupted" stop_at)
        true
        (resume_matches_uninterrupted ~seed:5 ~budget:800 ~stop_at))
    [ 1; 100; 400; 799 ]

let qcheck_resume_identity =
  QCheck.Test.make ~name:"resume at any point matches uninterrupted" ~count:8
    QCheck.(pair (int_range 1 399) (int_range 1 1000))
    (fun (stop_at, seed) -> resume_matches_uninterrupted ~seed ~budget:400 ~stop_at)

let test_snapshot_roundtrip_exact () =
  (* save → load must reproduce the snapshot field for field, programs
     and int64 payloads included *)
  let machine, spec = Lazy.force dm_ctx in
  let sup = { Fuzzer.Supervisor.default with fault_rate = 7; fault_seed = 3 } in
  let t = Fuzzer.Campaign.init ~seed:11 ~budget:600 ~supervisor:sup ~machine spec in
  ignore (Fuzzer.Campaign.drive ~stop_after:300 t);
  let snap = Fuzzer.Campaign.snapshot t in
  let file = tmp_file () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Fuzzer.Checkpoint.save file snap;
      match Fuzzer.Checkpoint.load file with
      | Error e -> Alcotest.fail e
      | Ok back ->
          Alcotest.(check bool) "snapshot round-trips exactly" true (back = snap))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_resume_rejects_other_spec () =
  let machine, spec = Lazy.force dm_ctx in
  let t = Fuzzer.Campaign.init ~seed:1 ~budget:50 ~machine spec in
  ignore (Fuzzer.Campaign.drive ~stop_after:10 t);
  let snap = { (Fuzzer.Campaign.snapshot t) with Fuzzer.Checkpoint.spec_name = "other" } in
  match Fuzzer.Campaign.of_snapshot ~machine spec snap with
  | Ok _ -> Alcotest.fail "expected a spec-name mismatch error"
  | Error e -> Alcotest.(check bool) "error names the foreign spec" true (contains e "other")

let test_resume_rejects_foreign_sids () =
  (* a checkpoint that passes its checksum can still carry sids from a
     different machine: resume must refuse them before touching the
     coverage bitmap, and an in-range resume must stay exact *)
  let machine, spec = Lazy.force dm_ctx in
  let t = Fuzzer.Campaign.init ~seed:2 ~budget:300 ~machine spec in
  ignore (Fuzzer.Campaign.drive ~stop_after:120 t);
  let snap = Fuzzer.Campaign.snapshot t in
  let n_sids = machine.Vkernel.Machine.n_sids in
  List.iter
    (fun sid ->
      let bad = { snap with Fuzzer.Checkpoint.coverage = snap.coverage @ [ sid ] } in
      match Fuzzer.Campaign.of_snapshot ~machine spec bad with
      | Ok _ -> Alcotest.failf "resume accepted coverage sid %d" sid
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names sid %d and n_sids" e sid)
            true
            (contains e (Printf.sprintf "sid %d " sid)
            && contains e (Printf.sprintf "n_sids = %d" n_sids)))
    [ n_sids; -5; 100_000_000 ];
  let finish snap =
    match Fuzzer.Campaign.of_snapshot ~machine spec snap with
    | Error e -> Alcotest.fail e
    | Ok t ->
        ignore (Fuzzer.Campaign.drive t);
        Fuzzer.Campaign.snapshot t
  in
  ignore (Fuzzer.Campaign.drive t);
  Alcotest.(check bool) "in-range resume is exact" true (finish snap = Fuzzer.Campaign.snapshot t)

let test_resume_rejects_empty_corpus_ring () =
  (* a corpus ring of size 0 would crash on the first fresh program, and
     one past [Sys.max_array_length] inside [Array.make]: resume must
     refuse both, naming the value *)
  let machine, spec = Lazy.force dm_ctx in
  let t = Fuzzer.Campaign.init ~seed:3 ~budget:300 ~machine spec in
  ignore (Fuzzer.Campaign.drive ~stop_after:100 t);
  let snap = Fuzzer.Campaign.snapshot t in
  List.iter
    (fun max_corpus ->
      let bad = { snap with Fuzzer.Checkpoint.max_corpus; corpus = [] } in
      match Fuzzer.Campaign.of_snapshot ~machine spec bad with
      | Ok _ -> Alcotest.failf "resume accepted max_corpus %d" max_corpus
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names max_corpus %d" e max_corpus)
            true
            (contains e (Printf.sprintf "max_corpus is %d:" max_corpus)))
    [ 0; -1; 1 lsl 54 ]

let test_resume_rejects_oversized_supervisor () =
  (* the checkpoint's own health list bounds the supervisor's
     allocation: 2^54 instances are refused by the length check, not
     inside [Array.make] *)
  let machine, spec = Lazy.force dm_ctx in
  let t = Fuzzer.Campaign.init ~seed:3 ~budget:300 ~machine spec in
  ignore (Fuzzer.Campaign.drive ~stop_after:100 t);
  let snap = Fuzzer.Campaign.snapshot t in
  Alcotest.(check int) "four health entries" 4 (List.length snap.sup_health);
  let instances = 1 lsl 54 in
  let bad =
    { snap with Fuzzer.Checkpoint.supervisor = { snap.supervisor with instances } }
  in
  match Fuzzer.Campaign.of_snapshot ~machine spec bad with
  | Ok _ -> Alcotest.failf "resume accepted %d executor instances" instances
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names the health list and %d" e instances)
        true
        (contains e (Printf.sprintf "health has 4 instances, config expects %d" instances))

let test_resume_on_warm_memo () =
  (* a resume whose init reuses this domain's prepared suite must finish
     exactly as one on an empty memo (a fresh domain) *)
  let machine, spec = Lazy.force dm_ctx in
  let t = Fuzzer.Campaign.init ~seed:6 ~budget:400 ~machine spec in
  ignore (Fuzzer.Campaign.drive ~stop_after:170 t);
  let snap = Fuzzer.Campaign.snapshot t in
  let finish () =
    match Fuzzer.Campaign.of_snapshot ~machine spec snap with
    | Error e -> failwith e
    | Ok t ->
        ignore (Fuzzer.Campaign.drive t);
        Fuzzer.Campaign.snapshot t
  in
  let warm = finish () in
  let cold = Domain.join (Domain.spawn finish) in
  Alcotest.(check bool) "warm-memo resume = empty-memo resume" true (warm = cold)

(* ------------------------------------------------------------------ *)
(* Corruption detection                                                *)
(* ------------------------------------------------------------------ *)

let saved_checkpoint () =
  let machine, spec = Lazy.force dm_ctx in
  let t = Fuzzer.Campaign.init ~seed:4 ~budget:300 ~machine spec in
  ignore (Fuzzer.Campaign.drive ~stop_after:150 t);
  let file = tmp_file () in
  Fuzzer.Checkpoint.save file (Fuzzer.Campaign.snapshot t);
  file

let with_checkpoint f =
  let file = saved_checkpoint () in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) (fun () -> f file)

let read_all file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all file s =
  let oc = open_out_bin file in
  output_string oc s;
  close_out oc

let expect_error ~substring file =
  match Fuzzer.Checkpoint.load file with
  | Ok _ -> Alcotest.fail (Printf.sprintf "expected load to fail (%s)" substring)
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" e substring)
        true (contains e substring)

let test_truncated_rejected () =
  with_checkpoint (fun file ->
      let content = read_all file in
      (* cut mid-file: the checksum line is gone entirely *)
      write_all file (String.sub content 0 (String.length content / 2));
      expect_error ~substring:"truncated" file)

let test_unterminated_rejected () =
  with_checkpoint (fun file ->
      let content = read_all file in
      (* lose the final newline: a partial last line *)
      write_all file (String.sub content 0 (String.length content - 1));
      expect_error ~substring:"truncated" file)

let test_corrupted_rejected () =
  with_checkpoint (fun file ->
      let content = Bytes.of_string (read_all file) in
      (* flip one digit inside the body; the checksum no longer matches *)
      let i = Bytes.length content / 3 in
      Bytes.set content i (if Bytes.get content i = '0' then '1' else '0');
      write_all file (Bytes.to_string content);
      expect_error ~substring:"corrupted" file)

let test_wrong_version_rejected () =
  with_checkpoint (fun file ->
      let content = read_all file in
      (* bump the version and recompute the checksum, so only the
         version check can object *)
      let lines = String.split_on_char '\n' content in
      let body_lines = List.filteri (fun i _ -> i < List.length lines - 2) lines in
      let header = List.hd body_lines in
      let header' =
        (* textual "version":2 → "version":99 in the header line *)
        let needle = "\"version\":2" in
        let i =
          let rec find i =
            if String.sub header i (String.length needle) = needle then i else find (i + 1)
          in
          find 0
        in
        String.sub header 0 i ^ "\"version\":99"
        ^ String.sub header
            (i + String.length needle)
            (String.length header - i - String.length needle)
      in
      let body = String.concat "\n" (header' :: List.tl body_lines) ^ "\n" in
      let fnv1a64 s =
        let h = ref 0xcbf29ce484222325L in
        String.iter
          (fun c ->
            h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
          s;
        Printf.sprintf "fnv1a64:%016Lx" !h
      in
      write_all file
        (Printf.sprintf "%s{\"checksum\":%S}\n" body (fnv1a64 body));
      expect_error ~substring:"version" file)

let test_missing_rejected () =
  expect_error ~substring:"cannot read" "/nonexistent/kgpt-checkpoint.jsonl"

let test_directory_rejected () =
  (* opening a directory succeeds; reading it fails *)
  expect_error ~substring:"cannot read" (Filename.get_temp_dir_name ())

(* ------------------------------------------------------------------ *)
(* Bytes on disk                                                       *)
(* ------------------------------------------------------------------ *)

(* A hand-built snapshot whose records reach every encoder arm: each
   user-value and syscall-argument kind, int64 extremes, strings that
   need escaping, an empty program, and a crash record. *)
let format_snapshot working_str =
  let open Vkernel.Value in
  let open Vkernel.Machine in
  let data =
    U_struct
      ( "dm_ioctl",
        [
          ("version", U_arr [ U_int 4L; U_int Int64.min_int; U_int Int64.max_int ]);
          ("name", U_str "vol\"0\\\n\t\x01\xff");
          ("next", U_null);
          ("nested", U_struct ("inner", []));
          ("empty", U_arr []);
        ] )
  in
  let prog =
    [
      { c_name = "openat$dm"; c_args = [ P_int (-100L); P_str "/dev/mapper/control"; P_null ] };
      { c_name = "ioctl$DM_VERSION"; c_args = [ P_result 0; P_int 0xc138fd00L; P_data data ] };
    ]
  in
  {
    Fuzzer.Checkpoint.spec_name = "dm";
    seed = 3;
    budget = 3000;
    step_budget = 50_000;
    max_corpus = 512;
    supervisor = { Fuzzer.Supervisor.default with fault_rate = 7; fault_seed = -9 };
    sched = Fuzzer.Schedule.Ucb;
    rng_state = Int64.min_int;
    executions = 1400;
    evictions = 2;
    working_str;
    coverage = [ 0; 3; 17 ];
    corpus = [ (prog, 4, 1); ([], 0, 0) ];
    crashes = [ ("kmalloc bug in ctl_ioctl", prog, 812) ];
    op_stats = [ (12, 2); (3, 0) ];
    sched_totals = (40, 40);
    sup_health = [ 0; 1; 0; 2 ];
    sup_counters = (1, 2, 3, 4);
  }

let test_format_bytes_pinned () =
  (* the MD5 of the two files pins the format itself: a refactor of the
     writer must reproduce every byte *)
  let saved =
    List.map
      (fun working_str ->
        let snap = format_snapshot working_str in
        let file = tmp_file () in
        Fun.protect
          ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
          (fun () ->
            Fuzzer.Checkpoint.save file snap;
            (match Fuzzer.Checkpoint.load file with
            | Ok back -> Alcotest.(check bool) "hand-built snapshot round-trips" true (back = snap)
            | Error e -> Alcotest.fail e);
            read_all file))
      [ None; Some "vol\"0\n" ]
  in
  Alcotest.(check string) "checkpoint bytes" "1efcf85589039e3f00b530f7caaf0344"
    (Digest.to_hex (Digest.string (String.concat "" saved)))

(* ------------------------------------------------------------------ *)
(* Semantic mutants                                                    *)
(* ------------------------------------------------------------------ *)

(* a real dm checkpoint, stopped mid-campaign, as decoded records *)
let checkpoint_records =
  lazy
    (let machine, spec = Lazy.force dm_ctx in
     let t = Fuzzer.Campaign.init ~seed:8 ~budget:400 ~machine spec in
     ignore (Fuzzer.Campaign.drive ~stop_after:200 t);
     let file = tmp_file () in
     Fun.protect
       ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
       (fun () ->
         Fuzzer.Checkpoint.save file (Fuzzer.Campaign.snapshot t);
         ( machine.Vkernel.Machine.n_sids,
           Record_mutants.read ~format:"kernelgpt-checkpoint" ~version:Fuzzer.Checkpoint.version
             file )))

(* Only an [Error] escapes the loader and [of_snapshot]; a checkpoint
   they accept runs 50 more steps. *)
let qcheck_mutants_resume_or_refuse =
  QCheck.Test.make ~name:"mutated checkpoints resume or are refused" ~count:500
    (Record_mutants.arbitrary ~downward:[ "budget"; "step_budget" ] checkpoint_records)
    (fun (_, records) ->
      let machine, spec = Lazy.force dm_ctx in
      let file = tmp_file () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
        (fun () ->
          Record_mutants.write file records;
          match
            match Fuzzer.Checkpoint.load file with
            | Error _ -> ()
            | Ok snap -> (
                match Fuzzer.Campaign.of_snapshot ~machine spec snap with
                | Error _ -> ()
                | Ok t ->
                    for _ = 1 to 50 do
                      ignore (Fuzzer.Campaign.step t)
                    done)
          with
          | () -> true
          | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* Executor supervisor                                                 *)
(* ------------------------------------------------------------------ *)

let test_supervisor_parse_spec () =
  (match Fuzzer.Supervisor.parse_spec "10" with
  | Ok c ->
      Alcotest.(check int) "rate" 10 c.Fuzzer.Supervisor.fault_rate;
      Alcotest.(check int) "default seed" 0 c.fault_seed
  | Error e -> Alcotest.fail e);
  (match Fuzzer.Supervisor.parse_spec "25:7" with
  | Ok c ->
      Alcotest.(check int) "rate" 25 c.Fuzzer.Supervisor.fault_rate;
      Alcotest.(check int) "seed" 7 c.fault_seed
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Fuzzer.Supervisor.parse_spec bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" bad)
      | Error _ -> ())
    [ "101"; "-1"; "x"; "10:"; "10:x"; "" ]

let test_supervisor_wedge_then_reboot () =
  (* three consecutive timeouts on one instance wedge it; the reboot
     resets its health *)
  let sup = Fuzzer.Supervisor.create { Fuzzer.Supervisor.default with instances = 1 } in
  Alcotest.(check bool) "first timeout" false
    (Fuzzer.Supervisor.record sup ~instance:0 ~timed_out:true ~lost:false);
  Alcotest.(check bool) "second timeout" false
    (Fuzzer.Supervisor.record sup ~instance:0 ~timed_out:true ~lost:false);
  Alcotest.(check bool) "third timeout wedges" true
    (Fuzzer.Supervisor.record sup ~instance:0 ~timed_out:true ~lost:false);
  let s = Fuzzer.Supervisor.stats sup in
  Alcotest.(check int) "one reboot" 1 s.Fuzzer.Supervisor.s_reboots;
  Alcotest.(check int) "three timeouts" 3 s.s_timeouts;
  (* health was reset: two more timeouts do not wedge again *)
  Alcotest.(check bool) "fresh after reboot" false
    (Fuzzer.Supervisor.record sup ~instance:0 ~timed_out:true ~lost:false);
  (* a success resets the consecutive count *)
  ignore (Fuzzer.Supervisor.record sup ~instance:0 ~timed_out:false ~lost:false);
  Alcotest.(check bool) "streak broken by success" false
    (Fuzzer.Supervisor.record sup ~instance:0 ~timed_out:true ~lost:false);
  Alcotest.(check int) "still one reboot" 1 (Fuzzer.Supervisor.stats sup).s_reboots

let test_campaign_under_exec_faults () =
  (* at rate 100 every execution is swallowed: no coverage, everything
     lost, and each instance reboots after every wedge_threshold losses *)
  let machine, spec = Lazy.force dm_ctx in
  let sup = { Fuzzer.Supervisor.default with fault_rate = 100; fault_seed = 1 } in
  let res = Fuzzer.Campaign.run ~seed:3 ~budget:60 ~supervisor:sup ~machine spec in
  Alcotest.(check int) "all executions lost" 60 res.Fuzzer.Campaign.exec_lost;
  Alcotest.(check int) "no coverage survives" 0 (Fuzzer.Campaign.total_coverage res);
  Alcotest.(check int) "nothing joins the corpus" 0 res.corpus_size;
  Alcotest.(check int) "wedged instances rebooted" (60 / Fuzzer.Supervisor.default.wedge_threshold)
    res.exec_restarts

let test_exec_faults_deterministic () =
  let machine, spec = Lazy.force dm_ctx in
  let sup = { Fuzzer.Supervisor.default with fault_rate = 30; fault_seed = 9 } in
  let run () =
    let res = Fuzzer.Campaign.run ~seed:5 ~budget:500 ~supervisor:sup ~machine spec in
    outcome res, res.Fuzzer.Campaign.exec_lost, res.exec_restarts
  in
  Alcotest.(check bool) "same plan, same run" true (run () = run ())

let test_zero_rate_is_historical () =
  (* an explicit zero-rate supervisor must not perturb results *)
  let machine, spec = Lazy.force dm_ctx in
  let plain = Fuzzer.Campaign.run ~seed:5 ~budget:500 ~machine spec in
  let sup =
    Fuzzer.Campaign.run ~seed:5 ~budget:500 ~supervisor:Fuzzer.Supervisor.default ~machine
      spec
  in
  Alcotest.(check bool) "identical outcome" true (outcome plain = outcome sup);
  Alcotest.(check int) "no lost work" 0 sup.Fuzzer.Campaign.exec_lost;
  Alcotest.(check int) "no reboots" 0 sup.exec_restarts

let test_resume_under_exec_faults () =
  (* the fault plan is a pure function of the execution index, so it
     survives checkpoint/resume *)
  let machine, spec = Lazy.force dm_ctx in
  let sup = { Fuzzer.Supervisor.default with fault_rate = 20; fault_seed = 2 } in
  let full =
    let t = Fuzzer.Campaign.init ~seed:7 ~budget:400 ~supervisor:sup ~machine spec in
    ignore (Fuzzer.Campaign.drive t);
    let res = Fuzzer.Campaign.result t in
    (outcome res, res.Fuzzer.Campaign.exec_lost, res.exec_restarts)
  in
  let file = tmp_file () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let t = Fuzzer.Campaign.init ~seed:7 ~budget:400 ~supervisor:sup ~machine spec in
      ignore
        (Fuzzer.Campaign.drive ~stop_after:123
           ~on_checkpoint:(fun t -> Fuzzer.Checkpoint.save file (Fuzzer.Campaign.snapshot t))
           t);
      let resumed =
        match Fuzzer.Checkpoint.load file with
        | Error e -> Alcotest.fail e
        | Ok snap -> (
            match Fuzzer.Campaign.of_snapshot ~machine spec snap with
            | Error e -> Alcotest.fail e
            | Ok t -> t)
      in
      ignore (Fuzzer.Campaign.drive resumed);
      let res = Fuzzer.Campaign.result resumed in
      Alcotest.(check bool) "faulted resume matches faulted full run" true
        ((outcome res, res.Fuzzer.Campaign.exec_lost, res.exec_restarts) = full))

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "checkpoint"
    [
      ( "roundtrip",
        [
          t "resume identity at fixed points" test_resume_identity;
          QCheck_alcotest.to_alcotest qcheck_resume_identity;
          t "snapshot save/load exact" test_snapshot_roundtrip_exact;
          t "rejects foreign spec" test_resume_rejects_other_spec;
          t "rejects out-of-range sids" test_resume_rejects_foreign_sids;
          t "rejects an empty corpus ring" test_resume_rejects_empty_corpus_ring;
          t "rejects an oversized supervisor" test_resume_rejects_oversized_supervisor;
          t "resume on a warm memo" test_resume_on_warm_memo;
        ] );
      ( "corruption",
        [
          t "truncated file" test_truncated_rejected;
          t "unterminated last line" test_unterminated_rejected;
          t "flipped byte" test_corrupted_rejected;
          t "wrong version" test_wrong_version_rejected;
          t "missing file" test_missing_rejected;
          t "directory" test_directory_rejected;
          t "format bytes pinned" test_format_bytes_pinned;
          QCheck_alcotest.to_alcotest qcheck_mutants_resume_or_refuse;
        ] );
      ( "supervisor",
        [
          t "parse_spec" test_supervisor_parse_spec;
          t "wedge then reboot" test_supervisor_wedge_then_reboot;
          t "campaign at rate 100" test_campaign_under_exec_faults;
          t "fault plan deterministic" test_exec_faults_deterministic;
          t "zero rate is historical" test_zero_rate_is_historical;
          t "resume under faults" test_resume_under_exec_faults;
        ] );
    ]
