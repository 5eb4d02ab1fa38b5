(* Tests for the content-addressed oracle answer cache: keying,
   round-trip persistence, corruption/version-skew rejection, read-only
   mode, and the cold-vs-warm identity contract (a warm pipeline run
   never consults the oracle yet reports the cold run's costs). *)

let kernel_of sources =
  let sid = ref 0 in
  let files =
    List.mapi (fun i src -> Csrc.Parser.parse_file ~file:(Printf.sprintf "m%d.c" i) ~sid src) sources
  in
  Csrc.Index.of_files (Corpus.Headers.header :: files)

let dm_kernel = lazy (kernel_of [ Corpus.Drv_dm.source ])

let snippet idx name =
  match Csrc.Index.extract_source idx name with
  | Some text -> { Prompt.snip_name = name; snip_text = text }
  | None -> Alcotest.failf "no source for %s" name

let tmp_file =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kgpt_cache_test_%d_%d.jsonl" (Unix.getpid ()) !n)

let with_tmp f =
  let file = tmp_file () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () -> f file)

(* A spread of real prompts (and their real answers) for round-trip
   checks: every response shape the serializer must carry. *)
let sample_prompts idx =
  [
    {
      Prompt.task = Prompt.Identifier_deduction { handler_fn = "ctl_ioctl" };
      snippets = [ snippet idx "ctl_ioctl" ];
      usage = [ "FUNC: ctl_ioctl; MODE: nr; MAGIC: 253; ARG: dm_ioctl" ];
    };
    {
      Prompt.task = Prompt.Type_recovery { type_name = "dm_ioctl" };
      snippets = [ snippet idx "dm_ioctl" ];
      usage = [];
    };
    {
      Prompt.task = Prompt.Device_name { reg_symbol = "_dm_misc" };
      snippets = [ snippet idx "_dm_misc" ];
      usage = [];
    };
    {
      Prompt.task =
        Prompt.Repair
          { item = "syscall ioctl$X"; description = ""; error = "unknown const DM_VERSION_V2" };
      snippets = [];
      usage = [];
    };
  ]

let entry_of_query (o : Oracle.t) p =
  let q0 = o.Oracle.queries
  and t0 = o.Oracle.prompt_tokens
  and tr0 = o.Oracle.truncations
  and e0 = o.Oracle.injected_errors in
  let resp = Oracle.query o p in
  {
    Cache.e_response = resp;
    e_queries = o.Oracle.queries - q0;
    e_tokens = o.Oracle.prompt_tokens - t0;
    e_truncations = o.Oracle.truncations - tr0;
    e_errors = o.Oracle.injected_errors - e0;
  }

(* The checksum scheme is part of the file format; the test crafts
   skewed-but-checksummed files with its own copy. *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let file_with_header header_line =
  let body = header_line ^ "\n" in
  Printf.sprintf "%s{\"checksum\":\"fnv1a64:%016Lx\"}\n" body (fnv1a64 body)

let read_all file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all file s =
  let oc = open_out_bin file in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)

let test_key_stable_and_discriminating () =
  let idx = Lazy.force dm_kernel in
  let p = List.hd (sample_prompts idx) in
  let k = Cache.key ~profile:Profile.gpt4 p in
  Alcotest.(check string) "pure and stable" k (Cache.key ~profile:Profile.gpt4 p);
  Alcotest.(check int) "16 hex digits" 16 (String.length k);
  Alcotest.(check bool) "profile is part of the key" true
    (k <> Cache.key ~profile:Profile.gpt35 p);
  Alcotest.(check bool) "usage is part of the key" true
    (k <> Cache.key ~profile:Profile.gpt4 { p with Prompt.usage = [] })

let test_key_ignores_truncated_tail () =
  (* snippets the context window drops anyway must not split entries *)
  let idx = Lazy.force dm_kernel in
  let tiny = { Profile.gpt4 with Profile.context_tokens = 40; name = "tiny" } in
  let p =
    {
      Prompt.task = Prompt.Identifier_deduction { handler_fn = "lookup_ioctl" };
      snippets = [ snippet idx "lookup_ioctl" ];
      usage = [];
    }
  in
  Alcotest.(check string) "dropped tail does not key"
    (Cache.key ~profile:tiny { p with Prompt.snippets = [] })
    (Cache.key ~profile:tiny p)

let test_round_trip () =
  (* store → flush → load → identical responses and accounting *)
  let idx = Lazy.force dm_kernel in
  with_tmp @@ fun file ->
  let cache =
    match Cache.open_file file with Ok c -> c | Error e -> Alcotest.fail e
  in
  let o = Oracle.create ~profile:Profile.gpt4 ~knowledge:idx () in
  let stored =
    List.map
      (fun p ->
        let key = Cache.key ~profile:Profile.gpt4 p in
        let e = entry_of_query o p in
        Cache.store cache ~key ~subject:(Oracle.task_subject p.Prompt.task) e;
        (key, e))
      (sample_prompts idx)
  in
  (match Cache.flush cache with Ok () -> () | Error e -> Alcotest.fail e);
  let warm =
    match Cache.open_file file with Ok c -> c | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "all entries loaded" (List.length stored)
    (Cache.stats warm).Cache.st_loaded;
  List.iter
    (fun (key, (e : Cache.entry)) ->
      match Cache.find warm ~subject:"round-trip" key with
      | None -> Alcotest.failf "entry %s lost" key
      | Some got ->
          Alcotest.(check bool) "response round-trips" true (got.Cache.e_response = e.Cache.e_response);
          Alcotest.(check int) "queries delta" e.Cache.e_queries got.Cache.e_queries;
          Alcotest.(check int) "token delta" e.Cache.e_tokens got.Cache.e_tokens;
          Alcotest.(check int) "truncation delta" e.Cache.e_truncations got.Cache.e_truncations;
          Alcotest.(check int) "error delta" e.Cache.e_errors got.Cache.e_errors)
    stored;
  (* a second flush of a clean cache must not rewrite the file *)
  let before = read_all file in
  (match Cache.flush warm with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check string) "clean flush is a no-op" before (read_all file)

let expect_error label file pattern =
  match Cache.open_file file with
  | Ok _ -> Alcotest.failf "%s: accepted a bad cache file" label
  | Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        nn = 0 || go 0
      in
      if not (contains msg pattern) then
        Alcotest.failf "%s: error %S does not mention %S" label msg pattern

let populated_file file =
  let idx = Lazy.force dm_kernel in
  let cache = match Cache.open_file file with Ok c -> c | Error e -> Alcotest.fail e in
  let o = Oracle.create ~profile:Profile.gpt4 ~knowledge:idx () in
  List.iter
    (fun p ->
      Cache.store cache
        ~key:(Cache.key ~profile:Profile.gpt4 p)
        ~subject:(Oracle.task_subject p.Prompt.task) (entry_of_query o p))
    (sample_prompts idx);
  match Cache.flush cache with Ok () -> () | Error e -> Alcotest.fail e

let test_rejects_corruption () =
  with_tmp @@ fun file ->
  populated_file file;
  let good = read_all file in
  (* flip one byte inside an entry *)
  let bad = Bytes.of_string good in
  Bytes.set bad (String.length good / 2)
    (if Bytes.get bad (String.length good / 2) = '7' then '8' else '7');
  write_all file (Bytes.to_string bad);
  expect_error "bit flip" file "checksum mismatch";
  (* cut the file mid-entry: no checksum line survives *)
  write_all file (String.sub good 0 (String.length good / 2));
  expect_error "truncation" file "truncated";
  (* an unrelated JSONL file is not an oracle cache *)
  write_all file (file_with_header {|{"format":"something-else","version":1,"schema":1}|});
  expect_error "foreign file" file "bad format tag";
  (* a future container version is refused descriptively *)
  write_all file
    (file_with_header {|{"format":"kernelgpt-oracle-cache","version":99,"schema":1}|});
  expect_error "version skew" file "version 99"

let test_directory_rejected () =
  (* opening a directory succeeds; reading it fails *)
  expect_error "directory" (Filename.get_temp_dir_name ()) "cannot read oracle cache"

let test_schema_skew_drops_entries_as_stale () =
  with_tmp @@ fun file ->
  populated_file file;
  let lines = String.split_on_char '\n' (read_all file) in
  let entries =
    match lines with
    | _header :: rest ->
        (* keep the entry lines, drop old header and checksum trailer *)
        List.filteri (fun i _ -> i < List.length rest - 2) rest
    | [] -> []
  in
  let body =
    String.concat "\n"
      ({|{"format":"kernelgpt-oracle-cache","version":1,"schema":99}|} :: entries)
    ^ "\n"
  in
  write_all file
    (Printf.sprintf "%s{\"checksum\":\"fnv1a64:%016Lx\"}\n" body (fnv1a64 body));
  match Cache.open_file file with
  | Error e -> Alcotest.failf "schema skew must not reject the file: %s" e
  | Ok cache ->
      let s = Cache.stats cache in
      Alcotest.(check int) "no entries usable" 0 s.Cache.st_entries;
      Alcotest.(check int) "nothing loaded" 0 s.Cache.st_loaded;
      Alcotest.(check bool) "skew counted as stale" true (s.Cache.st_stale > 0)

let test_readonly_never_writes () =
  with_tmp @@ fun file ->
  populated_file file;
  let before = read_all file in
  let cache =
    match Cache.open_file ~readonly:true file with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "readonly flag" true (Cache.readonly cache);
  (* in-memory stores still serve this run... *)
  let e =
    {
      Cache.e_response = Prompt.empty_response;
      e_queries = 1;
      e_tokens = 42;
      e_truncations = 0;
      e_errors = 0;
    }
  in
  Cache.store cache ~key:"deadbeefdeadbeef" ~subject:"ro" e;
  Alcotest.(check bool) "stored entry findable" true
    (Cache.find cache ~subject:"ro" "deadbeefdeadbeef" <> None);
  (* ...but never reach the file *)
  (match Cache.flush cache with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check string) "file untouched" before (read_all file);
  match Cache.open_file ~readonly:true (tmp_file ()) with
  | Ok _ -> Alcotest.fail "readonly open of a missing file must fail"
  | Error _ -> ()

let test_replay_accounting () =
  let idx = Lazy.force dm_kernel in
  let o = Oracle.create ~profile:Profile.gpt4 ~knowledge:idx () in
  let e =
    {
      Cache.e_response = Prompt.empty_response;
      e_queries = 3;
      e_tokens = 1234;
      e_truncations = 2;
      e_errors = 1;
    }
  in
  let resp = Cache.replay o e in
  Alcotest.(check bool) "response returned" true (resp = Prompt.empty_response);
  Alcotest.(check int) "queries replayed" 3 o.Oracle.queries;
  Alcotest.(check int) "tokens replayed" 1234 o.Oracle.prompt_tokens;
  Alcotest.(check int) "truncations replayed" 2 o.Oracle.truncations;
  Alcotest.(check int) "errors replayed" 1 o.Oracle.injected_errors

(* A hand-built cache whose entries reach every encoder arm: each
   syzlang type constructor, width and direction, both composite kinds,
   and every option field as None and as Some. *)
let format_entries () =
  let open Syzlang.Ast in
  let field fname ftyp = { fname; ftyp } in
  let all_types =
    {
      comp_name = "every_type";
      comp_kind = Struct;
      comp_fields =
        [
          field "a" (Int (I8, None));
          field "b" (Int (I64, Some { lo = Int64.min_int; hi = Int64.max_int }));
          field "c" (Const ({ const_name = Some "DM_VERSION"; const_value = None }, I32));
          field "d" (Const ({ const_name = None; const_value = Some (-1L) }, Iptr));
          field "e" (Flags ("open_flags", I16));
          field "f" (Ptr (In, Struct_ref "dm_ioctl"));
          field "g" (Ptr (Out, Array (Int (I8, None), Some 16)));
          field "h" (Ptr (Inout, Array (Fd, None)));
          field "i" (Buffer Out);
          field "j" (String None);
          field "k" (String (Some "/dev/mapper/control"));
          field "l" (Len ("f", I32));
          field "m" (Bytesize ("g", I64));
          field "n" (Resource_ref "fd_dm");
          field "o" (Union_ref "dm_u");
          field "p" Fd;
          field "q" Void;
        ];
    }
  in
  let union = { comp_name = "dm_u"; comp_kind = Union; comp_fields = [ field "x\"\n" Void ] } in
  let some =
    {
      Prompt.r_idents =
        [
          {
            Prompt.id_cmd = "DM_VERSION";
            id_arg_type = Some "dm_ioctl";
            id_arg_dir = Inout;
            id_scalar_arg = false;
            id_copy_size = Some 8;
            id_values =
              [ { const_name = Some "A"; const_value = Some Int64.max_int } ];
          };
        ];
      r_types = [ all_types; union ];
      r_unknown = [ { Prompt.u_name = "lookup_ioctl"; u_usage = "FUNC: x\tMODE: nr" } ];
      r_nested_types = [ "dm_target_spec" ];
      r_deps = [ { Prompt.dep_cmd = "KVM_CREATE_VM"; dep_ops = "kvm_vm_fops" } ];
      r_device_paths = [ "/dev/mapper/control" ];
      r_socket_triple = Some (2, 5, -1);
      r_repaired = Some "DM_VERSION";
    }
  in
  let none =
    {
      Prompt.empty_response with
      Prompt.r_idents =
        [
          {
            Prompt.id_cmd = "UBI_IOCATT";
            id_arg_type = None;
            id_arg_dir = In;
            id_scalar_arg = true;
            id_copy_size = None;
            id_values = [];
          };
        ];
      r_socket_triple = None;
      r_repaired = None;
    }
  in
  [
    ( "00000000000000ff",
      { Cache.e_response = some; e_queries = 2; e_tokens = 4096; e_truncations = 1; e_errors = 1 }
    );
    ( "0000000000000001",
      { Cache.e_response = none; e_queries = 1; e_tokens = 0; e_truncations = 0; e_errors = 0 } );
  ]

let test_format_bytes_pinned () =
  (* the MD5 pins the format itself: a refactor of the writer must
     reproduce every byte *)
  with_tmp @@ fun file ->
  let cache = match Cache.open_file file with Ok c -> c | Error e -> Alcotest.fail e in
  List.iter (fun (key, e) -> Cache.store cache ~key ~subject:"pin" e) (format_entries ());
  (match Cache.flush cache with Ok () -> () | Error e -> Alcotest.fail e);
  let back = match Cache.open_file file with Ok c -> c | Error e -> Alcotest.fail e in
  List.iter
    (fun (key, (e : Cache.entry)) ->
      Alcotest.(check bool) ("entry " ^ key ^ " round-trips") true
        (Cache.find back ~subject:"pin" key = Some e))
    (format_entries ());
  Alcotest.(check string) "cache bytes" "39df17709b282ff9380fdb830374b3e9"
    (Digest.to_hex (Digest.file file))

(* ------------------------------------------------------------------ *)
(* Cold vs warm: the whole-pipeline identity contract.                 *)
(* ------------------------------------------------------------------ *)

let spec_str = function
  | Some spec -> Syzlang.Printer.spec_str spec
  | None -> "(none)"

let run_pipeline ~cache ~knowledge ~profile entry kernel =
  let oracle = Oracle.create ~profile ~knowledge () in
  let client = Client.create ~cache oracle in
  let out = Kernelgpt.Pipeline.run ~client ~oracle ~kernel entry in
  (out, oracle)

(* QCheck property: for any small module and any profile, a warm run
   against the cold run's cache produces an identical spec and identical
   accounting while never consulting the oracle. The warm oracle gets an
   EMPTY knowledge index: any query that slipped past the cache would
   answer from it (and differ); only pure replay can match. *)
let cold_warm_identity =
  QCheck.Test.make ~count:8 ~name:"cold run == warm run, zero warm queries"
    QCheck.(
      pair (oneofl [ "ubi"; "loop_control"; "btrfs_control"; "posix_clock" ])
        (oneofl [ Profile.gpt4; Profile.gpt4o; Profile.gpt35 ]))
    (fun (name, profile) ->
      let entry = Corpus.Registry.find_exn name in
      let machine = Vkernel.Machine.boot [ entry ] in
      let kernel = machine.Vkernel.Machine.index in
      let cache = Cache.in_memory () in
      let cold, cold_o = run_pipeline ~cache ~knowledge:kernel ~profile entry kernel in
      let misses_after_cold = (Cache.stats cache).Cache.st_misses in
      let warm, warm_o =
        run_pipeline ~cache ~knowledge:(Csrc.Index.empty ()) ~profile entry kernel
      in
      let s = Cache.stats cache in
      if s.Cache.st_misses <> misses_after_cold then
        QCheck.Test.fail_reportf "warm run missed %d times"
          (s.Cache.st_misses - misses_after_cold);
      if spec_str warm.Kernelgpt.Pipeline.o_spec <> spec_str cold.Kernelgpt.Pipeline.o_spec
      then QCheck.Test.fail_report "warm spec differs from cold spec";
      if warm_o.Oracle.queries <> cold_o.Oracle.queries then
        QCheck.Test.fail_reportf "replayed query count %d != cold %d" warm_o.Oracle.queries
          cold_o.Oracle.queries;
      if warm_o.Oracle.prompt_tokens <> cold_o.Oracle.prompt_tokens then
        QCheck.Test.fail_reportf "replayed tokens %d != cold %d" warm_o.Oracle.prompt_tokens
          cold_o.Oracle.prompt_tokens;
      warm.Kernelgpt.Pipeline.o_queries = cold.Kernelgpt.Pipeline.o_queries
      && warm.Kernelgpt.Pipeline.o_tokens = cold.Kernelgpt.Pipeline.o_tokens
      && warm.Kernelgpt.Pipeline.o_valid = cold.Kernelgpt.Pipeline.o_valid)

(* a real cache of a few modules' answers, as decoded records *)
let cache_records =
  lazy
    (let entries = List.map Corpus.Registry.find_exn [ "ubi"; "posix_clock"; "btrfs_control" ] in
     let machine = Vkernel.Machine.boot entries in
     let kernel = machine.Vkernel.Machine.index in
     with_tmp @@ fun file ->
     let cache = match Cache.open_file file with Ok c -> c | Error e -> failwith e in
     List.iter
       (fun entry ->
         ignore (run_pipeline ~cache ~knowledge:kernel ~profile:Profile.gpt4 entry kernel))
       entries;
     (match Cache.flush cache with Ok () -> () | Error e -> failwith e);
     ( machine.Vkernel.Machine.n_sids,
       Record_mutants.read ~format:"kernelgpt-oracle-cache" ~version:Cache.version file ))

let qcheck_mutants_open_or_refuse =
  QCheck.Test.make ~name:"mutated caches open or are refused" ~count:300
    (Record_mutants.arbitrary ~downward:[] cache_records)
    (fun (_, records) ->
      with_tmp @@ fun file ->
      Record_mutants.write file records;
      match Cache.open_file file with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let test_warm_run_through_file () =
  (* the same contract across a process boundary: flush, reopen, rerun *)
  let entry = Corpus.Registry.find_exn "dm" in
  let machine = Vkernel.Machine.boot [ entry ] in
  let kernel = machine.Vkernel.Machine.index in
  with_tmp @@ fun file ->
  let cold_cache = match Cache.open_file file with Ok c -> c | Error e -> Alcotest.fail e in
  let cold, cold_o =
    run_pipeline ~cache:cold_cache ~knowledge:kernel ~profile:Profile.gpt4 entry kernel
  in
  (match Cache.flush cold_cache with Ok () -> () | Error e -> Alcotest.fail e);
  let warm_cache =
    match Cache.open_file ~readonly:true file with Ok c -> c | Error e -> Alcotest.fail e
  in
  let warm, warm_o =
    run_pipeline ~cache:warm_cache ~knowledge:(Csrc.Index.empty ()) ~profile:Profile.gpt4
      entry kernel
  in
  Alcotest.(check int) "no warm misses" 0 (Cache.stats warm_cache).Cache.st_misses;
  Alcotest.(check string) "same spec"
    (spec_str cold.Kernelgpt.Pipeline.o_spec)
    (spec_str warm.Kernelgpt.Pipeline.o_spec);
  Alcotest.(check int) "same query accounting" cold_o.Oracle.queries warm_o.Oracle.queries;
  Alcotest.(check int) "same token accounting" cold_o.Oracle.prompt_tokens
    warm_o.Oracle.prompt_tokens;
  Alcotest.(check int) "same truncation accounting" cold_o.Oracle.truncations
    warm_o.Oracle.truncations

let test_shared_across_domains () =
  (* one cache serving concurrent workers: both domains run the same
     module; between them every prompt is answered once at most, and
     both produce the cold spec *)
  let entry = Corpus.Registry.find_exn "posix_clock" in
  let machine = Vkernel.Machine.boot [ entry ] in
  let kernel = machine.Vkernel.Machine.index in
  let reference, _ =
    run_pipeline ~cache:(Cache.in_memory ()) ~knowledge:kernel ~profile:Profile.gpt4 entry
      kernel
  in
  let cache = Cache.in_memory () in
  let worker () =
    let m = Vkernel.Machine.boot [ entry ] in
    let k = m.Vkernel.Machine.index in
    let out, _ = run_pipeline ~cache ~knowledge:k ~profile:Profile.gpt4 entry k in
    spec_str out.Kernelgpt.Pipeline.o_spec
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  let s1 = Domain.join d1 and s2 = Domain.join d2 in
  let want = spec_str reference.Kernelgpt.Pipeline.o_spec in
  Alcotest.(check string) "worker 1 spec" want s1;
  Alcotest.(check string) "worker 2 spec" want s2

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "cache"
    [
      ( "keying",
        [
          t "stable and discriminating" test_key_stable_and_discriminating;
          t "post-truncation prompt keys" test_key_ignores_truncated_tail;
        ] );
      ( "persistence",
        [
          t "store/flush/load round trip" test_round_trip;
          t "corruption rejected descriptively" test_rejects_corruption;
          t "directory rejected" test_directory_rejected;
          t "schema skew drops entries as stale" test_schema_skew_drops_entries_as_stale;
          t "readonly never writes" test_readonly_never_writes;
          t "format bytes pinned" test_format_bytes_pinned;
          QCheck_alcotest.to_alcotest qcheck_mutants_open_or_refuse;
        ] );
      ("replay", [ t "accounting deltas" test_replay_accounting ]);
      ( "cold-vs-warm",
        [
          QCheck_alcotest.to_alcotest cold_warm_identity;
          t "through a file, readonly" test_warm_run_through_file;
          t "shared across domains" test_shared_across_domains;
        ] );
    ]
