(* Tests for the analysis oracle: capability profiles, context windows,
   the individual analyses, and error injection/repair. *)

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

let query ?(profile = Profile.gpt4) idx task snippets usage =
  let o = Oracle.create ~profile ~knowledge:idx () in
  (o, Oracle.query o { Prompt.task; snippets; usage })

(* ------------------------------------------------------------------ *)

let test_device_name_nodename () =
  let idx = Lazy.force dm_kernel in
  let _, resp =
    query idx (Prompt.Device_name { reg_symbol = "_dm_misc" }) [ snippet idx "_dm_misc" ] []
  in
  Alcotest.(check (list string)) "nodename wins" [ "/dev/mapper/control" ] resp.r_device_paths

let test_device_name_gpt35_uses_name () =
  let idx = Lazy.force dm_kernel in
  let _, resp =
    query ~profile:Profile.gpt35 idx
      (Prompt.Device_name { reg_symbol = "_dm_misc" })
      [ snippet idx "_dm_misc" ] []
  in
  Alcotest.(check (list string)) "weak model uses .name" [ "/dev/device-mapper" ]
    resp.r_device_paths

let test_device_name_format_string () =
  let idx = kernel_of [ Corpus.Drv_posix_clock.source ] in
  let _, resp =
    query idx (Prompt.Device_name { reg_symbol = "ptp_clock_register" })
      [ snippet idx "ptp_clock_register" ] []
  in
  Alcotest.(check (list string)) "format expanded" [ "/dev/ptp0" ] resp.r_device_paths

let test_identifier_delegation_unknown () =
  let idx = Lazy.force dm_kernel in
  let _, resp =
    query idx
      (Prompt.Identifier_deduction { handler_fn = "dm_ctl_ioctl" })
      [ snippet idx "dm_ctl_ioctl" ] []
  in
  Alcotest.(check int) "no idents from the wrapper" 0 (List.length resp.r_idents);
  Alcotest.(check bool) "ctl_ioctl marked unknown" true
    (List.exists (fun u -> u.Prompt.u_name = "ctl_ioctl") resp.r_unknown)

let test_identifier_nr_resolution () =
  let idx = Lazy.force dm_kernel in
  (* simulate step 2: ctl_ioctl with usage carried from step 1 *)
  let _, r1 =
    query idx
      (Prompt.Identifier_deduction { handler_fn = "dm_ctl_ioctl" })
      [ snippet idx "dm_ctl_ioctl" ] []
  in
  let usage = List.map (fun u -> u.Prompt.u_usage) r1.r_unknown in
  let _, r2 =
    query idx
      (Prompt.Identifier_deduction { handler_fn = "ctl_ioctl" })
      [ snippet idx "ctl_ioctl" ] usage
  in
  (* the eq-check on DM_VERSION_CMD must resolve to the encoded macro *)
  Alcotest.(check bool) "DM_VERSION found" true
    (List.exists (fun i -> i.Prompt.id_cmd = "DM_VERSION") r2.r_idents);
  Alcotest.(check bool) "lookup_ioctl marked unknown" true
    (List.exists (fun u -> u.Prompt.u_name = "lookup_ioctl") r2.r_unknown)

let test_identifier_gpt35_no_delegation () =
  let idx = Lazy.force dm_kernel in
  let _, resp =
    query ~profile:Profile.gpt35 idx
      (Prompt.Identifier_deduction { handler_fn = "dm_ctl_ioctl" })
      [ snippet idx "dm_ctl_ioctl" ] []
  in
  Alcotest.(check int) "weak model chases nothing" 0 (List.length resp.r_unknown)

let test_type_recovery_len_and_string () =
  let idx = kernel_of [ {|
struct vfio_dep { u32 x; };
struct vfio_info {
  u32 count;  /* number of entries in devices */
  struct vfio_dep devices[4];
  char name[16];
};
|} ] in
  let _, resp =
    query idx (Prompt.Type_recovery { type_name = "vfio_info" }) [ snippet idx "vfio_info" ] []
  in
  match resp.r_types with
  | [ cd ] ->
      let f name = List.find (fun f -> f.Syzlang.Ast.fname = name) cd.comp_fields in
      (match (f "count").ftyp with
      | Syzlang.Ast.Len ("devices", _) -> ()
      | _ -> Alcotest.fail "count should be len[devices]");
      (match (f "name").ftyp with
      | Syzlang.Ast.String None -> ()
      | _ -> Alcotest.fail "name should be a string");
      Alcotest.(check (list string)) "nested chased" [ "vfio_dep" ] resp.r_nested_types
  | _ -> Alcotest.fail "expected one type"

let test_type_recovery_no_len_when_array_before () =
  (* dm_ioctl: version[] precedes target_count, so no len relation *)
  let idx = Lazy.force dm_kernel in
  let _, resp =
    query idx (Prompt.Type_recovery { type_name = "dm_ioctl" }) [ snippet idx "dm_ioctl" ] []
  in
  match resp.r_types with
  | [ cd ] ->
      let f = List.find (fun f -> f.Syzlang.Ast.fname = "target_count") cd.comp_fields in
      (match f.ftyp with
      | Syzlang.Ast.Int _ -> ()
      | _ -> Alcotest.fail "target_count must stay a plain integer")
  | _ -> Alcotest.fail "expected one type"

let test_type_recovery_gpt35_no_len () =
  let idx = kernel_of [ {|
struct info2 {
  u32 count;  /* number of entries in items */
  u32 items[4];
};
|} ] in
  let _, resp =
    query ~profile:Profile.gpt35 idx (Prompt.Type_recovery { type_name = "info2" })
      [ snippet idx "info2" ] []
  in
  match resp.r_types with
  | [ cd ] -> (
      match (List.hd cd.comp_fields).ftyp with
      | Syzlang.Ast.Int _ -> ()
      | _ -> Alcotest.fail "weak model should not infer len")
  | _ -> Alcotest.fail "expected one type"

let test_dependency_analysis () =
  let idx = kernel_of [ Corpus.Drv_virt.kvm_source ] in
  let names = [ "kvm_dev_ioctl"; "kvm_dev_ioctl_create_vm" ] in
  let snippets = List.map (snippet idx) names in
  let _, resp = query idx (Prompt.Dependency_analysis { handler_fn = "kvm_dev_ioctl" }) snippets [] in
  Alcotest.(check bool) "create_vm produces kvm_vm_fops fd" true
    (List.exists
       (fun d -> d.Prompt.dep_cmd = "KVM_CREATE_VM" && d.Prompt.dep_ops = "kvm_vm_fops")
       resp.r_deps)

let test_socket_triple () =
  let idx = kernel_of [ Corpus.Sock_rds.source ] in
  let macros =
    { Prompt.snip_name = "macros"; snip_text = "#define AF_RDS 21\n" }
  in
  let _, resp =
    query idx (Prompt.Socket_triple { ops_symbol = "rds_proto_ops" })
      [ snippet idx "rds_proto_ops"; macros ] []
  in
  match resp.r_socket_triple with
  | Some (21, _, _) -> ()
  | Some (d, _, _) -> Alcotest.failf "wrong domain %d" d
  | None -> Alcotest.fail "no triple inferred"

let test_context_truncation () =
  let idx = Lazy.force dm_kernel in
  let tiny = { Profile.gpt4 with Profile.context_tokens = 40; name = "tiny" } in
  let o = Oracle.create ~profile:tiny ~knowledge:idx () in
  let resp =
    Oracle.query o
      {
        Prompt.task = Prompt.Identifier_deduction { handler_fn = "lookup_ioctl" };
        snippets = [ snippet idx "lookup_ioctl" ];
        usage = [];
      }
  in
  Alcotest.(check int) "truncated prompt sees nothing" 0 (List.length resp.r_idents);
  Alcotest.(check bool) "truncation recorded" true (o.Oracle.truncations > 0)

let test_truncation_counts_each_snippet () =
  (* the counter is per dropped snippet, not per truncated prompt: a
     window too small for anything drops all three snippets *)
  let idx = Lazy.force dm_kernel in
  let tiny = { Profile.gpt4 with Profile.context_tokens = 40; name = "tiny" } in
  let o = Oracle.create ~profile:tiny ~knowledge:idx () in
  let s = snippet idx "lookup_ioctl" in
  ignore
    (Oracle.query o
       {
         Prompt.task = Prompt.Identifier_deduction { handler_fn = "lookup_ioctl" };
         snippets = [ s; s; s ];
         usage = [];
       });
  Alcotest.(check int) "three snippets dropped" 3 o.Oracle.truncations

let test_truncation_charges_usage () =
  (* regression: fit_context used to budget snippets against the fixed
     64-token header only, while Prompt.tokens also counted the usage
     lines — a long usage list pushed the real prompt far past the
     context window without dropping anything *)
  let profile = { Profile.gpt4 with Profile.context_tokens = 200; name = "tiny200" } in
  let s = { Prompt.snip_name = "s"; snip_text = String.make 400 'x' } in
  let base =
    {
      Prompt.task = Prompt.Identifier_deduction { handler_fn = "s" };
      snippets = [ s ];
      usage = [];
    }
  in
  (* the old code charged only the header, so this snippet always fit *)
  Alcotest.(check bool) "old budget would keep the snippet" true
    (Prompt.header_tokens + Prompt.snippet_tokens s <= profile.Profile.context_tokens);
  let _, dropped = Oracle.truncate profile base in
  Alcotest.(check int) "fits with no usage" 0 dropped;
  let oversized = List.init 8 (fun _ -> String.make 80 'u') in
  let kept, dropped = Oracle.truncate profile { base with usage = oversized } in
  Alcotest.(check int) "oversized usage evicts the snippet" 1 dropped;
  Alcotest.(check int) "nothing kept" 0 (List.length kept.Prompt.snippets)

let test_macro_memo_per_index () =
  (* regression: all_macro_values memoized through one global ref — a
     data race under --jobs and, with two indexes alternating, each
     lookup served the other index's macros. The memo now lives in the
     index, so concurrent domains on different indexes never interfere. *)
  let idx1 = kernel_of [ "#define SHARED_MAGIC 111\n" ] in
  let idx2 = kernel_of [ "#define SHARED_MAGIC 222\n" ] in
  let run idx = Array.init 64 (fun _ -> Analysis.all_macro_values idx) in
  let d1 = Domain.spawn (fun () -> run idx1) in
  let d2 = Domain.spawn (fun () -> run idx2) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  let check label want results =
    Array.iter
      (fun vs -> Alcotest.(check int64) label want (List.assoc "SHARED_MAGIC" vs))
      results
  in
  check "idx1 sees its own value" 111L r1;
  check "idx2 sees its own value" 222L r2;
  (* interleaved single-domain lookups must not thrash either *)
  Alcotest.(check int64) "idx1 again" 111L (List.assoc "SHARED_MAGIC" (Analysis.all_macro_values idx1));
  Alcotest.(check int64) "idx2 again" 222L (List.assoc "SHARED_MAGIC" (Analysis.all_macro_values idx2));
  Alcotest.(check int64) "idx1 after idx2" 111L (List.assoc "SHARED_MAGIC" (Analysis.all_macro_values idx1))

(* The pre-PR [_IOC_NR] lookup, kept as the reference: a linear filter
   over every integer macro of the knowledge index. *)
let ref_resolve_nr_macro (local : Analysis.local) ~(magic : int64 option) (nr : int64) =
  let ioc_nr v = Int64.logand v 0xffL in
  let ioc_type v = Int64.logand (Int64.shift_right_logical v 8) 0xffL in
  let candidates =
    List.filter
      (fun (_, v) ->
        Int64.compare v 0xffL > 0
        && (not (Int64.equal (ioc_type v) 0L))
        && Int64.equal (ioc_nr v) nr
        && match magic with Some m -> Int64.equal (ioc_type v) m | None -> true)
      (Analysis.all_macro_values local.knowledge)
  in
  let in_prompt (name, _) = Csrc.Index.find_macro local.index name <> None in
  match List.find_opt in_prompt candidates with
  | Some (name, _) -> Some name
  | None -> ( match candidates with (name, _) :: _ -> Some name | [] -> None)

let test_nr_groups_match_reference () =
  let booted = (Vkernel.Machine.boot (Corpus.Registry.loaded ())).Vkernel.Machine.index in
  let prompt =
    [
      { Prompt.snip_name = "dm"; snip_text = Corpus.Drv_dm.source };
      { Prompt.snip_name = "cec"; snip_text = Corpus.Drv_cec.source };
    ]
  in
  let check label (local : Analysis.local) =
    let magics =
      None
      :: List.map Option.some
           (List.sort_uniq compare
              (List.map
                 (fun (_, v) -> Int64.logand (Int64.shift_right_logical v 8) 0xffL)
                 (Analysis.all_macro_values local.knowledge)))
    in
    let nrs = -1L :: 0x100L :: List.init 256 Int64.of_int in
    List.iter
      (fun magic ->
        List.iter
          (fun nr ->
            let got = Analysis.resolve_nr_macro local ~magic nr in
            if got <> ref_resolve_nr_macro local ~magic nr then
              Alcotest.failf "%s: nr %Ld magic %s resolves to %s" label nr
                (match magic with Some m -> Int64.to_string m | None -> "none")
                (Option.value got ~default:"nothing"))
          nrs)
      magics
  in
  let on_booted = Analysis.parse_snippets ~knowledge:booted prompt in
  check "booted index" on_booted;
  check "header + dm index" (Analysis.parse_snippets ~knowledge:(Lazy.force dm_kernel) prompt);
  check "prompt index" { on_booted with knowledge = on_booted.index }

let test_nr_groups_follow_macros () =
  (* the per-nr groups are memoized in each index: an index with one
     more file must group its macro too *)
  let before = kernel_of [ "#define A_CMD 0x7805\n" ] in
  let after = kernel_of [ "#define A_CMD 0x7805\n"; "#define B_CMD 0x7906\n" ] in
  let local knowledge = { Analysis.index = Csrc.Index.of_files []; knowledge } in
  let resolve idx magic nr = Analysis.resolve_nr_macro (local idx) ~magic:(Some magic) nr in
  Alcotest.(check (option string)) "before" (Some "A_CMD") (resolve before 0x78L 5L);
  Alcotest.(check (option string)) "absent before" None (resolve before 0x79L 6L);
  Alcotest.(check (option string)) "after" (Some "B_CMD") (resolve after 0x79L 6L);
  Alcotest.(check (option string)) "kept after" (Some "A_CMD") (resolve after 0x78L 5L)

let test_repair_strips_suffix () =
  let idx = Lazy.force dm_kernel in
  let _, resp =
    query idx
      (Prompt.Repair
         { item = "syscall ioctl$X"; description = ""; error = "unknown const DM_VERSION_V2" })
      [] []
  in
  Alcotest.(check (option string)) "repaired" (Some "DM_VERSION") resp.r_repaired

let test_error_injection_deterministic () =
  (* same oracle profile + subject → same corruption decision *)
  let idx = Lazy.force dm_kernel in
  let run () =
    let _, resp =
      query idx
        (Prompt.Identifier_deduction { handler_fn = "lookup_ioctl" })
        [ snippet idx "lookup_ioctl" ]
        [ "FUNC: lookup_ioctl; MODE: nr; MAGIC: 253; ARG: dm_ioctl" ]
    in
    List.map (fun i -> i.Prompt.id_cmd) resp.r_idents
  in
  Alcotest.(check (list string)) "deterministic output" (run ()) (run ())

let test_cost_accounting () =
  let idx = Lazy.force dm_kernel in
  let o = Oracle.create ~profile:Profile.gpt4 ~knowledge:idx () in
  let before = o.Oracle.prompt_tokens in
  ignore
    (Oracle.query o
       {
         Prompt.task = Prompt.Identifier_deduction { handler_fn = "ctl_ioctl" };
         snippets = [ snippet idx "ctl_ioctl" ];
         usage = [];
       });
  Alcotest.(check bool) "tokens accounted" true (o.Oracle.prompt_tokens > before);
  Alcotest.(check int) "query counted" 1 o.Oracle.queries

let test_prompt_render () =
  let idx = Lazy.force dm_kernel in
  let p =
    {
      Prompt.task = Prompt.Identifier_deduction { handler_fn = "ctl_ioctl" };
      snippets = [ snippet idx "ctl_ioctl" ];
      usage = [ "FUNC: ctl_ioctl; MODE: nr; MAGIC: -; ARG: -" ];
    }
  in
  let text = Prompt.render p in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Alcotest.(check bool) "has instruction" true (contains text "Syzkaller specification");
  Alcotest.(check bool) "has unknown section" true (contains text "## Unknown");
  Alcotest.(check bool) "has source section" true (contains text "ctl_ioctl")

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "oracle"
    [
      ( "device-name",
        [
          t "nodename rule" test_device_name_nodename;
          t "gpt-3.5 uses .name" test_device_name_gpt35_uses_name;
          t "format string" test_device_name_format_string;
        ] );
      ( "identifier",
        [
          t "delegation unknown" test_identifier_delegation_unknown;
          t "_IOC_NR resolution" test_identifier_nr_resolution;
          t "_IOC_NR groups = linear filter" test_nr_groups_match_reference;
          t "_IOC_NR groups follow the macros" test_nr_groups_follow_macros;
          t "gpt-3.5 no delegation" test_identifier_gpt35_no_delegation;
        ] );
      ( "types",
        [
          t "len and string inference" test_type_recovery_len_and_string;
          t "no len when array precedes" test_type_recovery_no_len_when_array_before;
          t "gpt-3.5 no len" test_type_recovery_gpt35_no_len;
        ] );
      ("deps", [ t "anon fd dependency" test_dependency_analysis ]);
      ("socket", [ t "triple inference" test_socket_triple ]);
      ( "limits",
        [
          t "context truncation" test_context_truncation;
          t "truncation per snippet" test_truncation_counts_each_snippet;
          t "usage charged against the window" test_truncation_charges_usage;
          t "macro memo is per index" test_macro_memo_per_index;
          t "repair" test_repair_strips_suffix;
          t "deterministic errors" test_error_injection_deterministic;
          t "cost accounting" test_cost_accounting;
          t "prompt rendering" test_prompt_render;
        ] );
    ]
