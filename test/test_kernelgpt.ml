(* End-to-end tests of the KernelGPT pipeline and the SyzDescribe
   baseline against hand-modeled corpus modules. *)

let run ?(mode = Kernelgpt.Pipeline.Iterative) ?(profile = Profile.gpt4) name =
  let entry = Corpus.Registry.find_exn name in
  let machine = Vkernel.Machine.boot [ entry ] in
  let kernel = machine.Vkernel.Machine.index in
  let oracle = Oracle.create ~profile ~knowledge:kernel () in
  (entry, Kernelgpt.Pipeline.run ~mode ~oracle ~kernel entry)

let spec_of out =
  match out.Kernelgpt.Pipeline.o_spec with
  | Some s -> s
  | None -> Alcotest.fail "pipeline produced no spec"

let variants (spec : Syzlang.Ast.spec) =
  List.filter_map (fun c -> c.Syzlang.Ast.variant) spec.syscalls

let has_variant spec v = List.mem v (variants spec)

(* ------------------------------------------------------------------ *)

let test_dm_complete () =
  let _, out = run "dm" in
  let spec = spec_of out in
  Alcotest.(check bool) "valid" true out.o_valid;
  (* all 18 commands recovered with their encoded macros *)
  List.iter
    (fun cmd ->
      Alcotest.(check bool) (cmd ^ " present") true (has_variant spec cmd))
    Corpus.Drv_dm.all_commands;
  (* device path from nodename *)
  let openat = List.find (fun c -> c.Syzlang.Ast.call_name = "openat") spec.syscalls in
  let path =
    List.find_map
      (fun (f : Syzlang.Ast.field) ->
        match f.ftyp with Syzlang.Ast.Ptr (_, Syzlang.Ast.String (Some p)) -> Some p | _ -> None)
      openat.args
  in
  Alcotest.(check (option string)) "nodename path" (Some "/dev/mapper/control") path

let test_dm_version_const_field () =
  let _, out = run "dm" in
  let spec = spec_of out in
  let dm = List.find (fun c -> c.Syzlang.Ast.comp_name = "dm_ioctl") spec.types in
  let version = List.find (fun f -> f.Syzlang.Ast.fname = "version") dm.comp_fields in
  match version.ftyp with
  | Syzlang.Ast.Array (Syzlang.Ast.Const (c, _), _) ->
      Alcotest.(check (option string)) "constrained to DM_VERSION_MAJOR"
        (Some "DM_VERSION_MAJOR") c.const_name
  | _ -> Alcotest.fail "version should be a const array (semantic constraint)"

let test_dm_spec_order_is_source_order () =
  let _, out = run "dm" in
  let vs = variants (spec_of out) in
  let pos x =
    let rec go i = function
      | [] -> -1
      | v :: rest -> if v = x then i else go (i + 1) rest
    in
    go 0 vs
  in
  Alcotest.(check bool) "create precedes table load" true
    (pos "DM_DEV_CREATE" < pos "DM_TABLE_LOAD")

let test_kvm_dependencies () =
  let _, out = run "kvm" in
  let spec = spec_of out in
  Alcotest.(check bool) "valid" true out.o_valid;
  Alcotest.(check bool) "vm resource declared" true
    (List.exists
       (fun r -> r.Syzlang.Ast.res_name = "fd_kvm_kvm_vm_fops")
       spec.resources);
  Alcotest.(check bool) "vcpu commands present" true (has_variant spec "KVM_RUN");
  (* KVM_CREATE_VM must return the vm resource *)
  let create = List.find (fun c -> c.Syzlang.Ast.variant = Some "KVM_CREATE_VM") spec.syscalls in
  Alcotest.(check (option string)) "create_vm returns vm fd" (Some "fd_kvm_kvm_vm_fops")
    create.ret

let test_vgadget_nr_rewrite () =
  let _, out = run "vgadget" in
  let spec = spec_of out in
  Alcotest.(check bool) "full macro names recovered" true (has_variant spec "GADGET_EP_QUEUE");
  Alcotest.(check bool) "nr aliases not used as commands" false
    (has_variant spec "GADGET_EP_QUEUE_NR")

let test_rds_sendmsg_control () =
  let _, out = run "rds" in
  let spec = spec_of out in
  Alcotest.(check bool) "sendmsg generated" true
    (List.exists (fun c -> c.Syzlang.Ast.call_name = "sendmsg") spec.syscalls);
  Alcotest.(check bool) "sendto generated" true
    (List.exists (fun c -> c.Syzlang.Ast.call_name = "sendto") spec.syscalls);
  let msghdr = List.find (fun c -> c.Syzlang.Ast.comp_name = "rds_msghdr") spec.types in
  let control = List.find (fun f -> f.Syzlang.Ast.fname = "msg_control") msghdr.comp_fields in
  match control.ftyp with
  | Syzlang.Ast.Ptr (_, Syzlang.Ast.Struct_ref "rds_rx_trace_so") -> ()
  | _ -> Alcotest.fail "msg_control should carry the rx-trace struct"

let test_sockaddr_family_const () =
  let _, out = run "rds" in
  let spec = spec_of out in
  let sa = List.find (fun c -> c.Syzlang.Ast.comp_name = "sockaddr_rds") spec.types in
  let fam = List.find (fun f -> f.Syzlang.Ast.fname = "sin_family") sa.comp_fields in
  match fam.ftyp with
  | Syzlang.Ast.Const (c, _) ->
      Alcotest.(check (option string)) "family constrained" (Some "AF_RDS") c.const_name
  | _ -> Alcotest.fail "sin_family should be const AF_RDS"

let test_cec_flag_set_inference () =
  let _, out = run "cec" in
  let spec = spec_of out in
  (* S_MODE's valid values include the monitor-all constant *)
  let sets = spec.flag_sets in
  Alcotest.(check bool) "some flag set inferred" true (sets <> []);
  Alcotest.(check bool) "monitor-all value captured" true
    (List.exists
       (fun fs ->
         List.exists
           (fun c -> c.Syzlang.Ast.const_name = Some "CEC_MODE_MONITOR_ALL")
           fs.Syzlang.Ast.set_values)
       sets)

let test_all_in_one_weaker_on_kvm () =
  let _, iter = run "kvm" in
  let _, aio = run ~mode:Kernelgpt.Pipeline.All_in_one "kvm" in
  let count out =
    match out.Kernelgpt.Pipeline.o_spec with
    | Some s -> Syzlang.Ast.count_syscalls s
    | None -> 0
  in
  Alcotest.(check bool) "iterative finds at least as many syscalls" true
    (count iter >= count aio);
  Alcotest.(check bool) "iterative strictly better on kvm" true (count iter > count aio)

let test_gpt35_weaker_on_dm () =
  let _, strong = run "dm" in
  let _, weak = run ~profile:Profile.gpt35 "dm" in
  let count out =
    match out.Kernelgpt.Pipeline.o_spec with
    | Some s -> Syzlang.Ast.count_syscalls s
    | None -> 0
  in
  Alcotest.(check bool) "gpt-3.5 recovers fewer syscalls" true (count weak < count strong)

let test_generated_driver_roundtrip () =
  (* a generated long-tail driver must produce a valid spec whose ioctls
     match its ground truth *)
  let entry = Corpus.Registry.find_exn "gdrv003" in
  let _, out = run "gdrv003" in
  let spec = spec_of out in
  Alcotest.(check bool) "valid" true out.o_valid;
  let described = variants spec in
  let gt = List.map (fun g -> g.Corpus.Types.gc_name) entry.gt.gt_ioctls in
  List.iter
    (fun g ->
      Alcotest.(check bool) (g ^ " described") true (List.mem g described))
    gt

(* ------------------------------------------------------------------ *)
(* SyzDescribe baseline behavior                                       *)
(* ------------------------------------------------------------------ *)

let test_syzdescribe_dm_wrong () =
  let entry = Corpus.Registry.find_exn "dm" in
  match (Baseline.Syzdescribe.run entry).sd_spec with
  | None -> Alcotest.fail "SyzDescribe should produce a (wrong) dm spec"
  | Some spec ->
      let openat = List.find (fun c -> c.Syzlang.Ast.call_name = "openat") spec.syscalls in
      let path =
        List.find_map
          (fun (f : Syzlang.Ast.field) ->
            match f.ftyp with
            | Syzlang.Ast.Ptr (_, Syzlang.Ast.String (Some p)) -> Some p
            | _ -> None)
          openat.args
      in
      (* Figure 2c: the .name rule gives the wrong path *)
      Alcotest.(check (option string)) "wrong device path" (Some "/dev/device-mapper") path

let test_syzdescribe_no_sockets () =
  let entry = Corpus.Registry.find_exn "rds" in
  Alcotest.(check bool) "sockets unsupported" true
    ((Baseline.Syzdescribe.run entry).sd_spec = None)

let test_syzdescribe_duplicates () =
  let entry = Corpus.Registry.find_exn "btrfs_control" in
  match (Baseline.Syzdescribe.run entry).sd_spec with
  | None -> Alcotest.fail "btrfs-control should be supported"
  | Some spec ->
      (* in/out duplication inflates the count beyond the 5 commands *)
      Alcotest.(check bool) "duplicated descriptions" true
        (Syzlang.Ast.count_syscalls spec > 6)

let test_syzdescribe_snd_format_err () =
  let entry = Corpus.Registry.find_exn "snd_control" in
  Alcotest.(check bool) "format-string registration unsupported" true
    ((Baseline.Syzdescribe.run entry).sd_spec = None)

(* ------------------------------------------------------------------ *)
(* Repair loop: adversarial validation errors. The loop must act only
   on the structured [err_ident] field — never parse identifiers out of
   message text — so errors whose messages are punctuation-heavy, carry
   no identifier, or put the identifier mid-sentence must be handled
   without raising and without bogus substitutions. *)

let repair_kernel =
  lazy
    (let sid = ref 0 in
     Csrc.Index.of_files
       (Corpus.Headers.parse_with_header ~sid ~file:"dm.c" Corpus.Drv_dm.source))

let repair spec =
  let kernel = Lazy.force repair_kernel in
  let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
  Kernelgpt.Pipeline.validate_and_repair ~oracle ~kernel spec

let parse = Syzlang.Parser.parse_spec ~name:"adv"

let test_repair_hallucinated_const () =
  (* the repairable case: a hallucination suffix on a real macro *)
  let spec, valid, changed, errors =
    repair
      (parse
         {|resource fd_t[fd]
ioctl$DM_VERSION(fd fd_t, cmd const[DM_VERSION_V2], arg intptr)
|})
  in
  Alcotest.(check bool) "repair applied" true changed;
  Alcotest.(check bool) "validates after repair" true valid;
  Alcotest.(check int) "no residual errors" 0 (List.length errors);
  let ioctl = List.nth spec.Syzlang.Ast.syscalls 0 in
  Alcotest.(check (option string)) "variant renamed" (Some "DM_VERSION") ioctl.variant

let test_repair_identifier_not_last () =
  (* "len target nonexistent is not a sibling field": the identifier is
     mid-message; the last word is "field". Must not raise and must not
     substitute the trailing word. *)
  let spec, valid, _, errors =
    repair
      (parse
         {|resource fd_t[fd]
bad_struct {
	count len[nonexistent, int32]
	data array[int8, 4]
}
|})
  in
  Alcotest.(check bool) "still invalid" false valid;
  Alcotest.(check bool) "errors remain" true (errors <> []);
  Alcotest.(check bool) "struct not mangled" true
    (List.exists (fun c -> c.Syzlang.Ast.comp_name = "bad_struct") spec.types)

let test_repair_resource_underlying () =
  (* a hallucination suffix on the underlying resource of a declaration:
     the rename must reach res_underlying, not just references *)
  let spec, valid, changed, errors =
    repair
      (parse
         {|resource fd_t[fd_V2]
ioctl$DM_VERSION(fd fd_t, cmd const[DM_VERSION], arg intptr)
|})
  in
  Alcotest.(check bool) "repair applied" true changed;
  Alcotest.(check bool) "validates after repair" true valid;
  Alcotest.(check int) "no residual errors" 0 (List.length errors);
  let r = List.nth spec.Syzlang.Ast.resources 0 in
  Alcotest.(check string) "underlying renamed" "fd" r.Syzlang.Ast.res_underlying

let test_repair_return_resource () =
  (* the syscall's ret resource carries the suffix: the error names the
     undeclared return resource and the rename must reach [ret] *)
  let spec, valid, changed, errors =
    repair
      (parse
         {|resource fd_t[fd]
openat$dm(fd const[-100], file ptr[in, string["/dev/x"]], flags const[2], mode const[0]) fd_t_V2
ioctl$DM_VERSION(fd fd_t, cmd const[DM_VERSION], arg intptr)
|})
  in
  Alcotest.(check bool) "repair applied" true changed;
  Alcotest.(check bool) "validates after repair" true valid;
  Alcotest.(check int) "no residual errors" 0 (List.length errors);
  let openat = List.find (fun c -> c.Syzlang.Ast.call_name = "openat") spec.syscalls in
  Alcotest.(check (option string)) "ret renamed" (Some "fd_t") openat.Syzlang.Ast.ret

let test_prune_resource_fixpoint () =
  (* an unrepairable resource (no recoverable suffix) must be pruned
     together with the syscalls returning or consuming it, leaving the
     rest of the spec usable *)
  let kernel = Lazy.force repair_kernel in
  let spec =
    parse
      {|resource fd_t[fd]
resource bogus_t[no_such_resource]
openat$bogus(fd const[-100], file ptr[in, string["/dev/x"]], flags const[2], mode const[0]) bogus_t
ioctl$BOGUS(fd bogus_t, cmd const[DM_VERSION], arg intptr)
ioctl$DM_VERSION(fd fd_t, cmd const[DM_VERSION], arg intptr)
|}
  in
  Alcotest.(check bool) "spec starts invalid" true
    (Syzlang.Validate.validate ~kernel spec <> []);
  let pruned, errors = Kernelgpt.Pipeline.prune ~kernel spec in
  Alcotest.(check int) "prunes to usable" 0 (List.length errors);
  Alcotest.(check bool) "bad resource dropped" true
    (not
       (List.exists
          (fun r -> r.Syzlang.Ast.res_name = "bogus_t")
          pruned.Syzlang.Ast.resources));
  Alcotest.(check bool) "producer dropped" true
    (not (List.exists (fun c -> c.Syzlang.Ast.variant = Some "bogus") pruned.syscalls));
  Alcotest.(check bool) "consumer dropped" true
    (not (List.exists (fun c -> c.Syzlang.Ast.variant = Some "BOGUS") pruned.syscalls));
  Alcotest.(check bool) "good ioctl survives" true
    (List.exists (fun c -> c.Syzlang.Ast.variant = Some "DM_VERSION") pruned.syscalls);
  Alcotest.(check bool) "good resource survives" true
    (List.exists (fun r -> r.Syzlang.Ast.res_name = "fd_t") pruned.resources)

let test_repair_errors_without_identifier () =
  (* "empty struct/union", "empty flag set", "ioctl must take at least
     (fd, cmd)": punctuation-heavy messages that name no identifier at
     all (err_ident = None). The old code indexed the last word of the
     message and raised on short messages; these must come back
     untouched. *)
  let spec =
    {
      Syzlang.Ast.spec_name = "adv";
      resources = [ { Syzlang.Ast.res_name = "fd_t"; res_underlying = "fd" } ];
      syscalls =
        [
          {
            Syzlang.Ast.call_name = "ioctl";
            variant = Some "SHAPE";
            args = [ { Syzlang.Ast.fname = "fd"; ftyp = Syzlang.Ast.Resource_ref "fd_t" } ];
            ret = None;
          };
        ];
      types = [ { Syzlang.Ast.comp_name = "hollow"; comp_kind = Syzlang.Ast.Struct; comp_fields = [] } ];
      flag_sets = [ { Syzlang.Ast.set_name = "no_values"; set_values = [] } ];
    }
  in
  let spec', valid, changed, errors = repair spec in
  Alcotest.(check bool) "still invalid" false valid;
  Alcotest.(check bool) "no substitution invented" false changed;
  Alcotest.(check int) "all three errors survive" 3 (List.length errors);
  List.iter
    (fun (e : Syzlang.Validate.error) ->
      Alcotest.(check (option string)) (e.err_msg ^ " names no identifier") None e.err_ident)
    errors;
  Alcotest.(check bool) "spec untouched" true (spec' = spec)

(* ------------------------------------------------------------------ *)

let test_extractor_finds_handlers () =
  let idx = Kernelgpt.Extractor.module_index Corpus.Drv_virt.kvm_source in
  let infos = Kernelgpt.Extractor.extract idx in
  let names = List.map (fun hi -> hi.Kernelgpt.Extractor.hi_ops_global) infos in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " found") true (List.mem n names))
    [ "kvm_chardev_ops"; "kvm_vm_fops"; "kvm_vcpu_fops" ];
  match Kernelgpt.Extractor.main_handler infos with
  | Some hi -> Alcotest.(check string) "main is the registered one" "kvm_chardev_ops" hi.hi_ops_global
  | None -> Alcotest.fail "no main handler"

let test_extractor_socket_kind () =
  let idx = Kernelgpt.Extractor.module_index Corpus.Sock_rds.source in
  let infos = Kernelgpt.Extractor.extract idx in
  match infos with
  | [ hi ] ->
      Alcotest.(check bool) "socket kind" true hi.hi_is_socket;
      Alcotest.(check bool) "sendmsg handler found" true
        (List.mem_assoc "sendmsg" hi.hi_handlers)
  | _ -> Alcotest.fail "expected exactly one handler"

(* ------------------------------------------------------------------ *)
(* Allocation pin                                                      *)
(* ------------------------------------------------------------------ *)

(* The pipeline alone over the 152 generation targets of the
   whole-kernel boot, with a fresh oracle per pass; 10,038,429 words
   when pinned *)
let test_pin_pipeline_run () =
  let entries = Corpus.Registry.loaded () in
  let kernel = (Vkernel.Machine.boot entries).Vkernel.Machine.index in
  let targets = Report.Suites.generation_targets entries in
  Alloc_pin.check ~bound:10_339_600.0
    (Alloc_pin.repeat_words (fun () ->
         let oracle = Oracle.create ~knowledge:kernel () in
         List.iter (fun e -> ignore (Kernelgpt.Pipeline.run ~oracle ~kernel e)) targets))

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "kernelgpt"
    [
      ( "pipeline",
        [
          t "dm complete" test_dm_complete;
          t "dm version const" test_dm_version_const_field;
          t "dm source order" test_dm_spec_order_is_source_order;
          t "kvm dependencies" test_kvm_dependencies;
          t "vgadget nr rewrite" test_vgadget_nr_rewrite;
          t "rds sendmsg control" test_rds_sendmsg_control;
          t "sockaddr family const" test_sockaddr_family_const;
          t "cec flag set" test_cec_flag_set_inference;
          t "generated driver roundtrip" test_generated_driver_roundtrip;
        ] );
      ( "ablation-behavior",
        [
          t "all-in-one weaker on kvm" test_all_in_one_weaker_on_kvm;
          t "gpt-3.5 weaker on dm" test_gpt35_weaker_on_dm;
        ] );
      ( "repair",
        [
          t "hallucinated const repaired" test_repair_hallucinated_const;
          t "identifier not last word" test_repair_identifier_not_last;
          t "resource underlying repaired" test_repair_resource_underlying;
          t "return resource repaired" test_repair_return_resource;
          t "prune resource fixpoint" test_prune_resource_fixpoint;
          t "errors without identifier" test_repair_errors_without_identifier;
        ] );
      ( "syzdescribe",
        [
          t "dm wrong path" test_syzdescribe_dm_wrong;
          t "no sockets" test_syzdescribe_no_sockets;
          t "duplicate variants" test_syzdescribe_duplicates;
          t "snd format err" test_syzdescribe_snd_format_err;
        ] );
      ( "extractor",
        [
          t "kvm handlers" test_extractor_finds_handlers;
          t "socket kind" test_extractor_socket_kind;
        ] );
      ("alloc", [ t "pipeline run allocation pin" test_pin_pipeline_run ]);
    ]
