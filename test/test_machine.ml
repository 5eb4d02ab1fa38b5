(* Tests of the syscall machine beyond the dm basics: socket dispatch,
   resource-producing ioctls, leak scanning, and interpreter detail. *)

open Vkernel

let boot names = Machine.boot (List.map Corpus.Registry.find_exn names)

let cmd machine name =
  match Csrc.Index.eval_macro machine.Machine.index name with
  | Some v -> v
  | None -> Alcotest.failf "macro %s missing" name

(* ------------------------------------------------------------------ *)
(* Sockets                                                             *)
(* ------------------------------------------------------------------ *)

let test_socket_exact_triple () =
  let m = boot [ "rds" ] in
  let r =
    Machine.exec_prog m [ { Machine.c_name = "socket"; c_args = [ P_int 21L; P_int 5L; P_int 0L ] } ]
  in
  Alcotest.(check bool) "socket created" true (Int64.compare r.retvals.(0) 0L >= 0)

let test_socket_wrong_domain () =
  let m = boot [ "rds" ] in
  let r =
    Machine.exec_prog m [ { Machine.c_name = "socket"; c_args = [ P_int 2L; P_int 1L; P_int 0L ] } ]
  in
  Alcotest.(check int64) "EAFNOSUPPORT" (-97L) r.retvals.(0)

let test_socket_proto_fallback () =
  (* rfcomm is (31,1,3); a request with wildcard type but right proto
     must land on it, not on sco (31,5,2) *)
  let m = boot [ "rfcomm_sock"; "sco_sock" ] in
  let addr =
    Value.U_struct
      ("sockaddr_rc", [ ("rc_family", Value.U_int 31L); ("rc_channel", Value.U_int 5L) ])
  in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "socket"; c_args = [ P_int 31L; P_int 2L; P_int 3L ] };
        { Machine.c_name = "bind"; c_args = [ P_result 0; P_data addr; P_int 10L ] };
      ]
  in
  Alcotest.(check int64) "bound through rfcomm" 0L r.retvals.(1)

let test_setsockopt_dispatch () =
  let m = boot [ "llc_ui" ] in
  let bind_addr =
    Value.U_struct
      ("sockaddr_llc", [ ("sllc_family", Value.U_int 26L); ("sllc_sap", Value.U_int 2L) ])
  in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "socket"; c_args = [ P_int 26L; P_int 2L; P_int 0L ] };
        { Machine.c_name = "bind"; c_args = [ P_result 0; P_data bind_addr; P_int 16L ] };
        (* LLC_OPT_TX_WIN = 7, value above LLC_OPT_MAX_WIN must fail *)
        {
          Machine.c_name = "setsockopt";
          c_args = [ P_result 0; P_int 0L; P_int 7L; P_data (Value.U_int 500L); P_int 4L ];
        };
        {
          Machine.c_name = "setsockopt";
          c_args = [ P_result 0; P_int 0L; P_int 7L; P_data (Value.U_int 5L); P_int 4L ];
        };
      ]
  in
  Alcotest.(check int64) "oversized window rejected" (-22L) r.retvals.(2);
  Alcotest.(check int64) "valid window accepted" 0L r.retvals.(3)

let test_bind_null_addr_efault () =
  let m = boot [ "rds" ] in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "socket"; c_args = [ P_int 21L; P_int 5L; P_int 0L ] };
        { Machine.c_name = "bind"; c_args = [ P_result 0; P_null; P_int 16L ] };
      ]
  in
  Alcotest.(check int64) "EFAULT, not a crash" (-14L) r.retvals.(1);
  Alcotest.(check bool) "no crash" true (r.crash = None)

let test_sendto_lowered_to_sendmsg () =
  let m = boot [ "phonet_dgram" ] in
  let addr =
    Value.U_struct
      ("sockaddr_pn", [ ("spn_family", Value.U_int 35L); ("spn_dev", Value.U_int 0L) ])
  in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "socket"; c_args = [ P_int 35L; P_int 2L; P_int 0L ] };
        {
          Machine.c_name = "sendto";
          c_args = [ P_result 0; P_data (Value.U_str "hi"); P_int 2L; P_int 0L; P_data addr; P_int 16L ];
        };
      ]
  in
  Alcotest.(check int64) "send succeeds through sendmsg handler" 2L r.retvals.(1)

(* ------------------------------------------------------------------ *)
(* Resource-producing ioctls (kvm)                                     *)
(* ------------------------------------------------------------------ *)

let test_kvm_anon_fd_chain () =
  let m = boot [ "kvm" ] in
  let create_vm = cmd m "KVM_CREATE_VM" in
  let create_vcpu = cmd m "KVM_CREATE_VCPU" in
  let set_cpuid = cmd m "KVM_SET_CPUID2" in
  let run_vcpu = cmd m "KVM_RUN" in
  let cpuid = Value.U_struct ("kvm_cpuid2", [ ("nent", Value.U_int 2L) ]) in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/kvm" ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int create_vm; P_int 0L ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 1; P_int create_vcpu; P_int 0L ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 2; P_int run_vcpu; P_int 0L ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 2; P_int set_cpuid; P_data cpuid ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 2; P_int run_vcpu; P_int 0L ] };
      ]
  in
  Alcotest.(check bool) "vm fd created" true (Int64.compare r.retvals.(1) 2L > 0);
  Alcotest.(check bool) "vcpu fd created" true (Int64.compare r.retvals.(2) r.retvals.(1) > 0);
  Alcotest.(check int64) "run before cpuid fails" (-8L) r.retvals.(3);
  Alcotest.(check int64) "cpuid set" 0L r.retvals.(4);
  Alcotest.(check int64) "run after cpuid" 0L r.retvals.(5)

(* ------------------------------------------------------------------ *)
(* Interpreter detail                                                  *)
(* ------------------------------------------------------------------ *)

let test_read_write_dispatch () =
  let m = boot [ "nvram" ] in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/nvram" ] };
        { Machine.c_name = "write"; c_args = [ P_result 0; P_data (Value.U_str "x"); P_int 4L ] };
        { Machine.c_name = "read"; c_args = [ P_result 0; P_null; P_int 8L ] };
      ]
  in
  Alcotest.(check int64) "write returns count" 4L r.retvals.(1);
  (* read fails while the checksum is dirty *)
  Alcotest.(check int64) "read EIO" (-5L) r.retvals.(2)

let test_step_budget_no_hang () =
  (* a pathological program cannot wedge the machine *)
  let m = boot [ "dm" ] in
  let t0 = Unix.gettimeofday () in
  let _ =
    Machine.exec_prog ~step_budget:5_000 m
      [ { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/mapper/control" ] } ]
  in
  Alcotest.(check bool) "fast" true (Unix.gettimeofday () -. t0 < 1.0)

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let test_timeout_not_reported_as_leak () =
  (* open an fd, then time out inside the ioctl: the exit path must
     still release the fd on its own small budget, and the kmemleak scan
     must be skipped — a timed-out program never ran its releases to
     completion, so scanning would misreport live state as leaked *)
  let m = boot [ "dm" ] in
  let create = cmd m "DM_DEV_CREATE" in
  let prog =
    [
      { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/mapper/control" ] };
      {
        Machine.c_name = "ioctl";
        c_args =
          [
            P_result 0;
            P_int create;
            P_data
              (Value.U_struct
                 ( "dm_ioctl",
                   [
                     ("version", Value.U_arr [ Value.U_int 4L ]);
                     ("data_size", Value.U_int 400L);
                     ("name", Value.U_str "v0");
                   ] ));
          ];
      };
    ]
  in
  let r = Machine.exec_prog ~step_budget:20 m prog in
  Alcotest.(check bool) "fd was opened" true (Int64.compare r.Machine.retvals.(0) 0L >= 0);
  Alcotest.(check int64) "ioctl interrupted" (-4L) r.retvals.(1);
  Alcotest.(check bool) "flagged as timed out" true r.timed_out;
  (match r.crash with
  | Some c when starts_with ~prefix:"memory leak" c.cr_title ->
      Alcotest.fail ("timed-out program misreported as " ^ c.cr_title)
  | _ -> ());
  (* the same program with budget to spare is neither flagged nor leaky *)
  let ok = Machine.exec_prog m prog in
  Alcotest.(check bool) "untimed run not flagged" false ok.Machine.timed_out;
  Alcotest.(check bool) "untimed run has no crash" true (ok.crash = None)

let test_unknown_syscall_enosys () =
  let m = boot [ "dm" ] in
  let r = Machine.exec_prog m [ { Machine.c_name = "reboot"; c_args = [] } ] in
  Alcotest.(check int64) "ENOSYS" (-38L) r.retvals.(0)

let test_coverage_nonoverlapping_modules () =
  let m = boot [ "dm"; "ubi" ] in
  let det = cmd m "UBI_IOCDET" in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/ubi_ctrl" ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int det; P_data (Value.U_int 9L) ] };
      ]
  in
  let mods =
    List.filter_map (Machine.module_of_sid m) r.coverage |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "only ubi executed" [ "ubi" ] mods

let test_double_free_detected () =
  (* dvb remove_pid twice on the same slot after manual free would be a
     double free; exercise via DMX_REMOVE_PID after REMOVE_PID *)
  let m = boot [ "dvb_demux" ] in
  let add = cmd m "DMX_ADD_PID" and rem = cmd m "DMX_REMOVE_PID" in
  let pid = Machine.P_data (Value.U_int 5L) in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/dvb/adapter0/demux0" ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int add; pid ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int rem; pid ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int rem; pid ] };
      ]
  in
  Alcotest.(check int64) "first remove ok" 0L r.retvals.(2);
  Alcotest.(check int64) "second remove EINVAL" (-22L) r.retvals.(3);
  Alcotest.(check bool) "no crash" true (r.crash = None)

let test_leak_scan_ignores_reachable () =
  (* a successful ubi attach keeps its allocations reachable: no leak *)
  let m = boot [ "ubi" ] in
  let att = cmd m "UBI_IOCATT" in
  let req =
    Value.U_struct
      ( "ubi_attach_req",
        [ ("mtd_num", Value.U_int 1L); ("vid_hdr_offset", Value.U_int 4096L);
          ("max_beb_per1024", Value.U_int 20L) ] )
  in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/ubi_ctrl" ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int att; P_data req ] };
        { Machine.c_name = "close"; c_args = [ P_result 0 ] };
      ]
  in
  Alcotest.(check int64) "attach ok" 0L r.retvals.(1);
  Alcotest.(check bool) "no leak report" true (r.crash = None)

let test_detach_frees () =
  let m = boot [ "ubi" ] in
  let att = cmd m "UBI_IOCATT" and det = cmd m "UBI_IOCDET" in
  let req mtd =
    Value.U_struct
      ( "ubi_attach_req",
        [ ("mtd_num", Value.U_int mtd); ("vid_hdr_offset", Value.U_int 4096L);
          ("max_beb_per1024", Value.U_int 20L) ] )
  in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/ubi_ctrl" ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int att; P_data (req 1L) ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int det; P_data (Value.U_int 1L) ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int att; P_data (req 1L) ] };
      ]
  in
  Array.iteri
    (fun i v -> Alcotest.(check bool) (Printf.sprintf "call %d ok" i) true (Int64.compare v 0L >= 0))
    r.retvals;
  Alcotest.(check bool) "no false leak after detach+reattach" true (r.crash = None)

(* ------------------------------------------------------------------ *)
(* Dispatch lookups against the association-list reference            *)
(* ------------------------------------------------------------------ *)

(* The registrations as [Machine.boot] listed them before the hashed
   tables, and the scans [op_open] and [op_socket] ran over them, kept as
   the reference oracle for [Machine.find_device] and
   [Machine.find_socket]. *)
let ref_devices entries =
  List.concat_map
    (fun (e : Corpus.Types.entry) ->
      if e.kind = Corpus.Types.Driver then
        List.map
          (fun path -> (path, { Machine.dev_module = e.name; dev_fops = e.gt.gt_fops }))
          e.gt.gt_paths
      else [])
    entries

let ref_sockets entries =
  List.filter_map
    (fun (e : Corpus.Types.entry) ->
      match e.gt.gt_socket with
      | Some triple when e.kind = Corpus.Types.Socket ->
          Some (triple, { Machine.sock_module = e.name; sock_ops = e.gt.gt_fops })
      | _ -> None)
    entries

let ref_find_device devices path = List.assoc_opt path devices

let ref_find_socket sockets (domain, styp, proto) =
  let lookup k = List.assoc_opt k sockets in
  let by_pred pred =
    List.find_map (fun ((d, t, p), reg) -> if pred d t p then Some reg else None) sockets
  in
  match lookup (domain, styp, proto) with
  | Some s -> Some s
  | None -> (
      match lookup (domain, styp, 0) with
      | Some s -> Some s
      | None -> (
          match if proto <> 0 then by_pred (fun d _ p -> d = domain && p = proto) else None with
          | Some s -> Some s
          | None -> by_pred (fun d _ _ -> d = domain)))

(* Four real socket modules re-registered under one domain, so that each
   of the four socket rules decides some triple built from registered
   parts: (40,2,9) is exact, (40,2,7) needs the (domain, type, 0) rule,
   (40,4,9) the protocol rule and (40,4,0) the domain's first entry. *)
let shared_domain_entries () =
  let socks =
    List.filter
      (fun (e : Corpus.Types.entry) -> e.kind = Corpus.Types.Socket)
      (Corpus.Registry.loaded ())
  in
  List.map2
    (fun (e : Corpus.Types.entry) triple -> { e with gt = { e.gt with gt_socket = Some triple } })
    (List.filteri (fun i _ -> i < 4) socks)
    [ (40, 1, 7); (40, 2, 0); (40, 2, 9); (40, 3, 9) ]

(* every machine the differential runs on: the whole kernel, each loaded
   module booted alone, and the shared-domain machine *)
let dispatch_machines =
  lazy
    (let loaded = Corpus.Registry.loaded () in
     List.map
       (fun entries -> (Machine.boot entries, ref_devices entries, ref_sockets entries))
       ((loaded :: List.map (fun e -> [ e ]) loaded) @ [ shared_domain_entries () ]))

let kernel_machine () =
  let m, _, _ = List.hd (Lazy.force dispatch_machines) in
  m

let registered_paths = lazy (List.map fst (ref_devices (Corpus.Registry.loaded ())))

let registered_triples =
  lazy
    (List.map fst (ref_sockets (Corpus.Registry.loaded () @ shared_domain_entries ())))

let gen_path =
  let open QCheck.Gen in
  let registered = oneofl (Lazy.force registered_paths) in
  oneof
    [
      registered;
      (registered >>= fun p -> int_bound (String.length p) >|= fun k -> String.sub p 0 k);
      (registered >|= fun p -> p ^ "0");
      string_size ~gen:printable (int_range 0 16);
    ]

let gen_triple =
  let open QCheck.Gen in
  let triples = Lazy.force registered_triples in
  let noise = oneof [ return 0; int_range (-3) 300; int ] in
  let from xs = oneof [ oneofl xs; noise ] in
  let own d = List.filter (fun (d', _, _) -> d' = d) triples in
  let domains = List.sort_uniq compare (List.map (fun (d, _, _) -> d) triples) in
  let shared = List.filter (fun d -> List.length (own d) > 1) domains in
  (* a domain's own types and protocols recombined, most often in a
     domain with several registrations, where the rules disagree *)
  let within d =
    let parts f = from (List.map f (own d)) in
    pair (parts (fun (_, t, _) -> t)) (parts (fun (_, _, p) -> p)) >|= fun (t, p) -> (d, t, p)
  in
  frequency
    [
      (3, oneofl shared >>= within);
      (2, oneofl domains >>= within);
      (1, triple (from domains) noise noise);
    ]

let qcheck_find_device =
  QCheck.Test.make ~name:"find_device = List.assoc_opt on every machine" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") gen_path)
    (fun path ->
      List.for_all
        (fun (m, devices, _) -> Machine.find_device m path = ref_find_device devices path)
        (Lazy.force dispatch_machines))

let qcheck_find_socket =
  QCheck.Test.make ~name:"find_socket = four-rule scan on every machine" ~count:1000
    (QCheck.make ~print:QCheck.Print.(triple int int int) gen_triple)
    (fun ((domain, typ, proto) as k) ->
      List.for_all
        (fun (m, _, sockets) ->
          Machine.find_socket m ~domain ~typ ~proto = ref_find_socket sockets k)
        (Lazy.force dispatch_machines))

let test_dispatch_pins () =
  let m = kernel_machine () in
  let sock_module = Option.map (fun (r : Machine.socket_reg) -> r.sock_module) in
  let shared =
    Hashtbl.fold
      (fun d regs acc ->
        if List.length regs > 1 then
          (d, List.map (fun (_, (r : Machine.socket_reg)) -> r.sock_module) regs) :: acc
        else acc)
      m.Machine.sockets []
  in
  Alcotest.(check (list (pair int (list string))))
    "one domain registered twice, in boot order"
    [ (31, [ "rfcomm_sock"; "sco_sock" ]) ]
    shared;
  Alcotest.(check (option string)) "the first registration wins the domain fallback"
    (Some "rfcomm_sock") (sock_module (Machine.find_socket m ~domain:31 ~typ:2 ~proto:0));
  Alcotest.(check (option string)) "unregistered domain" None
    (sock_module (Machine.find_socket m ~domain:39 ~typ:1 ~proto:0));
  let r =
    Machine.exec_prog m
      [ { Machine.c_name = "socket"; c_args = [ P_int 39L; P_int 1L; P_int 0L ] } ]
  in
  Alcotest.(check int64) "falls through to EAFNOSUPPORT" (-97L) r.retvals.(0);
  let shared_entries = shared_domain_entries () in
  let shared_machine = Machine.boot shared_entries in
  List.iter
    (fun ((domain, typ, proto), rule, i) ->
      Alcotest.(check (option string)) rule
        (Some (List.nth shared_entries i).Corpus.Types.name)
        (sock_module (Machine.find_socket shared_machine ~domain ~typ ~proto)))
    [
      ((40, 2, 9), "exact triple", 2);
      ((40, 2, 7), "(domain, type, 0) before the protocol rule", 1);
      ((40, 4, 9), "protocol under any type", 2);
      ((40, 4, 0), "the domain's first registration", 0);
    ];
  Alcotest.(check (option string)) "registered path" (Some "dm")
    (Option.map
       (fun (d : Machine.device) -> d.dev_module)
       (Machine.find_device m "/dev/mapper/control"));
  Alcotest.(check bool) "a prefix is not a path" true (Machine.find_device m "/dev/mapper" = None)

(* ------------------------------------------------------------------ *)
(* Allocation pin                                                      *)
(* ------------------------------------------------------------------ *)

(* Booting the whole kernel: the registry's loaded entries parsed
   against the shared header, which is parsed once per process, and
   their dispatch tables built; 4,171,636 words when pinned *)
let test_pin_boot () =
  let entries = Corpus.Registry.loaded () in
  Alloc_pin.check ~bound:4_296_800.0 (Alloc_pin.repeat_words (fun () -> Machine.boot entries))

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "machine"
    [
      ( "sockets",
        [
          t "exact triple" test_socket_exact_triple;
          t "wrong domain" test_socket_wrong_domain;
          t "proto fallback" test_socket_proto_fallback;
          t "setsockopt dispatch" test_setsockopt_dispatch;
          t "null sockaddr" test_bind_null_addr_efault;
          t "sendto lowering" test_sendto_lowered_to_sendmsg;
        ] );
      ( "dispatch",
        [
          t "pins" test_dispatch_pins;
          QCheck_alcotest.to_alcotest qcheck_find_device;
          QCheck_alcotest.to_alcotest qcheck_find_socket;
        ] );
      ("anon-fds", [ t "kvm vm/vcpu chain" test_kvm_anon_fd_chain ]);
      ( "interp",
        [
          t "read/write dispatch" test_read_write_dispatch;
          t "step budget" test_step_budget_no_hang;
          t "timeout is not a leak" test_timeout_not_reported_as_leak;
          t "unknown syscall" test_unknown_syscall_enosys;
          t "module attribution" test_coverage_nonoverlapping_modules;
          t "no spurious double-free" test_double_free_detected;
          t "leak scan reachability" test_leak_scan_ignores_reachable;
          t "detach frees" test_detach_frees;
        ] );
      ("alloc", [ t "whole-kernel boot allocation pin" test_pin_boot ]);
    ]
