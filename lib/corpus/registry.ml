(** The assembled synthetic kernel.

    Hand-modeled drivers and sockets (high fidelity, carrying the Table 4
    bugs and the Table 5/6 rows) plus the procedurally generated long
    tail, scaled to the paper's §5.1 population: 666 driver and 85 socket
    operation handlers scanned under allyesconfig, of which 278 drivers
    and 81 sockets are loaded under the syzbot configuration. *)

let hand_drivers : Types.entry list =
  [
    Drv_dm.entry;
    Drv_cec.entry;
    Drv_btrfs.entry;
    Drv_ubi.entry;
    Drv_posix_clock.entry;
    Drv_dvb.demux_entry;
    Drv_dvb.dvr_entry;
    Drv_vgadget.entry;
  ]
  @ Drv_virt.entries @ Drv_block.entries @ Drv_char.entries @ Drv_misc.entries
  @ Drv_sound.entries

let hand_sockets : Types.entry list = Sock_rds.entry :: (Sock_net.entries @ Sock_link.entries)

(* Paper population targets (§5.1). *)
let total_drivers = 666
let total_sockets = 85
let loaded_drivers = 278
let loaded_sockets = 81

let generated : Types.entry list Lazy.t =
  lazy
    (let nh_drv = List.length hand_drivers in
     let nh_sock = List.length hand_sockets in
     Gen.population ~seed:7
       ~n_drivers:(total_drivers - nh_drv)
       ~loaded_drivers:(loaded_drivers - nh_drv)
       ~n_sockets:(total_sockets - nh_sock)
       ~loaded_sockets:(loaded_sockets - nh_sock)
       ())

(** Every handler in the corpus (hand-written first). *)
let all : Types.entry list Lazy.t =
  lazy (hand_drivers @ hand_sockets @ Lazy.force generated)

let loaded () = List.filter (fun (e : Types.entry) -> e.loaded) (Lazy.force all)

let drivers () = List.filter (fun (e : Types.entry) -> e.kind = Types.Driver) (Lazy.force all)

let sockets () = List.filter (fun (e : Types.entry) -> e.kind = Types.Socket) (Lazy.force all)

(** Off-population extras: modules that exist for the executor's
    Jit-vs-Interp differential tests. Deliberately NOT part of {!all}
    (or any population/table selector): the §5.1 population counts and
    every seeded campaign schedule stay byte-identical to a tree
    without them. Reachable only by name through {!find}. *)
let extras : Types.entry list = [ Drv_stress.entry ]

let find name =
  match List.find_opt (fun (e : Types.entry) -> e.name = name) (Lazy.force all) with
  | Some e -> Some e
  | None -> List.find_opt (fun (e : Types.entry) -> e.name = name) extras

let find_exn name =
  match find name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Registry.find_exn: no module %s" name)

let table5 () = List.filter (fun (e : Types.entry) -> e.in_table5) (Lazy.force all)

let table6 () = List.filter (fun (e : Types.entry) -> e.in_table6) (Lazy.force all)

(** Table 4: the injected bugs, their modules and CVE status. *)
let bugs : Types.bug list =
  let b ?cve ?(confirmed = true) ?(fixed = false) bug_title bug_module =
    { Types.bug_title; bug_cve = cve; bug_module; bug_confirmed = confirmed; bug_fixed = fixed }
  in
  [
    b "kmalloc bug in ctl_ioctl" "dm" ~cve:"CVE-2024-23851" ~fixed:true;
    b "kmalloc bug in dm_table_create" "dm" ~cve:"CVE-2023-52429" ~fixed:true;
    b "KASAN: slab-use-after-free Read in cec_queue_msg_fh" "cec" ~cve:"CVE-2024-23848" ~fixed:true;
    b "ODEBUG bug in cec_transmit_msg_fh" "cec" ~fixed:true;
    b "WARNING in cec_data_cancel" "cec" ~fixed:true;
    b "INFO: task hung in cec_claim_log_addrs" "cec";
    b "general protection fault in cec_transmit_done_ts" "cec" ~fixed:true;
    b "kernel BUG in btrfs_get_root_ref" "btrfs_control" ~cve:"CVE-2024-23850" ~fixed:true;
    b "general protection fault in btrfs_update_reloc_root" "btrfs_control";
    b "zero-size vmalloc in ubi_read_volume_table" "ubi" ~cve:"CVE-2024-25739" ~fixed:true;
    b "UBSAN: array-index-out-of-bounds in rds_cmsg_recv" "rds" ~cve:"CVE-2024-23849" ~fixed:true;
    b "memory leak in ubi_attach" "ubi" ~cve:"CVE-2024-25740";
    b "memory leak in posix_clock_open" "posix_clock" ~cve:"CVE-2024-26655" ~fixed:true;
    b "memory leak in ip6_append_data" "l2tp_ip6";
    b "possible deadlock in dvb_demux_release" "dvb_demux" ~confirmed:false;
    b "INFO: task hung in __rq_qos_throttle" "nbd" ~confirmed:false;
    b "WARNING in usb_ep_queue" "vgadget" ~cve:"CVE-2024-25741";
    b "memory leak in dvb_dmxdev_add_pid" "dvb_demux";
    b "memory leak in dvb_dvr_do_ioctl" "dvb_dvr" ~confirmed:false;
    b "general protection fault in dvb_vb2_expbuf" "dvb_demux" ~cve:"CVE-2024-50291" ~fixed:true;
    b "general protection fault in cleanup_mapped_device" "dm" ~cve:"CVE-2024-50277" ~fixed:true;
    b "WARNING in vb2_core_reqbufs" "vgadget";
    b "BUG: corrupted list in vep_queue" "vgadget";
    b "divide error in uvc_queue_setup" "vgadget";
  ]

(** The first ten valid Table 5 drivers, as used by the §5.2.3 ablations. *)
let ablation_drivers () =
  let order =
    [ "btrfs_control"; "capi20"; "snd_control"; "fuse"; "hpet"; "i2c"; "kvm"; "loop_control";
      "loop"; "misdn_timer" ]
  in
  List.filter_map find order
