(** Registry metadata for corpus modules.

    Every driver or socket in the synthetic kernel is described by an
    {!entry}: its mini-C source, the *ground truth* about its interface
    (device paths, operation-handler symbol, command set), and evaluation
    flags (loaded under the syzbot config, present in the paper's
    Table 5/6, covered by hand-written Syzkaller specs, ...).

    Ground truth is authored together with the source and is used only by
    the virtual kernel (to boot the module) and by the correctness audit
    (§5.1.3); the analyses under test must infer everything from the
    source text alone. *)

type kind = Driver | Socket

(** Ground truth about one generic-syscall command (an [ioctl] command or
    a [setsockopt]/[getsockopt] option). *)
type gt_command = {
  gc_name : string;  (** macro name, e.g. ["DM_LIST_DEVICES"] *)
  gc_arg_type : string option;  (** struct/union name of the argument *)
  gc_dir : Syzlang.Ast.dir;  (** direction of the argument pointer *)
}

type gt = {
  gt_paths : string list;  (** true device paths, e.g. ["/dev/mapper/control"] *)
  gt_fops : string;  (** the operation-handler global symbol *)
  gt_socket : (int * int * int) option;  (** domain, type, protocol *)
  gt_ioctls : gt_command list;  (** driver ioctl commands *)
  gt_setsockopts : gt_command list;  (** socket options (sockets only) *)
  gt_syscalls : string list;  (** plain syscalls: open/read/bind/sendto/... *)
}

type entry = {
  name : string;  (** registry key, e.g. "dm" *)
  display_name : string;  (** paper-table row label, e.g. "loop#" *)
  kind : kind;
  source : string;  (** mini-C module source *)
  gt : gt;
  loaded : bool;  (** loaded under the syzbot configuration *)
  hw_required : bool;  (** needs hardware; excluded from generation *)
  existing_spec : string option;  (** hand-written Syzkaller spec, if any *)
  in_table5 : bool;
  in_table6 : bool;
}

(** The file name a module's source is parsed under, which its locations
    carry: [drivers/NAME.c] or [net/NAME.c]. [Vkernel.Machine.boot]
    parses each module under it, and the extractor finds the module's
    file in a booted kernel by it. *)
let module_file_name (e : entry) =
  match e.kind with
  | Driver -> Printf.sprintf "drivers/%s.c" e.name
  | Socket -> Printf.sprintf "net/%s.c" e.name

let driver_entry ~name ?(display_name = name) ~source ~gt
    ?(loaded = true) ?(hw_required = false) ?existing_spec
    ?(in_table5 = false) () =
  {
    name;
    display_name;
    kind = Driver;
    source;
    gt;
    loaded;
    hw_required;
    existing_spec;
    in_table5;
    in_table6 = false;
  }

let socket_entry ~name ?(display_name = name) ~source ~gt
    ?(loaded = true) ?existing_spec ?(in_table6 = false) () =
  {
    name;
    display_name;
    kind = Socket;
    source;
    gt;
    loaded;
    hw_required = false;
    existing_spec;
    in_table5 = false;
    in_table6;
  }

(** Known-bug record for Table 4. *)
type bug = {
  bug_title : string;  (** crash title as the virtual kernel reports it *)
  bug_cve : string option;
  bug_module : string;  (** registry key of the module containing the bug *)
  bug_confirmed : bool;
  bug_fixed : bool;
}
