(** The virtual kernel machine: boots the corpus, exposes the syscall
    interface, executes syscall programs, and reports coverage + crashes.

    This is the stand-in for the QEMU/KCOV fuzzing target of the paper's
    evaluation. Device paths and socket triples come from the registry's
    ground truth (the moral equivalent of actually booting the modules);
    everything else — handler dispatch, argument passing, crash
    detection — runs from the same mini-C sources that the analyses
    under test read, either through the tree-walking {!Interp} or the
    closure-compiled {!Jit} (the default; both are exact mirrors).

    A syscall dispatches by a [match] on its name, which the compiler
    turns into a few word compares; a program's open files sit in an
    array indexed by fd number. *)

type parg =
  | P_int of int64
  | P_str of string
  | P_data of Value.uval  (** user pointer payload *)
  | P_null
  | P_result of int  (** file descriptor produced by call #i of the program *)

type call = { c_name : string; c_args : parg list }

type prog = call list

type crash_report = { cr_title : string; cr_call : int (* index of the crashing call *) }

type exec_result = {
  retvals : int64 array;
  crash : crash_report option;
  coverage : int list;  (** statement ids executed *)
  timed_out : bool;  (** a call (or exit-path release) exhausted the step budget *)
}

type device = { dev_module : string; dev_fops : string }

type socket_reg = { sock_module : string; sock_ops : string }

type t = {
  index : Csrc.Index.t;
  devices : (string, device) Hashtbl.t;
      (** device path -> device; the first registration of a path wins *)
  sockets : (int, ((int * int * int) * socket_reg) list) Hashtbl.t;
      (** socket domain -> that domain's registrations, in boot order *)
  sid_module : (int, string) Hashtbl.t;
  modules : string list;
  jit : Jit.t Lazy.t;
      (** closure-compiled function bodies; forced on first execution so
          boots that never execute programs pay nothing *)
  layouts : Interp.layout Value.Stbl.t;
      (** composite layout plans shared by every per-execution state:
          the index is frozen after boot, so a struct's field walk is
          computed once per machine, not once per instantiation *)
  frames : Value.Pool.t;
      (** free-list pool for call frames (jit slot arrays), shared by
          every per-execution state of this machine like [layouts] *)
  n_sids : int;  (** statement-id count, sizes coverage bitmaps *)
}

(** Boot the machine over the given corpus entries (normally the loaded
    ones). Parses every module into a single definition index on top of
    the shared header's, with globally unique statement ids. *)
let boot (entries : Corpus.Types.entry list) : t =
  let sid = ref 0 in
  let sid_module = Hashtbl.create 4096 in
  let files =
    List.map
      (fun (e : Corpus.Types.entry) ->
        let before = !sid in
        let f = Csrc.Parser.parse_file ~file:(Corpus.Types.module_file_name e) ~sid e.source in
        for s = before to !sid - 1 do
          Hashtbl.replace sid_module s e.name
        done;
        f)
      entries
  in
  let index = Corpus.Headers.index_with_header files in
  (* both tables are sized from the entry list, so a single-module boot
     allocates a minimal table, not one sized for the whole kernel *)
  let devices = Hashtbl.create (List.length entries) in
  let sockets = Hashtbl.create (List.length entries) in
  List.iter
    (fun (e : Corpus.Types.entry) ->
      match (e.kind, e.gt.gt_socket) with
      | Corpus.Types.Driver, _ ->
          List.iter
            (fun path ->
              if not (Hashtbl.mem devices path) then
                Hashtbl.add devices path { dev_module = e.name; dev_fops = e.gt.gt_fops })
            e.gt.gt_paths
      | Corpus.Types.Socket, Some ((d, _, _) as triple) ->
          let reg = (triple, { sock_module = e.name; sock_ops = e.gt.gt_fops }) in
          let regs = Option.value (Hashtbl.find_opt sockets d) ~default:[] in
          Hashtbl.replace sockets d (regs @ [ reg ])
      | Corpus.Types.Socket, None -> ())
    entries;
  {
    index;
    devices;
    sockets;
    sid_module;
    modules = List.map (fun (e : Corpus.Types.entry) -> e.name) entries;
    jit = lazy (Jit.of_index index);
    layouts = Value.Stbl.create 64;
    frames = Value.Pool.create ();
    n_sids = !sid;
  }

let module_of_sid t sid = Hashtbl.find_opt t.sid_module sid

let find_device t path = Hashtbl.find_opt t.devices path

(* Families commonly accept several socket types, so the most specific
   registration wins. Each rule takes the requested type and protocol,
   then a registration's; in order: the exact triple, (type, protocol 0),
   the protocol under any type, the domain's first registration. Every
   rule also requires the domain to match, so they run over that
   domain's registrations only. *)
let socket_rules =
  [
    (fun typ proto ty p -> ty = typ && p = proto);
    (fun typ _ ty p -> ty = typ && p = 0);
    (fun _ proto _ p -> proto <> 0 && p = proto);
    (fun _ _ _ _ -> true);
  ]

let find_socket t ~domain ~typ ~proto =
  match Hashtbl.find_opt t.sockets domain with
  | None -> None
  | Some regs ->
      List.find_map
        (fun rule ->
          List.find_map
            (fun ((_, ty, p), reg) -> if rule typ proto ty p then Some reg else None)
            regs)
        socket_rules

(* ------------------------------------------------------------------ *)
(* Coverage sink                                                       *)
(* ------------------------------------------------------------------ *)

(** Reusable per-campaign coverage collector: a bitmap over statement
    ids plus the list of ids touched this execution. Recording and
    resetting allocate nothing once the buffers are warm, so the hot
    loop's coverage bookkeeping is O(touched), not O(programs ×
    hashtable). *)
type cov_sink = {
  mutable cs_bits : Bytes.t;  (** bit per sid, set while touched this run *)
  mutable cs_buf : int array;  (** sids touched this run, first [cs_n] *)
  mutable cs_n : int;
  mutable cs_hook : int -> unit;
      (** [sink_record] on this sink, built once — the hot loop hands it
          to every execution's state instead of closing over the sink
          again per program *)
}

let sink_record (sk : cov_sink) (sid : int) : unit =
  let byte = sid lsr 3 in
  if byte >= Bytes.length sk.cs_bits then begin
    (* sids past boot's count (defensive; spawned code can't add any) *)
    let nb = Bytes.make (byte + 64) '\000' in
    Bytes.blit sk.cs_bits 0 nb 0 (Bytes.length sk.cs_bits);
    sk.cs_bits <- nb
  end;
  (* in range: the check above grew [cs_bits] past [byte], and sids are
     never negative (the parser numbers statements from 0) *)
  let b = Char.code (Bytes.unsafe_get sk.cs_bits byte) in
  let bit = 1 lsl (sid land 7) in
  if b land bit = 0 then begin
    Bytes.unsafe_set sk.cs_bits byte (Char.unsafe_chr (b lor bit));
    if sk.cs_n >= Array.length sk.cs_buf then begin
      let nbuf = Array.make (2 * Array.length sk.cs_buf) 0 in
      Array.blit sk.cs_buf 0 nbuf 0 sk.cs_n;
      sk.cs_buf <- nbuf
    end;
    sk.cs_buf.(sk.cs_n) <- sid;
    sk.cs_n <- sk.cs_n + 1
  end

let new_sink (t : t) : cov_sink =
  let sk =
    {
      cs_bits = Bytes.make ((t.n_sids / 8) + 1) '\000';
      cs_buf = Array.make 1024 0;
      cs_n = 0;
      cs_hook = ignore;
    }
  in
  sk.cs_hook <- (fun sid -> sink_record sk sid);
  sk

(** Clear only the touched bits (not the whole bitmap) and rewind the
    buffer, readying the sink for the next execution. *)
let sink_reset (sk : cov_sink) : unit =
  for i = 0 to sk.cs_n - 1 do
    let sid = sk.cs_buf.(i) in
    let byte = sid lsr 3 in
    (* in range: [sink_record] grew [cs_bits] to cover every sid it put
       in [cs_buf], and the bitmap never shrinks *)
    let b = Char.code (Bytes.unsafe_get sk.cs_bits byte) in
    Bytes.unsafe_set sk.cs_bits byte (Char.unsafe_chr (b land lnot (1 lsl (sid land 7))))
  done;
  sk.cs_n <- 0

(* ------------------------------------------------------------------ *)
(* Program execution                                                   *)
(* ------------------------------------------------------------------ *)

(** Which executor runs handler bodies. Both are exact mirrors; [`Jit]
    (the default) compiles each function to closures once per machine. *)
type engine = [ `Jit | `Interp ]

type fd_entry = {
  fd_file : Value.obj;  (** the [struct file] (or [struct socket]) object *)
  fd_inode : Value.obj;
  fd_ops : string;  (** name of the fops / proto_ops global *)
  fd_ops_h : int;  (** [Value.Stbl.hash fd_ops], computed once at fd creation *)
  fd_is_socket : bool;
}

type run = {
  machine : t;
  st : Interp.state;
  mutable fds : fd_entry option array;
      (** indexed by fd number, grown on demand; a number outside it is
          not open *)
  mutable next_fd : int;
  use_jit : bool;
}

let errno v = Int64.neg (Int64.of_int v)

(* Handler field names interned and hashed once: dispatch resolves fops
   globals and their function-pointer fields on every syscall, so the
   string hashes are hoisted out of the hot path (for both engines),
   and interning lets the field probe hit the pointer-compare fast path
   against layout-built field names. *)
let f_open = Value.intern "open"
let f_release = Value.intern "release"
let f_poll = Value.intern "poll"
let f_mmap = Value.intern "mmap"
let f_connect = Value.intern "connect"
let f_accept = Value.intern "accept"
let f_ioctl = Value.intern "ioctl"
let f_unlocked_ioctl = Value.intern "unlocked_ioctl"
let f_sendmsg = Value.intern "sendmsg"
let f_recvmsg = Value.intern "recvmsg"
let h_open = Value.Stbl.hash f_open
let h_release = Value.Stbl.hash f_release
let h_poll = Value.Stbl.hash f_poll
let h_mmap = Value.Stbl.hash f_mmap
let h_connect = Value.Stbl.hash f_connect
let h_accept = Value.Stbl.hash f_accept
let h_ioctl = Value.Stbl.hash f_ioctl
let h_unlocked_ioctl = Value.Stbl.hash f_unlocked_ioctl
let h_sendmsg = Value.Stbl.hash f_sendmsg
let h_recvmsg = Value.Stbl.hash f_recvmsg

let handler run ~(ops : string) ~(oh : int) (field : string) (fh : int) : string option =
  (* the fops global initializes lazily on first touch; each engine
     runs its own initializer form (compiled plan vs AST walk), which
     produce identical objects in identical order *)
  let fops =
    if run.use_jit then Jit.get_global_h (Lazy.force run.machine.jit) run.st oh ops
    else Interp.get_global_h run.st oh ops
  in
  match fops with
  | Some v -> (
      match Value.view v with
      | Value.Ptr o -> (
          match Value.view (Interp.get_field_h ~fn:"__dispatch" o fh field) with
          | Value.Fn name -> Some name
          | _ -> None)
      | _ -> None)
  | None -> None

let call_handler run ~ops ~oh field fh args ~(default : int64) : int64 =
  match handler run ~ops ~oh field fh with
  | None -> default
  | Some fname ->
      Value.to_int
        (if run.use_jit then Jit.call (Lazy.force run.machine.jit) run.st fname args
         else Interp.call run.st fname args)

(* The fd number an argument names, or -1: a failed call's result, a
   [P_result] out of range and a non-integer name none. An integer is
   taken modulo 2^63, as [Int64.to_int] does. *)
let fd_number (retvals : int64 array) (a : parg) : int =
  match a with
  | P_result i when i >= 0 && i < Array.length retvals ->
      let v = retvals.(i) in
      if Int64.compare v 0L >= 0 then Int64.to_int v else -1
  | P_int v -> Int64.to_int v
  | P_str _ | P_data _ | P_null | P_result _ -> -1

let fd_entry run fd = if fd >= 0 && fd < Array.length run.fds then run.fds.(fd) else None

let resolve_fd run (retvals : int64 array) (a : parg) : fd_entry option =
  fd_entry run (fd_number retvals a)

let arg_value (a : parg) (retvals : int64 array) : Value.value =
  match a with
  | P_int v -> Value.vint v
  | P_str s -> Value.vstr s
  | P_data uv -> Value.vuptr uv
  | P_null -> Value.vzero
  | P_result i ->
      if i >= 0 && i < Array.length retvals then Value.vint retvals.(i)
      else Value.vint (-1L)

let nth_arg args i = match List.nth_opt args i with Some a -> a | None -> P_null

let new_fd run entry =
  let fd = run.next_fd in
  run.next_fd <- fd + 1;
  let n = Array.length run.fds in
  if fd >= n then begin
    let grown = Array.make (max 8 (2 * fd)) None in
    Array.blit run.fds 0 grown 0 n;
    run.fds <- grown
  end;
  run.fds.(fd) <- Some entry;
  Int64.of_int fd

(* Per-syscall handlers. Each takes the raw call so shared handlers
   (openat/open, read/write, ...) can branch on the name. *)

let get args i = nth_arg args i

let val_of args retvals i = arg_value (nth_arg args i) retvals

let int_of args retvals i = Value.to_int (val_of args retvals i)

let op_open (run : run) (retvals : int64 array) (c : call) : int64 =
  let st = run.st in
  let fn = "__syscall" in
  let args = c.c_args in
  let path = match get args 1 with P_str s -> s | _ -> "" in
  let path =
    if c.c_name = "open" then (match get args 0 with P_str s -> s | _ -> path) else path
  in
  ignore retvals;
  match find_device run.machine path with
  | None -> errno 2 (* ENOENT *)
  | Some dev ->
      let file = Interp.typed_obj st ~fn "file" in
      let inode = Interp.typed_obj st ~fn "inode" in
      let r =
        call_handler run ~ops:dev.dev_fops ~oh:(Value.Stbl.hash dev.dev_fops) f_open h_open
          [ Value.vptr inode; Value.vptr file ]
          ~default:0L
      in
      if Int64.compare r 0L < 0 then r
      else
        new_fd run
          {
            fd_file = file;
            fd_inode = inode;
            fd_ops = dev.dev_fops;
            fd_ops_h = Value.Stbl.hash dev.dev_fops;
            fd_is_socket = false;
          }

let op_socket (run : run) (retvals : int64 array) (c : call) : int64 =
  let st = run.st in
  let fn = "__syscall" in
  let args = c.c_args in
  let domain = Int64.to_int (int_of args retvals 0) in
  let styp = Int64.to_int (int_of args retvals 1) in
  let proto = Int64.to_int (int_of args retvals 2) in
  match find_socket run.machine ~domain ~typ:styp ~proto with
  | None -> errno 97 (* EAFNOSUPPORT *)
  | Some reg ->
      let sock = Interp.typed_obj st ~fn "socket" in
      Interp.set_field ~fn sock "sk_type" (Value.vint (Int64.of_int styp));
      let inode = Interp.typed_obj st ~fn "inode" in
      new_fd run
        {
          fd_file = sock;
          fd_inode = inode;
          fd_ops = reg.sock_ops;
          fd_ops_h = Value.Stbl.hash reg.sock_ops;
          fd_is_socket = true;
        }

let op_close (run : run) (retvals : int64 array) (c : call) : int64 =
  let fd = fd_number retvals (get c.c_args 0) in
  match fd_entry run fd with
  | None -> errno 9
  | Some e ->
      run.fds.(fd) <- None;
      if e.fd_is_socket then
        call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h f_release h_release
          [ Value.vptr e.fd_file ] ~default:0L
      else
        call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h f_release h_release
          [ Value.vptr e.fd_inode; Value.vptr e.fd_file ]
          ~default:0L

let op_ioctl (run : run) (retvals : int64 array) (c : call) : int64 =
  let args = c.c_args in
  match resolve_fd run retvals (get args 0) with
  | None -> errno 9
  | Some e ->
      let cmd = int_of args retvals 1 in
      let argv = val_of args retvals 2 in
      let field, fh =
        if e.fd_is_socket then (f_ioctl, h_ioctl) else (f_unlocked_ioctl, h_unlocked_ioctl)
      in
      call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h field fh
        [ Value.vptr e.fd_file; Value.vint cmd; argv ]
        ~default:(errno 25 (* ENOTTY *))

let op_rw (run : run) (retvals : int64 array) (c : call) : int64 =
  let args = c.c_args in
  match resolve_fd run retvals (get args 0) with
  | None -> errno 9
  | Some e ->
      call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h c.c_name (Value.Stbl.hash c.c_name)
        [ Value.vptr e.fd_file; val_of args retvals 1; val_of args retvals 2; Value.vzero ]
        ~default:(errno 22)

let op_poll (run : run) (retvals : int64 array) (c : call) : int64 =
  match resolve_fd run retvals (get c.c_args 0) with
  | None -> errno 9
  | Some e ->
      if e.fd_is_socket then
        call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h f_poll h_poll
          [ Value.vzero; Value.vptr e.fd_file; Value.vzero ]
          ~default:0L
      else
        call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h f_poll h_poll
          [ Value.vptr e.fd_file; Value.vzero ] ~default:0L

let op_mmap (run : run) (retvals : int64 array) (c : call) : int64 =
  let args = c.c_args in
  match resolve_fd run retvals (get args 0) with
  | None -> errno 9
  | Some e ->
      call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h f_mmap h_mmap
        [ Value.vptr e.fd_file; val_of args retvals 1 ]
        ~default:(errno 19)

let op_sock_generic (run : run) (retvals : int64 array) (c : call) : int64 =
  let args = c.c_args in
  match resolve_fd run retvals (get args 0) with
  | None -> errno 9
  | Some e when e.fd_is_socket ->
      (* the kernel copies the sockaddr before invoking the handler:
         a NULL user pointer faults at the boundary *)
      if c.c_name = "bind" && Value.is_zero (val_of args retvals 1) then errno 14
      else
        let rest =
          match c.c_name with
          | "bind" -> [ val_of args retvals 1; val_of args retvals 2 ]
          | "listen" | "shutdown" -> [ val_of args retvals 1 ]
          | _ -> []
        in
        call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h c.c_name (Value.Stbl.hash c.c_name)
          (Value.vptr e.fd_file :: rest)
          ~default:(errno 95)
  | Some _ -> errno 88 (* ENOTSOCK *)

let op_connect (run : run) (retvals : int64 array) (c : call) : int64 =
  let args = c.c_args in
  match resolve_fd run retvals (get args 0) with
  | None -> errno 9
  | Some e when e.fd_is_socket ->
      if Value.is_zero (val_of args retvals 1) then errno 14
      else
        call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h f_connect h_connect
          [ Value.vptr e.fd_file; val_of args retvals 1; val_of args retvals 2; Value.vzero ]
          ~default:(errno 95)
  | Some _ -> errno 88

let op_accept (run : run) (retvals : int64 array) (c : call) : int64 =
  let st = run.st in
  let fn = "__syscall" in
  match resolve_fd run retvals (get c.c_args 0) with
  | None -> errno 9
  | Some e when e.fd_is_socket ->
      let newsock = Interp.typed_obj st ~fn "socket" in
      let r =
        call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h f_accept h_accept
          [ Value.vptr e.fd_file; Value.vptr newsock; Value.vzero ]
          ~default:(errno 95)
      in
      if Int64.compare r 0L < 0 then r
      else
        new_fd run
          {
            fd_file = newsock;
            fd_inode = Interp.typed_obj st ~fn "inode";
            fd_ops = e.fd_ops;
            fd_ops_h = e.fd_ops_h;
            fd_is_socket = true;
          }
  | Some _ -> errno 88

let op_sockopt (run : run) (retvals : int64 array) (c : call) : int64 =
  let args = c.c_args in
  match resolve_fd run retvals (get args 0) with
  | None -> errno 9
  | Some e when e.fd_is_socket ->
      call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h c.c_name (Value.Stbl.hash c.c_name)
        [
          Value.vptr e.fd_file;
          val_of args retvals 1;
          val_of args retvals 2;
          val_of args retvals 3;
          val_of args retvals 4;
        ]
        ~default:(errno 92 (* ENOPROTOOPT *))
  | Some _ -> errno 88

let op_sendrecvmsg (run : run) (retvals : int64 array) (c : call) : int64 =
  let st = run.st in
  let fn = "__syscall" in
  let args = c.c_args in
  match resolve_fd run retvals (get args 0) with
  | None -> errno 9
  | Some e when e.fd_is_socket ->
      let msg = Interp.typed_obj st ~fn "msghdr" in
      (match Value.view (val_of args retvals 1) with
      | Value.Uptr uv -> Interp.materialize_into st ~fn msg uv
      | _ -> ());
      let extra =
        if c.c_name = "recvmsg" then
          [ int_of args retvals 2; Value.to_int (val_of args retvals 3) ]
        else [ int_of args retvals 2 ]
      in
      call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h c.c_name (Value.Stbl.hash c.c_name)
        (Value.vptr e.fd_file :: Value.vptr msg :: List.map Value.vint extra)
        ~default:(errno 95)
  | Some _ -> errno 88

let op_sendto (run : run) (retvals : int64 array) (c : call) : int64 =
  (* sendto(fd, buf, len, flags, addr, addrlen) is lowered onto the
     module's sendmsg/recvmsg handler via a synthesized msghdr *)
  let st = run.st in
  let fn = "__syscall" in
  let args = c.c_args in
  match resolve_fd run retvals (get args 0) with
  | None -> errno 9
  | Some e when e.fd_is_socket ->
      let msg = Interp.typed_obj st ~fn "msghdr" in
      Interp.set_field ~fn msg "msg_iov" (val_of args retvals 1);
      Interp.set_field ~fn msg "msg_name" (val_of args retvals 4);
      Interp.set_field ~fn msg "msg_namelen" (Value.vint (int_of args retvals 5));
      let field, fh =
        if c.c_name = "sendto" then (f_sendmsg, h_sendmsg) else (f_recvmsg, h_recvmsg)
      in
      let extra =
        if field == f_recvmsg then [ int_of args retvals 2; int_of args retvals 3 ]
        else [ int_of args retvals 2 ]
      in
      call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h field fh
        (Value.vptr e.fd_file :: Value.vptr msg :: List.map Value.vint extra)
        ~default:(errno 95)
  | Some _ -> errno 88

(** Execute one syscall. Returns the syscall return value; crashes
    propagate as {!Crash.Crash}. *)
let exec_call (run : run) (retvals : int64 array) (c : call) : int64 =
  match c.c_name with
  | "openat" | "open" -> op_open run retvals c
  | "socket" -> op_socket run retvals c
  | "close" -> op_close run retvals c
  | "ioctl" -> op_ioctl run retvals c
  | "read" | "write" -> op_rw run retvals c
  | "poll" -> op_poll run retvals c
  | "mmap" -> op_mmap run retvals c
  | "bind" | "listen" | "shutdown" -> op_sock_generic run retvals c
  | "connect" -> op_connect run retvals c
  | "accept" -> op_accept run retvals c
  | "setsockopt" | "getsockopt" -> op_sockopt run retvals c
  | "sendmsg" | "recvmsg" -> op_sendrecvmsg run retvals c
  | "sendto" | "recvfrom" -> op_sendto run retvals c
  | _ -> errno 38 (* ENOSYS *)

(** Execute a whole program against a fresh kernel state. *)
let exec_prog_core ~(step_budget : int) ~(engine : engine) ~(sink : cov_sink option)
    (t : t) (prog : prog) : exec_result =
  let on_cover = match sink with Some sk -> Some sk.cs_hook | None -> None in
  let st =
    Interp.create ~index:t.index ~layouts:t.layouts ~frames:t.frames ~step_budget
      ?on_cover ()
  in
  let run = { machine = t; st; fds = [||]; next_fd = 3; use_jit = engine = `Jit } in
  st.Interp.spawn_fd <-
    Some
      (fun ops_global ->
        let file = Interp.typed_obj st ~fn:"anon_inode" "file" in
        let inode = Interp.typed_obj st ~fn:"anon_inode" "inode" in
        new_fd run
          {
            fd_file = file;
            fd_inode = inode;
            fd_ops = ops_global;
            fd_ops_h = Value.Stbl.hash ops_global;
            fd_is_socket = false;
          });
  let n = List.length prog in
  let retvals = Array.make n (-1L) in
  let crash = ref None in
  let timed_out = ref false in
  let rec go i = function
    | [] -> ()
    | c :: rest -> (
        (* an error raised in a nested frame skips the frames' depth
           decrements; the next call starts at the depth this one did *)
        let depth = st.Interp.depth in
        match exec_call run retvals c with
        | r ->
            retvals.(i) <- r;
            go (i + 1) rest
        | exception Crash.Crash cr ->
            crash := Some { cr_title = Crash.title cr; cr_call = i }
        | exception Interp.Exec_timeout ->
            retvals.(i) <- errno 4 (* EINTR: stuck call *);
            timed_out := true
        | exception Interp.Exec_error _ ->
            st.Interp.depth <- depth;
            retvals.(i) <- errno 22;
            go (i + 1) rest)
  in
  go 0 prog;
  (* process exit: close remaining fds (release handlers may crash too).
     A timed-out program left st.steps at the budget, so every release
     would re-raise Exec_timeout on its first step and get swallowed —
     grant the exit path a small fresh budget so releases actually run
     (the kernel's exit path is not subject to the caller's quantum). *)
  let release_headroom = 10_000 in
  if st.Interp.steps > st.Interp.step_budget - release_headroom then
    st.Interp.steps <- max 0 (st.Interp.step_budget - release_headroom);
  if !crash = None then begin
    (* ascending fd order; an fd a release handler opens stays open *)
    (try
       for fd = 0 to run.next_fd - 1 do
         match fd_entry run fd with
         | None -> ()
         | Some e ->
             run.fds.(fd) <- None;
             if e.fd_is_socket then
               ignore
                 (call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h f_release h_release
                    [ Value.vptr e.fd_file ] ~default:0L)
             else
               ignore
                 (call_handler run ~ops:e.fd_ops ~oh:e.fd_ops_h f_release h_release
                    [ Value.vptr e.fd_inode; Value.vptr e.fd_file ]
                    ~default:0L)
       done
     with
    | Crash.Crash cr -> crash := Some { cr_title = Crash.title cr; cr_call = n - 1 }
    | Interp.Exec_timeout ->
        timed_out := true
    | Interp.Exec_error _ -> ())
  end;
  (* kmemleak scan over what is still reachable. Skipped when the
     program (or its exit path) timed out: an interrupted program never
     got to run its release handlers to completion, so "leaks" found
     here are an artifact of the exhausted budget, not bugs. *)
  if !crash = None && not !timed_out then begin
    let roots =
      Array.fold_left
        (fun acc -> function
          | Some e -> Value.vptr e.fd_file :: Value.vptr e.fd_inode :: acc
          | None -> acc)
        [] run.fds
    in
    match Interp.leaked_objects st ~roots with
    | [] -> ()
    | site :: _ ->
        crash :=
          Some { cr_title = Crash.title { Crash.kind = Crash.Memory_leak; fn = site }; cr_call = n - 1 }
  end;
  let coverage =
    match sink with
    | Some _ -> [] (* the sink holds it; don't rebuild a list per exec *)
    | None -> Hashtbl.fold (fun sid () acc -> sid :: acc) st.Interp.coverage []
  in
  { retvals; crash = !crash; coverage; timed_out = !timed_out }

let exec_prog ?(step_budget = 200_000) ?(engine : engine = `Jit) (t : t) (prog : prog) :
    exec_result =
  exec_prog_core ~step_budget ~engine ~sink:None t prog

(** Like {!exec_prog}, but coverage lands in [sink] (bitmap + touched
    list) instead of the result's [coverage] list, which comes back
    empty. The caller reads the sink and {!sink_reset}s it before the
    next execution. *)
let exec_prog_sink ?(step_budget = 200_000) ?(engine : engine = `Jit) ~(sink : cov_sink)
    (t : t) (prog : prog) : exec_result =
  exec_prog_core ~step_budget ~engine ~sink:(Some sink) t prog
