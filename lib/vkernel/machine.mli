(** The virtual kernel machine: boots corpus modules, dispatches
    syscalls, executes whole programs and reports coverage and crashes.

    This is the stand-in for the paper's QEMU/KCOV fuzzing target.
    Device paths and socket triples come from the registry's ground
    truth (the moral equivalent of booting the modules); everything else
    runs from the same mini-C sources the analyses read, through either
    the tree-walking {!Interp} or the closure-compiled {!Jit} executor
    (the default — both are exact mirrors). Syscall names resolve
    through a jump table rather than a per-call string match. *)

(** One syscall argument as the fuzzer passes it. *)
type parg =
  | P_int of int64
  | P_str of string
  | P_data of Value.uval  (** a user pointer carrying generated data *)
  | P_null
  | P_result of int  (** the file descriptor returned by call #i *)

type call = { c_name : string; c_args : parg list }

type prog = call list

type crash_report = { cr_title : string; cr_call : int }

type exec_result = {
  retvals : int64 array;
  crash : crash_report option;
  coverage : int list;  (** statement ids executed *)
  timed_out : bool;
      (** a call (or exit-path release) exhausted the step budget; the
          kmemleak scan is skipped for such runs, since "leaks" of an
          interrupted program are an artifact of the budget *)
}

type device = { dev_module : string; dev_fops : string }

type socket_reg = { sock_module : string; sock_ops : string }

type t = {
  index : Csrc.Index.t;
  devices : (string, device) Hashtbl.t;
      (** device path -> device; the first registration of a path wins *)
  sockets : (int, ((int * int * int) * socket_reg) list) Hashtbl.t;
      (** socket domain -> that domain's (domain, type, protocol)
          registrations, in boot order *)
  sid_module : (int, string) Hashtbl.t;
  modules : string list;
  jit : Jit.t Lazy.t;
      (** closure-compiled function bodies and global-initializer plans;
          forced by campaign init (or on first execution) so boots that
          never execute programs pay nothing *)
  layouts : Interp.layout Value.Stbl.t;
      (** composite layout plans shared by every per-execution state *)
  frames : Value.Pool.t;
      (** free-list pool for call frames (jit slot arrays), shared by
          every per-execution state like [layouts] *)
  n_sids : int;  (** statement-id count, sizes coverage bitmaps *)
}

(** Boot the machine over the given corpus entries: parse all module
    sources into one definition index, together with the shared header's
    AST ({!Corpus.Headers.header}), with
    globally unique statement ids, and register devices and sockets. *)
val boot : Corpus.Types.entry list -> t

(** Which module a covered statement belongs to. *)
val module_of_sid : t -> int -> string option

(** The device an [openat] of this path opens: one hash probe. *)
val find_device : t -> string -> device option

(** The registration a [socket(domain, typ, proto)] call binds to, by the
    most specific rule that matches: the exact triple, then
    [(domain, typ, 0)], then (when [proto <> 0]) the first registration
    of the domain with that protocol, then the domain's first
    registration. [None] is [EAFNOSUPPORT]. *)
val find_socket : t -> domain:int -> typ:int -> proto:int -> socket_reg option

(** Which executor runs handler bodies. Both are exact semantic mirrors
    — identical coverage, crashes, and return values; [`Jit] (the
    default) compiles each function body to closures once per machine
    instead of re-walking the AST per execution. *)
type engine = [ `Jit | `Interp ]

(** Reusable per-campaign coverage collector: a bitmap over statement
    ids plus the list of sids touched by the current execution
    ([cs_buf.(0 .. cs_n-1)]). Recording allocates nothing once warm. *)
type cov_sink = {
  mutable cs_bits : Bytes.t;
  mutable cs_buf : int array;
  mutable cs_n : int;
  mutable cs_hook : int -> unit;
      (** [sink_record] on this sink, built once by {!new_sink} *)
}

val new_sink : t -> cov_sink

(** Clear the touched bits and rewind the buffer for the next run. *)
val sink_reset : cov_sink -> unit

(** Execute a program against a fresh kernel state: run each call, close
    remaining file descriptors at exit (release handlers may crash), and
    run the kmemleak-style reachability scan. Deterministic. *)
val exec_prog : ?step_budget:int -> ?engine:engine -> t -> prog -> exec_result

(** Like {!exec_prog}, but statement coverage lands in [sink] instead of
    the result's [coverage] list (which comes back empty): the campaign
    hot loop reads [sink.cs_buf] and {!sink_reset}s it, touching no
    per-execution allocations. *)
val exec_prog_sink :
  ?step_budget:int -> ?engine:engine -> sink:cov_sink -> t -> prog -> exec_result
