(** Durable campaign checkpoints: the syz-manager corpus database.

    A checkpoint freezes the {e complete} campaign state — splitmix64
    RNG word, execution counter, coverage set, corpus ring, crash table
    (shortest reproducer per title, with each title's first-sighting
    execution counter), eviction count, scheduler statistics (per-slot
    visit/reward, per-operator credit, totals, mode), and supervisor
    health/accounting — so a
    killed run resumed from its last checkpoint produces byte-identical
    final output to a run that was never interrupted.

    {b File format} (version {!version}): an {!Obs.Record_file} (header,
    one JSON record per line, checksum trailer, written by tmp+rename;
    int64 payloads such as the RNG word and syscall arguments are
    decimal strings). The records after the header —
    {v
    {"spec":"dm","seed":3,"budget":3000,"step_budget":50000,"max_corpus":512,
     "instances":4,"wedge_threshold":3,"exec_fault_rate":0,"exec_fault_seed":0,
     "sched":"ucb"}
    {"rng":"-123...","executions":1500,"evictions":0,
     "working_str":"vol0","reboots":0,"lost":0,"injected":0,"timeouts":0,
     "health":[0,0,0,0],"op_uses":[12,3,...],"op_reward":[2,0,...],
     "seed_total":40,"op_total":40}
    {"coverage":[3,17,...]}            // sorted statement ids
    {"corpus":[{"name":"ioctl","args":[...]},...],
     "visits":4,"reward":1}            // one line per ring slot
    {"crash":"kmalloc bug in ctl_ioctl","prog":[...],
     "seen":812}                       // one line per title
    v}
    The header is [{"format":"kernelgpt-checkpoint","version":2}]; it
    and the parameter, state and coverage records are required. *)

val version : int

(** Complete campaign state as plain data. *)
type snapshot = {
  spec_name : string;
  seed : int;
  budget : int;
  step_budget : int;
  max_corpus : int;
  supervisor : Supervisor.config;
  sched : Schedule.mode;
  rng_state : int64;
  executions : int;
  evictions : int;
  working_str : string option;
      (** the generator's cross-program working string ([Proggen.cur_str]):
          [generate] resets it but [mutate] reads what the previous
          program left, and its presence steers an RNG draw — resume
          diverges without it *)
  coverage : int list;  (** sorted statement ids *)
  corpus : (Vkernel.Machine.prog * int * int) list;
      (** ring slots 0..n-1 in order, each with its scheduler
          (visits, reward) statistics *)
  crashes : (string * Vkernel.Machine.prog * int) list;
      (** sorted by title; the [int] is the execution counter at the
          title's first sighting *)
  op_stats : (int * int) list;
      (** per mutation operator, in {!Mutator.all} index order:
          (uses, reward) *)
  sched_totals : int * int;  (** seed_total, op_total — monotone *)
  sup_health : int list;
  sup_counters : int * int * int * int;  (** reboots, lost, injected, timeouts *)
}

(** Serialize atomically ({!Obs.Record_file.save}). Raises [Sys_error]
    on I/O failure. *)
val save : string -> snapshot -> unit

(** Parse and verify a checkpoint. Errors are descriptive: the framing
    errors of {!Obs.Record_file.load} (truncation, corruption, an
    unsupported version), a missing required record, a malformed record
    — each names the file and, where meaningful, the line. *)
val load : string -> (snapshot, string) result
