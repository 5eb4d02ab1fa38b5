(** Fault-isolating self-scheduling pool on OCaml 5 [Domain]s.

    The report runner uses this to shard independent experiment tasks
    (driver/socket campaigns, seed repetitions, ablation cells) across
    cores. Results come back as an array in task-submission order, so
    callers can merge them deterministically: a run with [jobs] > 1 must
    produce byte-identical tables to the sequential run.

    Scheduling is one shared task counter: every worker takes the next
    task index from it and runs that task's attempts itself until the
    counter passes the last task. Failure is isolated per task: an
    attempt that raises is retried on the same worker a bounded number
    of times, a task that exhausts its retry budget is {e quarantined}
    — reported as a {!Failed} outcome instead of killing the run — and
    a worker domain whose [init] raises dies alone, degrading the pool
    to the survivors, which take every remaining task.

    Workers share nothing: any mutable state a task needs (an
    [Oracle.t], a [Vkernel.Machine.t]) must be built by the worker
    itself via [init]. Per-attempt wall-clock timings are accumulated in
    a global, mutex-protected log for the end-of-run speedup report.

    {b Determinism contract.} Task outcomes depend only on the task
    function and the fault plan, never on scheduling: with faults off,
    stdout of any caller is byte-identical for any [jobs]; with a fault
    plan, injected faults are a pure hash of [(seed, label, attempt)],
    so outcomes (and every count derived from them: injections, retries,
    stalls, quarantines) are identical for any [jobs] and across resumed
    runs. The exception is {!summary.s_worker_deaths}, which depends on
    how many workers ran — it is reported on [stderr]/metrics only,
    never on stdout. Labels must be unique within
    a run for the fault plan to be well-defined; every caller's labels
    (and the ["task-<i>"] default) are. *)

(** Number of cores the runtime recommends using ([--jobs 0] resolves to
    this). *)
val cpu_count : unit -> int

(** Deterministic, seeded worker-fault injection — the pool twin of
    [--faults] (oracle transport) and [--exec-faults] (executor wedges).
    A plan fires on a pure hash of [(seed, label, attempt)]: the same
    RATE:SEED reproduces the same task crashes and stalls for any
    [jobs] value and across [--resume]. *)
module Faults : sig
  type plan = { rate_pct : int; seed : int }

  val default_seed : int
  val make : ?seed:int -> rate_pct:int -> unit -> plan

  (** Parse ["RATE"] or ["RATE:SEED"] (rate 0-100). *)
  val parse_spec : string -> (plan, string) result

  val spec_to_string : plan -> string

  type kind =
    | Crash  (** the attempt raises {!Injected_fault} instead of running *)
    | Stall
        (** the attempt runs normally; its timing entry is marked
            stalled and it counts in {!summary.s_stalls} *)

  (** Pure decision for one attempt of the task named [label]; [None]
      when the attempt proceeds unharmed. Crashes outnumber stalls 3:1. *)
  val decide : plan -> label:string -> attempt:int -> kind option
end

(** Raised (and caught by the retry machinery) in place of a task
    attempt the fault plan crashed; carries the task label. *)
exception Injected_fault of string

(** Process-wide fault plan read by every pool run — how the
    [--pool-faults] CLI flag reaches the pool. [None] (the initial
    state) disables injection. *)
val set_faults : Faults.plan option -> unit

(** Attempts per task = [default_retries + 1]. *)
val default_retries : int

type failure = {
  f_exn : exn;  (** the last attempt's exception *)
  f_backtrace : Printexc.raw_backtrace;
  f_attempts : int;  (** attempts consumed (0 if the task never ran) *)
}

(** What one task produced. [Failed] means quarantined: every attempt
    raised (or no surviving worker could run it). *)
type 'a outcome = Ok of 'a | Failed of failure

type timing = {
  tm_label : string;  (** task label, e.g. ["table5:dm:kgpt:rep2"] *)
  tm_worker : int;  (** index of the worker domain that ran it *)
  tm_seconds : float;  (** attempt wall-clock *)
  tm_attempt : int;  (** 0 for the first attempt *)
  tm_ok : bool;  (** whether this attempt succeeded *)
  tm_stalled : bool;  (** the fault plan stalled this attempt *)
}

type summary = {
  s_tasks : int;  (** tasks submitted since the last [reset_stats] *)
  s_workers : int;  (** largest pool size used *)
  s_wall_seconds : float;  (** wall-clock spent inside pool runs *)
  s_busy_seconds : float;
      (** sum of per-attempt wall-clocks, failed attempts included *)
  s_retries : int;  (** failed attempts that were retried *)
  s_quarantined : int;  (** tasks that exhausted their retry budget *)
  s_worker_deaths : int;  (** workers whose [init] raised (stderr-only) *)
  s_faults_injected : int;  (** injected crashes + stalls *)
  s_stalls : int;  (** injected stalls among them *)
}

(** [map_outcomes ~jobs ~init ~f items] runs every task to a per-task
    {!outcome}, in input order. Each worker first builds private state
    with [init]; every attempt it executes receives that state. A task
    whose attempt raises is retried on the same worker up to
    {!default_retries} more times; a task that exhausts the budget comes
    back as [Failed] with the last exception, backtrace, and attempt
    count. When every worker's [init] raises, every task comes back
    [Failed] with the lowest-index worker's exception and
    [f_attempts = 0]. [jobs <= 1] runs sequentially in the calling
    domain (no domain is spawned); the retry/quarantine/fault machinery
    behaves identically, so outcomes match any parallel run. *)
val map_outcomes :
  ?jobs:int ->
  ?label:(int -> 'a -> string) ->
  init:(unit -> 'w) ->
  f:('w -> 'a -> 'b) ->
  'a array ->
  'b outcome array

(** Clear the global timing log and resilience counters. *)
val reset_stats : unit -> unit

(** Aggregate of every pool run since the last [reset_stats]. *)
val stats : unit -> summary

(** Per-attempt timings recorded since the last [reset_stats], slowest
    first. *)
val timings : unit -> timing list

(** Print the run summary (tasks, workers, busy vs wall time, speedup,
    and — when any occurred — injected faults, retries, quarantines and
    worker deaths) and, with [per_task], every per-attempt wall-clock.
    The runner sends this to [stderr] so table output on [stdout] stays
    byte-identical to a sequential run. *)
val report : ?per_task:bool -> out_channel -> unit
