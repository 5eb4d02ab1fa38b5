(** Coverage-guided fuzzing campaigns (the Syzkaller loop).

    A fixed execution budget stands in for the paper's wall-clock
    sessions; crashes deduplicate by title, giving the "unique crashes"
    metric of Tables 3/5/6.

    The loop is an explicit, resumable state machine: {!init} builds the
    campaign state, {!step} executes one program, {!snapshot} freezes
    the complete state as plain data (for {!Checkpoint.save}), and
    {!of_snapshot} rebuilds it — the continuation of a restored campaign
    is byte-identical to never having stopped, because everything the
    loop consults (RNG word, counters, coverage, corpus ring, crash
    table, supervisor health) round-trips through the snapshot. {!run}
    drives the machine to completion and behaves exactly as it always
    has. *)

type result = {
  executions : int;
  coverage : (int, unit) Hashtbl.t;  (** statements reached, by id *)
  crashes : (string, Vkernel.Machine.prog) Hashtbl.t;  (** title → reproducer *)
  corpus_size : int;
  corpus_evictions : int;  (** fresh programs that displaced a ring entry *)
  exec_restarts : int;  (** executor instances the supervisor rebooted *)
  exec_lost : int;  (** executions lost to injected executor wedges *)
  step_budget : int;
      (** the per-program step budget the campaign ran with — thread it
          to {!Repro.minimize} so minimization reproduces under the same
          budget the crash was found with *)
  first_crash_exec : int option;
      (** execution counter at the first crash (any title) *)
  first_crash_execs : (string * int) list;
      (** execution counter at each title's first sighting, sorted by
          title — the per-injected-bug time-to-first-crash metric of
          the scheduling ablation *)
}

val total_coverage : result -> int

(** Coverage restricted to statements of one module. *)
val module_coverage : Vkernel.Machine.t -> result -> string -> int

val crash_titles : result -> string list

(** Live campaign state. *)
type t

(** Build the campaign state: resolve the spec, seed the RNG, size the
    corpus ring (default 512), create the {!Supervisor} (default: 4
    instances, wedge threshold 3, no injected faults). A campaign
    generates by walking the suite's {!Compiled} plans, executes through
    the machine's {!Vkernel.Jit} closures, and collects coverage in a
    reusable sink. Each domain keeps the last suite it resolved and
    prepared, keyed by the physical identity of [machine] and the spec,
    so consecutive campaigns of one suite on one machine prepare it
    once; each campaign still gets its own generator scratch. [sched] selects
    corpus/operator scheduling (default {!Schedule.Uniform}, the
    historical draw-per-pick behavior; {!Schedule.Ucb} schedules by
    UCB1 over checkpointed statistics and consumes no RNG words on
    picks). *)
val init :
  ?seed:int ->
  ?budget:int ->
  ?step_budget:int ->
  ?max_corpus:int ->
  ?supervisor:Supervisor.config ->
  ?sched:Schedule.mode ->
  machine:Vkernel.Machine.t ->
  Syzlang.Ast.spec ->
  t

(** Execute one program (generate or mutate, run under the supervisor,
    record coverage/crash/corpus). False once the budget is spent or the
    spec has no reachable syscalls. *)
val step : t -> bool

val executions : t -> int

(** The campaign result so far (complete once {!step} returns false). *)
val result : t -> result

val supervisor_stats : t -> Supervisor.stats

(** Freeze the complete campaign state as checkpoint data. Deterministic
    (coverage and crash titles are sorted), so equal states serialize
    equally. *)
val snapshot : t -> Checkpoint.snapshot

(** Rebuild a campaign from a snapshot over the given machine and spec
    (the scheduling mode is campaign state and comes from the snapshot).
    Fails descriptively when the snapshot belongs to a different spec,
    exceeds its own budget, covers a statement id outside the machine's
    [n_sids], carries inconsistent supervisor state, or records a
    different operator-ensemble size than this build. *)
val of_snapshot :
  machine:Vkernel.Machine.t ->
  Syzlang.Ast.spec ->
  Checkpoint.snapshot ->
  (t, string) Stdlib.result

(** Drive the state machine until the budget is spent ([`Completed]) or
    [stop_after] total executions are reached ([`Stopped] — the
    graceful-kill point of a checkpointed run; stopping at or past the
    budget is just completion). [on_checkpoint] fires after every
    [checkpoint_every] executions (0 = never) and once at a stop. Spans,
    trace events, and metrics are exactly those of the historical
    in-memory loop. *)
val drive :
  ?checkpoint_every:int ->
  ?on_checkpoint:(t -> unit) ->
  ?stop_after:int ->
  t ->
  [ `Completed | `Stopped ]

(** Run a campaign of [budget] program executions with the given
    specification suite. Deterministic in [seed]. Once the corpus ring
    (size [max_corpus], default 512) fills, fresh-coverage programs evict
    a seeded-random entry instead of being dropped; the eviction draw
    only happens on the saturated path, so unsaturated runs keep the
    historical RNG sequence. [supervisor] configures executor
    supervision and fault injection; the default injects nothing and
    leaves results untouched. *)
val run :
  ?seed:int ->
  ?budget:int ->
  ?step_budget:int ->
  ?max_corpus:int ->
  ?supervisor:Supervisor.config ->
  ?sched:Schedule.mode ->
  machine:Vkernel.Machine.t ->
  Syzlang.Ast.spec ->
  result
