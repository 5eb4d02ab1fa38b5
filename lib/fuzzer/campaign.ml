(** Coverage-guided fuzzing campaign (the Syzkaller loop).

    A fixed execution budget stands in for the paper's wall-clock
    sessions (24h × 8 cores in Table 3, 6h in Tables 5/6). Programs that
    reach new statements join the corpus and get mutated; crashes are
    deduplicated by title, the paper's "unique crashes" metric.

    The loop is an explicit state machine ({!init} / {!step} /
    {!snapshot} / {!of_snapshot}) so a long campaign can be frozen to a
    {!Checkpoint} file and resumed after a kill: everything the loop
    reads — RNG word, execution counter, coverage set, corpus ring,
    crash table, eviction count, supervisor health — lives in {!t} and
    round-trips through the snapshot, which is what makes a resumed run
    byte-identical to an uninterrupted one. {!run} drives the machine to
    completion and is byte-for-byte the historical campaign. *)

type result = {
  executions : int;
  coverage : (int, unit) Hashtbl.t;  (** all statements reached *)
  crashes : (string, Vkernel.Machine.prog) Hashtbl.t;  (** title -> reproducer *)
  corpus_size : int;
  corpus_evictions : int;  (** fresh programs that displaced a ring entry *)
  exec_restarts : int;  (** executor instances rebooted by the supervisor *)
  exec_lost : int;  (** executions lost to injected executor wedges *)
  step_budget : int;  (** per-program budget, threaded to repro minimization *)
  first_crash_exec : int option;
      (** execution counter at the first crash (any title) *)
  first_crash_execs : (string * int) list;
      (** title -> execution counter at that title's first sighting,
          sorted by title — the per-injected-bug time-to-first-crash
          metric of the scheduling ablation *)
}

let total_coverage res = Hashtbl.length res.coverage

(** Coverage restricted to one module. *)
let module_coverage (machine : Vkernel.Machine.t) res (modname : string) : int =
  Hashtbl.fold
    (fun sid () acc ->
      match Vkernel.Machine.module_of_sid machine sid with
      | Some m when m = modname -> acc + 1
      | _ -> acc)
    res.coverage 0

let crash_titles res =
  Hashtbl.fold (fun t _ acc -> t :: acc) res.crashes [] |> List.sort String.compare

let max_corpus = 512

type t = {
  machine : Vkernel.Machine.t;
  gen : Proggen.t;
  sink : Vkernel.Machine.cov_sink;
  rng : Rng.t;
  sup : Supervisor.t;
  sched : Schedule.t;
  spec_name : string;
  seed : int;
  budget : int;
  t_step_budget : int;
  t_max_corpus : int;
  coverage : (int, unit) Hashtbl.t;
  (* bitmap over statement ids mirroring [coverage]: the per-execution
     fresh-sid check is a bit test instead of a hashtable probe (the
     merge loop runs per covered statement per execution, and almost
     every sid is already seen once coverage plateaus) *)
  cov_bits : Bytes.t;
  crashes : (string, Vkernel.Machine.prog) Hashtbl.t;
  (* pre-sized ring: O(1) insertion instead of Array.append's O(n) copy
     (quadratic over the campaign) *)
  corpus : Vkernel.Machine.prog array;
  (* title -> execution counter at first sighting; the any-crash
     first_crash_exec of the result derives as the minimum *)
  crash_seen : (string, int) Hashtbl.t;
  mutable executions : int;
  mutable corpus_n : int;
  mutable evictions : int;
  (* coverage-growth trace events: eight per campaign, keyed to the
     deterministic execution counter *)
  trace_every : int;
}

let executions t = t.executions

(** Record one covered sid; true when it is new to the campaign. The
    bitmap answers the (overwhelmingly common) already-seen case without
    touching the hashtable, which only grows on first sightings. *)
let cover_sid (t : t) (sid : int) : bool =
  let byte = sid lsr 3 and bit = 1 lsl (sid land 7) in
  let b = Char.code (Bytes.unsafe_get t.cov_bits byte) in
  if b land bit <> 0 then false
  else begin
    Bytes.unsafe_set t.cov_bits byte (Char.unsafe_chr (b lor bit));
    Hashtbl.replace t.coverage sid ();
    true
  end

(* The last suite this domain prepared: consecutive campaigns of one
   suite on one machine (Table 3's reps, Table 4's seeds) resolve,
   prepare and compile it once. The key is physical identity — the
   machine's index is frozen after boot and a spec is immutable, so the
   prepared suite is a pure function of the pair. One slot per domain:
   pool workers never share it, and the slot holds at most one machine
   and suite alive. *)
type prepared = {
  p_machine : Vkernel.Machine.t;
  p_spec : Syzlang.Ast.spec;
  p_gen : Proggen.t;
}

let last_prepared : prepared option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(* A campaign's own generator: the prepared suite's arrays and plans
   are never written after [Proggen.prepare], so they are shared; the
   two per-campaign fields, [latest] and [cur_str], are fresh. *)
let prepared_gen ~(machine : Vkernel.Machine.t) (spec : Syzlang.Ast.spec) : Proggen.t =
  let slot = Domain.DLS.get last_prepared in
  let gen =
    match !slot with
    | Some p when p.p_machine == machine && p.p_spec == spec -> p.p_gen
    | _ ->
        let resolved = Syzlang.Validate.resolve_spec ~kernel:machine.Vkernel.Machine.index spec in
        let gen = Proggen.prepare resolved in
        slot := Some { p_machine = machine; p_spec = spec; p_gen = gen };
        gen
  in
  { gen with latest = Array.make (Array.length gen.Proggen.latest) (-1); cur_str = None }

let init ?(seed = 1) ?(budget = 2000) ?(step_budget = 50_000) ?(max_corpus = max_corpus)
    ?(supervisor = Supervisor.default) ?(sched = Schedule.Uniform)
    ~(machine : Vkernel.Machine.t) (spec : Syzlang.Ast.spec) : t =
  (* pay the whole-index compilation before the first execution, not
     inside it: keeps the first measured exec honest and the lazy cell
     out of the hot path's first touch *)
  ignore (Lazy.force machine.Vkernel.Machine.jit);
  {
    machine;
    gen = prepared_gen ~machine spec;
    sink = Vkernel.Machine.new_sink machine;
    rng = Rng.make seed;
    sup = Supervisor.create supervisor;
    sched = Schedule.create ~mode:sched ~max_corpus ~n_ops:(Array.length Mutator.all);
    spec_name = spec.Syzlang.Ast.spec_name;
    seed;
    budget;
    t_step_budget = step_budget;
    t_max_corpus = max_corpus;
    coverage = Hashtbl.create 4096;
    cov_bits = Bytes.make ((machine.Vkernel.Machine.n_sids lsr 3) + 1) '\000';
    crashes = Hashtbl.create 8;
    crash_seen = Hashtbl.create 8;
    corpus = Array.make max_corpus [];
    executions = 0;
    corpus_n = 0;
    evictions = 0;
    trace_every = max 1 (budget / 8);
  }

(** Execute one program. False once the budget is spent (or the spec has
    no reachable syscalls): the campaign is complete. *)
let step (t : t) : bool =
  if Array.length t.gen.Proggen.syscalls = 0 || t.executions >= t.budget then false
  else begin
    t.executions <- t.executions + 1;
    (* (slot, op) of a scheduled mutation, for crediting its reward *)
    let credit = ref None in
    let prog =
      if t.corpus_n > 0 && Rng.pct t.rng 65 then begin
        let slot = Schedule.pick_seed t.sched t.rng ~n:t.corpus_n in
        let op = Schedule.pick_op t.sched t.rng in
        credit := Some (slot, op);
        if Obs.metrics_on () then
          Obs.Metrics.incr ("fuzz.op." ^ Mutator.name Mutator.all.(op));
        Mutator.apply t.gen t.rng Mutator.all.(op)
          ~partner:(fun () -> t.corpus.(Rng.int t.rng t.corpus_n))
          t.corpus.(slot)
      end
      else Proggen.generate t.gen t.rng ()
    in
    let reward ~fresh =
      match !credit with
      | None -> ()
      | Some (slot, op) ->
          Schedule.record t.sched ~slot ~op ~reward:(if fresh then 1 else 0);
          if fresh && Obs.metrics_on () then
            Obs.Metrics.incr ("fuzz.op." ^ Mutator.name Mutator.all.(op) ^ ".wins")
    in
    if prog <> [] then begin
      let instance = Supervisor.instance_for t.sup ~exec:t.executions in
      if Supervisor.inject t.sup ~exec:t.executions then begin
        (* the executor instance wedged mid-run: the program was
           generated (the RNG advanced exactly as usual) but its results
           are lost, and the supervisor sees one more timeout *)
        ignore (Supervisor.record t.sup ~instance ~timed_out:true ~lost:true);
        (* lost results reach no new coverage: the scheduler learns that
           the pick earned nothing, exactly as on a stale execution *)
        reward ~fresh:false
      end
      else begin
        let res =
          Vkernel.Machine.exec_prog_sink ~step_budget:t.t_step_budget ~sink:t.sink t.machine
            prog
        in
        ignore
          (Supervisor.record t.sup ~instance ~timed_out:res.Vkernel.Machine.timed_out
             ~lost:false);
        (match res.crash with
        | Some c -> (
            if not (Hashtbl.mem t.crash_seen c.cr_title) then
              Hashtbl.replace t.crash_seen c.cr_title t.executions;
            (* keep the shortest reproducer per title, so Repro starts
               from the easiest program *)
            match Hashtbl.find_opt t.crashes c.cr_title with
            | None -> Hashtbl.replace t.crashes c.cr_title prog
            | Some old when List.length prog < List.length old ->
                Hashtbl.replace t.crashes c.cr_title prog
            | Some _ -> ())
        | None -> ());
        let fresh =
          (* one pass over the sink's touched list marks fresh sids and
             updates the set, with no intermediate allocation *)
          let sk = t.sink in
          let fresh = ref false in
          for i = 0 to sk.Vkernel.Machine.cs_n - 1 do
            if cover_sid t sk.Vkernel.Machine.cs_buf.(i) then fresh := true
          done;
          Vkernel.Machine.sink_reset sk;
          !fresh
        in
        reward ~fresh;
        if fresh then
          if t.corpus_n < t.t_max_corpus then begin
            t.corpus.(t.corpus_n) <- prog;
            t.corpus_n <- t.corpus_n + 1;
            Obs.Metrics.incr "fuzz.corpus_inserts"
          end
          else begin
            (* ring full: evict a random entry instead of silently
               dropping the fresh program. The extra draw happens only
               on this saturated path, so the RNG sequence — and every
               Quick-scale table — is unchanged for runs that never
               fill the ring. *)
            let victim = Rng.int t.rng t.t_max_corpus in
            t.corpus.(victim) <- prog;
            (* the slot's statistics described the displaced program *)
            Schedule.reset_seed t.sched victim;
            t.evictions <- t.evictions + 1;
            Obs.Metrics.incr "fuzz.corpus_evictions"
          end
      end
    end
    else reward ~fresh:false;
    if t.executions mod t.trace_every = 0 && Obs.tracing () then
      Obs.event
        ~attrs:(fun () ->
          [
            ("executions", Obs.Json.Int t.executions);
            ("coverage", Obs.Json.Int (Hashtbl.length t.coverage));
          ])
        ~kind:"fuzz.checkpoint"
        ("exec-" ^ string_of_int t.executions);
    true
  end

let result (t : t) : result =
  let sup = Supervisor.stats t.sup in
  let first_crash_execs =
    Hashtbl.fold (fun title e acc -> (title, e) :: acc) t.crash_seen []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    executions = t.executions;
    coverage = t.coverage;
    crashes = t.crashes;
    corpus_size = t.corpus_n;
    corpus_evictions = t.evictions;
    exec_restarts = sup.Supervisor.s_reboots;
    exec_lost = sup.Supervisor.s_lost;
    step_budget = t.t_step_budget;
    first_crash_exec =
      List.fold_left
        (fun acc (_, e) ->
          match acc with Some m when m <= e -> acc | _ -> Some e)
        None first_crash_execs;
    first_crash_execs;
  }

let supervisor_stats (t : t) = Supervisor.stats t.sup

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume                                                   *)
(* ------------------------------------------------------------------ *)

let snapshot (t : t) : Checkpoint.snapshot =
  let health, counters = Supervisor.dump t.sup in
  {
    Checkpoint.spec_name = t.spec_name;
    seed = t.seed;
    budget = t.budget;
    step_budget = t.t_step_budget;
    max_corpus = t.t_max_corpus;
    supervisor = Supervisor.config t.sup;
    sched = t.sched.Schedule.mode;
    rng_state = Rng.state t.rng;
    executions = t.executions;
    evictions = t.evictions;
    (* mutate reads the working string the previous program left behind,
       so it is campaign state even though generate resets it *)
    working_str = t.gen.Proggen.cur_str;
    coverage =
      List.sort compare (Hashtbl.fold (fun sid () acc -> sid :: acc) t.coverage []);
    (* per-slot scheduler statistics travel with their slot, so the
       restored UCB scores are exactly the frozen ones *)
    corpus =
      List.init t.corpus_n (fun i ->
          (t.corpus.(i), t.sched.Schedule.seed_visits.(i), t.sched.Schedule.seed_reward.(i)));
    crashes =
      Hashtbl.fold
        (fun title p acc -> (title, p, Hashtbl.find t.crash_seen title) :: acc)
        t.crashes []
      |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b);
    op_stats =
      List.init (Array.length t.sched.Schedule.op_uses) (fun i ->
          (t.sched.Schedule.op_uses.(i), t.sched.Schedule.op_reward.(i)));
    sched_totals = (t.sched.Schedule.seed_total, t.sched.Schedule.op_total);
    sup_health = health;
    sup_counters = counters;
  }

let of_snapshot ~(machine : Vkernel.Machine.t) (spec : Syzlang.Ast.spec)
    (s : Checkpoint.snapshot) : (t, string) Stdlib.result =
  if s.Checkpoint.spec_name <> spec.Syzlang.Ast.spec_name then
    Error
      (Printf.sprintf "checkpoint was taken with spec %S, this run uses %S"
         s.Checkpoint.spec_name spec.Syzlang.Ast.spec_name)
  else if s.executions > s.budget then
    Error
      (Printf.sprintf "checkpoint has %d executions but a budget of only %d" s.executions
         s.budget)
  else if s.max_corpus < 1 then
    (* the corpus ring is [Array.make max_corpus]: the first fresh
       program writes slot 0 *)
    Error
      (Printf.sprintf "checkpoint max_corpus is %d: a campaign needs at least 1 corpus slot"
         s.max_corpus)
  else if List.length s.corpus > s.max_corpus then
    Error
      (Printf.sprintf "checkpoint corpus has %d entries but max_corpus is %d"
         (List.length s.corpus) s.max_corpus)
  else if List.length s.op_stats <> Array.length Mutator.all then
    Error
      (Printf.sprintf
         "checkpoint records %d mutation operators but this build has %d"
         (List.length s.op_stats) (Array.length Mutator.all))
  else
    (* a well-formed checkpoint from another machine can still hold sids
       past this one's bitmap, which [cover_sid] indexes unchecked *)
    let n_sids = machine.Vkernel.Machine.n_sids in
    match List.find_opt (fun sid -> sid < 0 || sid >= n_sids) s.coverage with
    | Some sid ->
        Error
          (Printf.sprintf
             "checkpoint coverage sid %d is out of range: this machine has n_sids = %d" sid n_sids)
    | None ->
    match
      Supervisor.restore s.supervisor ~health:s.sup_health ~counters:s.sup_counters
    with
    | Error e -> Error e
    | Ok sup ->
        let t =
          init ~seed:s.seed ~budget:s.budget ~step_budget:s.step_budget
            ~max_corpus:s.max_corpus ~supervisor:s.supervisor ~sched:s.sched ~machine spec
        in
        let t = { t with sup } in
        Rng.set_state t.rng s.rng_state;
        t.gen.Proggen.cur_str <- s.working_str;
        t.executions <- s.executions;
        t.evictions <- s.evictions;
        List.iter (fun sid -> ignore (cover_sid t sid)) s.coverage;
        List.iter
          (fun (title, p, seen) ->
            Hashtbl.replace t.crashes title p;
            Hashtbl.replace t.crash_seen title seen)
          s.crashes;
        List.iteri
          (fun i (p, visits, rwd) ->
            t.corpus.(i) <- p;
            t.sched.Schedule.seed_visits.(i) <- visits;
            t.sched.Schedule.seed_reward.(i) <- rwd)
          s.corpus;
        t.corpus_n <- List.length s.corpus;
        List.iteri
          (fun i (uses, rwd) ->
            t.sched.Schedule.op_uses.(i) <- uses;
            t.sched.Schedule.op_reward.(i) <- rwd)
          s.op_stats;
        (let seed_total, op_total = s.sched_totals in
         t.sched.Schedule.seed_total <- seed_total;
         t.sched.Schedule.op_total <- op_total);
        Obs.Metrics.incr "fuzz.checkpoint_resumes";
        if Obs.tracing () then
          Obs.event
            ~attrs:(fun () ->
              [
                ("executions", Obs.Json.Int t.executions);
                ("coverage", Obs.Json.Int (Hashtbl.length t.coverage));
              ])
            ~kind:"fuzz.resume"
            ("exec-" ^ string_of_int t.executions);
        Ok t

(* ------------------------------------------------------------------ *)
(* Driving                                                             *)
(* ------------------------------------------------------------------ *)

let final_metrics (t : t) =
  if Obs.metrics_on () then begin
    Obs.Metrics.incr ~by:t.executions "fuzz.executions";
    Obs.Metrics.observe "fuzz.coverage" (float_of_int (Hashtbl.length t.coverage));
    Obs.Metrics.observe "fuzz.corpus_hit_rate"
      (if t.executions = 0 then 0.0
       else float_of_int (t.corpus_n + t.evictions) /. float_of_int t.executions);
    if t.corpus_n >= t.t_max_corpus then Obs.Metrics.incr "fuzz.corpus_saturated";
    Obs.Metrics.incr ("fuzz.sched." ^ Schedule.mode_to_string t.sched.Schedule.mode);
    Obs.Metrics.incr ~by:t.sched.Schedule.op_total "fuzz.sched.mutations";
    (* op rewards never reset (unlike per-slot rewards, which die with
       their evicted program), so their sum is the true novelty total *)
    Obs.Metrics.incr
      ~by:(Array.fold_left ( + ) 0 t.sched.Schedule.op_reward)
      "fuzz.sched.novel_mutations"
  end

let drive ?(checkpoint_every = 0) ?(on_checkpoint = fun _ -> ()) ?stop_after (t : t) :
    [ `Completed | `Stopped ] =
  Obs.with_span
    ~attrs:(fun () ->
      [
        ("executions", Obs.Json.Int t.executions);
        ("coverage", Obs.Json.Int (Hashtbl.length t.coverage));
        ("crashes", Obs.Json.Int (Hashtbl.length t.crashes));
        ("corpus", Obs.Json.Int t.corpus_n);
        ("evictions", Obs.Json.Int t.evictions);
      ])
    ~kind:"fuzz.campaign" t.spec_name
  @@ fun () ->
  Obs.Metrics.incr "fuzz.campaigns";
  let stop_hit () =
    (* stopping exactly at the budget is just completion *)
    match stop_after with
    | Some n -> t.executions >= n && t.executions < t.budget
    | None -> false
  in
  let rec loop () =
    if stop_hit () then begin
      on_checkpoint t;
      `Stopped
    end
    else if step t then begin
      if checkpoint_every > 0 && t.executions mod checkpoint_every = 0 then on_checkpoint t;
      loop ()
    end
    else begin
      final_metrics t;
      `Completed
    end
  in
  loop ()

(** Run a campaign of [budget] program executions. *)
let run ?seed ?budget ?step_budget ?max_corpus ?supervisor ?sched
    ~(machine : Vkernel.Machine.t) (spec : Syzlang.Ast.spec) : result =
  let t = init ?seed ?budget ?step_budget ?max_corpus ?supervisor ?sched ~machine spec in
  ignore (drive t);
  result t
