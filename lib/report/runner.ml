(** Experiment runner: regenerates every table and figure of the paper's
    evaluation. The [scale] knob trades execution budget for wall time —
    [Quick] for CI, [Full] for EXPERIMENTS.md numbers. *)

type scale = Quick | Full

type budgets = {
  t3_reps : int;
  t3_budget : int;
  t4_budget : int;
  t4_seeds : int;
  t5_reps : int;
  t5_budget : int;
  t6_reps : int;
  t6_budget : int;
  abl_reps : int;
  abl_budget : int;
  absched_budget : int;
  absched_seeds : int;
}

let budgets_of = function
  | Quick ->
      {
        t3_reps = 1; t3_budget = 1500; t4_budget = 6000; t4_seeds = 1;
        t5_reps = 1; t5_budget = 1200; t6_reps = 1; t6_budget = 1200;
        abl_reps = 1; abl_budget = 1200;
        absched_budget = 4000; absched_seeds = 1;
      }
  | Full ->
      {
        t3_reps = 3; t3_budget = 12_000; t4_budget = 60_000; t4_seeds = 3;
        t5_reps = 3; t5_budget = 6000; t6_reps = 3; t6_budget = 6000;
        abl_reps = 3; abl_budget = 4000;
        absched_budget = 20_000; absched_seeds = 3;
      }

type which =
  | All
  | Table1
  | Fig7
  | Table2
  | Table3
  | Table4
  | Table5
  | Table6
  | Ablation_iter
  | Ablation_llm
  | Ablation_sched
  | Correctness

(** Experiment names, in the order [report]'s help lists them. *)
let experiments =
  [
    ("all", All); ("table1", Table1); ("fig7", Fig7); ("table2", Table2); ("table3", Table3);
    ("table4", Table4); ("table5", Table5); ("table6", Table6);
    ("ablation-iter", Ablation_iter); ("ablation-llm", Ablation_llm);
    ("ablation-sched", Ablation_sched); ("correctness", Correctness);
  ]

let string_of_which which = fst (List.find (fun (_, w) -> w = which) experiments)

let string_of_scale = function Quick -> "quick" | Full -> "full"

let wants which target =
  which = All || which = target

(** Regenerate the paper's artifacts. [jobs > 1] shards independent
    campaigns, repetitions, and pipeline runs over a pool of worker
    domains ({!Kernelgpt.Pool}); results are merged in a fixed order, so
    the tables printed on stdout are byte-identical to a sequential run.
    The pool's timing report (with per-task wall-clocks when [--metrics]
    is on) goes to stderr; [--trace] additionally records every stage,
    query, task, and campaign as a span.

    [faults] injects deterministic oracle-transport faults into the
    generation phase and [query_budget] caps its total query attempts;
    either adds a resilience table right after generation.
    [exec_faults] injects deterministic executor wedges into the Table
    3/4 campaigns (the {!Fuzzer.Supervisor}) and adds an executor
    resilience section after the tables. [pool_faults] injects
    deterministic worker-pool faults ({!Kernelgpt.Pool.Faults}) into
    every pool task of the run: tasks that recover within the retry
    budget leave stdout untouched, quarantined tasks render as
    explicitly degraded rows, and a pool resilience section prints after
    the tables (its numbers are a pure function of the plan, so stdout
    stays byte-identical for any [jobs]). With none of the fault layers,
    output is byte-identical to a run without them.

    [oracle_cache] routes every generation and ablation query through a
    shared {!Cache}: on a warm cache the whole report performs zero
    oracle queries yet prints byte-identical tables (accounting replay).
    Flushing the cache and summarizing its hit rate (on stderr, so
    stdout stays byte-identical between cold and warm runs) is the
    caller's job.

    [sched] picks the corpus/operator scheduling mode for every fuzzing
    table ({!Fuzzer.Schedule.mode}). The scheduling ablation
    ([Ablation_sched]) always runs both modes side by side, regardless
    of this knob.

    The result is a {!Bench_json} artifact of per-phase wall clocks and
    execution counts. Collecting it never touches stdout; writing the
    file is the caller's job. *)
let run ~scale ~which ~jobs ?faults ?query_budget ?exec_faults ?pool_faults ?oracle_cache
    ~sched () : Bench_json.t =
  let b = budgets_of scale in
  let bench =
    Bench_json.create
      ~sched:(Fuzzer.Schedule.mode_to_string sched)
      ~scale:(string_of_scale scale) ~which:(string_of_which which) ~jobs
  in
  Obs.with_span
    ~attrs:(fun () ->
      [
        ("scale", Obs.Json.Str (string_of_scale scale));
        ("which", Obs.Json.Str (string_of_which which));
      ])
    ~kind:"report" "experiments"
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Kernelgpt.Pool.reset_stats ();
  Kernelgpt.Pool.set_faults pool_faults;
  Exp_resilience.reset_pool_notes ();
  Printf.printf "Booting synthetic kernel and generating specifications...\n%!";
  let ctx = Suites.build ~jobs ?faults ?query_budget ?cache:oracle_cache () in
  let specs =
    Hashtbl.fold
      (fun _ (o : Kernelgpt.Pipeline.outcome) n -> if o.o_valid then n + 1 else n)
      ctx.Suites.kgpt 0
  in
  Bench_json.set_generation bench
    ~wall_s:(Unix.gettimeofday () -. t0)
    ~specs ~queries:ctx.oracle.Oracle.queries;
  (* time one table and feed its wall clock + execution count to the
     artifact; stdout is untouched *)
  let timed name execs_of f =
    let w0 = Unix.gettimeofday () in
    let r = f () in
    Bench_json.add_table bench ~name ~wall_s:(Unix.gettimeofday () -. w0)
      ~executions:(execs_of r);
    r
  in
  Printf.printf "  (%d loaded handlers; %d oracle queries, %d prompt tokens so far; %.1fs)\n%!"
    (List.length ctx.entries) ctx.oracle.Oracle.queries ctx.oracle.Oracle.prompt_tokens
    (Unix.gettimeofday () -. t0);
  if faults <> None || query_budget <> None then begin
    Exp_resilience.print (Exp_resilience.collect ctx);
    match ctx.Suites.query_budget with
    | Some b ->
        Printf.printf "Query budget: %d of %d attempts used.\n" (Client.budget_used b)
          (Client.budget_total b)
    | None -> ()
  end;
  if wants which Table1 then Exp_specs.print_table1 (Exp_specs.table1 ctx);
  if wants which Fig7 then Exp_specs.print_fig7 ctx;
  if wants which Table2 then Exp_specs.print_table2 (Exp_specs.table2 ctx);
  let exec_totals = ref Exp_resilience.exec_empty in
  if wants which Table3 then begin
    let t3 =
      timed "table3" (fun t -> t.Exp_fuzz.t3_exec.Exp_resilience.e_execs) @@ fun () ->
      Exp_fuzz.table3 ~reps:b.t3_reps ~budget:b.t3_budget ~jobs ?supervisor:exec_faults
        ~sched ctx
    in
    exec_totals := Exp_resilience.exec_sum !exec_totals t3.Exp_fuzz.t3_exec;
    Exp_fuzz.print_table3 t3
  end;
  if wants which Table4 then begin
    let t4 =
      timed "table4" (fun t -> t.Exp_bugs.t4_exec.Exp_resilience.e_execs) @@ fun () ->
      Exp_bugs.table4 ~budget:b.t4_budget ~seeds:b.t4_seeds ~jobs ?supervisor:exec_faults
        ~sched ctx
    in
    exec_totals := Exp_resilience.exec_sum !exec_totals t4.Exp_bugs.t4_exec;
    Exp_bugs.print_table4 t4
  end;
  if wants which Table5 then
    Exp_drivers.print_table5
      (timed "table5" (fun t -> t.Exp_drivers.t5_execs) @@ fun () ->
       Exp_drivers.table5 ~reps:b.t5_reps ~budget:b.t5_budget ~jobs ~sched ctx);
  if wants which Table6 then
    Exp_sockets.print_table6
      (timed "table6" (fun t -> t.Exp_sockets.t6_execs) @@ fun () ->
       Exp_sockets.table6 ~reps:b.t6_reps ~budget:b.t6_budget ~jobs ~sched ctx);
  let abl_execs (a : Exp_ablation.ablation) =
    List.fold_left
      (fun acc (v : Exp_ablation.variant_result) -> acc + v.v_execs)
      0 (a.iter_rows @ a.llm_rows)
  in
  (match which with
  | All ->
      Exp_ablation.print
        (timed "ablation" abl_execs @@ fun () ->
         Exp_ablation.run ~reps:b.abl_reps ~budget:b.abl_budget ~jobs ?cache:oracle_cache ())
  | Ablation_iter | Ablation_llm ->
      let a =
        timed "ablation" abl_execs @@ fun () ->
        Exp_ablation.run ~reps:b.abl_reps ~budget:b.abl_budget ~jobs ?cache:oracle_cache ()
      in
      if which = Ablation_iter then Exp_ablation.print_rows "Ablation 1" a.iter_rows
      else Exp_ablation.print_rows "Ablation 2" a.llm_rows
  | _ -> ());
  if wants which Ablation_sched then
    Exp_ablation.print_sched
      (timed "ablation-sched" (fun a -> a.Exp_ablation.sa_execs) @@ fun () ->
       Exp_ablation.run_sched ~budget:b.absched_budget ~seeds:b.absched_seeds ~jobs ctx);
  if wants which Correctness then Exp_correctness.print (Exp_correctness.audit ctx);
  if exec_faults <> None then Exp_resilience.print_exec !exec_totals;
  (* the pool section also prints when a run without a plan quarantined
     real failures — degradation is never silent *)
  let pt = Exp_resilience.pool_totals () in
  if pool_faults <> None || pt.Exp_resilience.p_quarantined > 0 then
    Exp_resilience.print_pool ~degraded_modules:ctx.Suites.degraded pt;
  Bench_json.set_total bench (Unix.gettimeofday () -. t0);
  Printf.printf "\nTotal experiment time: %.1fs\n" (Unix.gettimeofday () -. t0);
  if jobs > 1 then Kernelgpt.Pool.report ~per_task:(Obs.metrics_on ()) stderr;
  bench
