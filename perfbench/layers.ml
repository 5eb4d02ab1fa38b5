(** Per-layer accounting shared by every workload, and the per-layer
    metrics of a traced run.

    Each layer is timed at its public entry point from outside the
    program: set-up calls and generation calls through {!Timer}s, the
    program's own stages and oracle queries through the trace
    ({!Spans}), and the campaign layers by replaying each traced
    campaign's corpus through [Proggen.generate], every [Mutator.apply]
    operator and [Machine.exec_prog_sink]. A layer a workload never
    calls reads 0, and its share of operation time is 0. *)

let n_ops = Array.length Fuzzer.Mutator.all

(** Timers of one corpus replay. Executions are kept by the source of
    the program: 0 = generate, 1 + i = mutation operator i. *)
type replay = {
  generate : Timer.t;
  mutate : Timer.t array;
  exec_by : Timer.t array;
  exec_empty : Timer.t;
}

let new_replay () =
  let timers n = Array.init n (fun _ -> Timer.create ()) in
  {
    generate = Timer.create ();
    mutate = timers n_ops;
    exec_by = timers (1 + n_ops);
    exec_empty = Timer.create ();
  }

type t = {
  boot : Timer.t;
  jit : Timer.t;
  suites_build : Timer.t;
  merge : Timer.t;
  resolve : Timer.t;
  prepare : Timer.t;
  pipeline : Timer.t;
  syzdescribe : Timer.t;
  validate : Timer.t;
  replay : replay;  (** every replay of the run, pooled *)
  noops : int array;
  mutable exec_timeouts : int;
  mutable exec_crashes : int;
  (* totals over traced campaigns *)
  mutable step_ns : int;
  mutable step_words : float;
  mutable executions : int;
  op_calls : int array;
  mutable fresh : int;
  (* estimated step time per layer: generate, each operator, exec *)
  est_ns : float array;
  (* answer cache over the timed rounds *)
  mutable cache_hits : int;
  mutable cache_lookups : int;
}

let create () =
  {
    boot = Timer.create ();
    jit = Timer.create ();
    suites_build = Timer.create ();
    merge = Timer.create ();
    resolve = Timer.create ();
    prepare = Timer.create ();
    pipeline = Timer.create ();
    syzdescribe = Timer.create ();
    validate = Timer.create ();
    replay = new_replay ();
    noops = Array.make n_ops 0;
    exec_timeouts = 0;
    exec_crashes = 0;
    step_ns = 0;
    step_words = 0.0;
    executions = 0;
    op_calls = Array.make n_ops 0;
    fresh = 0;
    est_ns = Array.make (n_ops + 2) 0.0;
    cache_hits = 0;
    cache_lookups = 0;
  }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fdiv a b = if b = 0.0 then 0.0 else a /. b

(** Account one stretch of a traced campaign: its own counts
    ([executions] steps, of which [op_calls.(i)] mutated with operator i
    and the rest generated) and a replay [r] of its corpus. Each layer's
    step time is estimated as those calls times the cost per call
    replayed on that same stretch, so stretches with big corpora do not
    weigh more than their share of steps. A program is executed after
    each generate or mutate, at the cost replayed for that source. *)
let add_replay (l : t) ~executions ~op_calls (r : replay) =
  let gen_calls = executions - Array.fold_left ( + ) 0 op_calls in
  let est calls t = float_of_int calls *. Timer.mean_ns t in
  l.executions <- l.executions + executions;
  l.est_ns.(0) <- l.est_ns.(0) +. est gen_calls r.generate;
  l.est_ns.(n_ops + 1) <- l.est_ns.(n_ops + 1) +. est gen_calls r.exec_by.(0);
  Array.iteri
    (fun i calls ->
      l.op_calls.(i) <- l.op_calls.(i) + calls;
      l.est_ns.(i + 1) <- l.est_ns.(i + 1) +. est calls r.mutate.(i);
      l.est_ns.(n_ops + 1) <- l.est_ns.(n_ops + 1) +. est calls r.exec_by.(i + 1))
    op_calls;
  Timer.add l.replay.generate r.generate;
  Array.iteri (fun i t -> Timer.add l.replay.mutate.(i) t) r.mutate;
  Array.iteri (fun i t -> Timer.add l.replay.exec_by.(i) t) r.exec_by;
  Timer.add l.replay.exec_empty r.exec_empty

let exec_total (l : t) =
  Array.fold_left
    (fun (c, ns, w) (t : Timer.t) -> (c + t.calls, ns + t.ns, w +. t.words))
    (0, 0, 0.0) l.replay.exec_by

(** Shares of campaign step time: each layer's estimated time over the
    summed wall time of the traced steps. *)
let campaign_shares (l : t) =
  let share i = fdiv l.est_ns.(i) (float_of_int l.step_ns) in
  (("share.generate", share 0) :: List.mapi (fun i op -> ("share.mutate." ^ op, share (i + 1))) Metrics.ops)
  @ [ ("share.exec", share (n_ops + 1)) ]

(** Shares of module operation time in the traced rounds: each stage's
    self time, the oracle's, and SyzDescribe's. *)
let specgen_shares (sp : Spans.t) =
  let phase = "bench.round" in
  let op_ms = Spans.dur_ms sp ~phase ~kind:"bench.module" () in
  List.map
    (fun s ->
      ("share.stage." ^ s, fdiv (Spans.self_ms sp ~phase ~kind:"pipeline.stage" ~name:s ()) op_ms))
    Metrics.stages
  @ [
      ("share.oracle", fdiv (Spans.self_ms sp ~phase ~kind:"oracle.query" ()) op_ms);
      ("share.syzdescribe", fdiv (Spans.dur_ms sp ~phase ~kind:"bench.syzdescribe" ()) op_ms);
    ]

let metrics (l : t) (sp : Spans.t) : Metrics.metric list =
  let m = Metrics.metric in
  let timer_ms name (t : Timer.t) = m ~n:t.calls name (Timer.mean_ms t) in
  let pipelines = Spans.count sp ~kind:"pipeline" () in
  let traced_modules = Spans.count sp ~phase:"bench.round" ~kind:"bench.module" () in
  let span_self kind name = m ~n:(Spans.count sp ~kind ~name ()) in
  let r = l.replay in
  let exec_calls, exec_ns, exec_words = exec_total l in
  let shares = campaign_shares l @ specgen_shares sp in
  [
    timer_ms "vkernel.boot_ms" l.boot;
    m ~n:l.boot.calls "vkernel.boot_words" (Timer.mean_words l.boot);
    timer_ms "vkernel.jit_ms" l.jit;
    timer_ms "report.suites_build_ms" l.suites_build;
    timer_ms "syzlang.merge_ms" l.merge;
    timer_ms "syzlang.resolve_ms" l.resolve;
    timer_ms "fuzzer.prepare_ms" l.prepare;
    m ~n:pipelines "kernelgpt.pipeline_us"
      (fdiv (Spans.dur_ms sp ~kind:"pipeline" () *. 1e3) (float_of_int pipelines));
    m ~n:l.pipeline.calls "kernelgpt.pipeline_words" (Timer.mean_words l.pipeline);
  ]
  @ List.map
      (fun s ->
        span_self "pipeline.stage" s
          ("kernelgpt.stage." ^ s ^ "_self_us")
          (Spans.mean_self_us sp ~kind:"pipeline.stage" ~name:s ()))
      Metrics.stages
  @ List.concat_map
      (fun q ->
        let in_rounds = Spans.count sp ~phase:"bench.round" ~kind:"oracle.query" ~name:q () in
        [
          span_self "oracle.query" q
            ("oracle.query." ^ q ^ "_self_us")
            (Spans.mean_self_us sp ~kind:"oracle.query" ~name:q ());
          m ~n:traced_modules ("oracle.query." ^ q ^ "_calls") (ratio in_rounds traced_modules);
        ])
      Metrics.queries
  @ [
      m ~n:pipelines "kernelgpt.repair_rounds"
        (ratio (Spans.count sp ~kind:"repair.round" ()) pipelines);
      m ~n:l.cache_lookups "oracle.cache_hit_ratio" (ratio l.cache_hits l.cache_lookups);
      m ~n:l.syzdescribe.calls "baseline.syzdescribe_us" (Timer.mean_us l.syzdescribe);
      m ~n:l.validate.calls "syzlang.validate_us" (Timer.mean_us l.validate);
      m ~n:l.executions "fuzzer.step_words" (fdiv l.step_words (float_of_int l.executions));
      m ~n:r.generate.calls "fuzzer.generate_us" (Timer.mean_us r.generate);
      m ~n:r.generate.calls "fuzzer.generate_words" (Timer.mean_words r.generate);
    ]
  @ List.concat
      (List.mapi
         (fun i op ->
           let t = r.mutate.(i) and p = "fuzzer.mutate." ^ op in
           [
             m ~n:t.calls (p ^ "_us") (Timer.mean_us t);
             m ~n:t.calls (p ^ "_words") (Timer.mean_words t);
             m ~n:t.calls (p ^ "_noop_ratio") (ratio l.noops.(i) t.calls);
           ])
         Metrics.ops)
  @ [
      m ~n:exec_calls "vkernel.exec_us" (fdiv (float_of_int exec_ns /. 1e3) (float_of_int exec_calls));
      m ~n:exec_calls "vkernel.exec_words" (fdiv exec_words (float_of_int exec_calls));
      m ~n:r.exec_empty.calls "vkernel.exec_empty_us" (Timer.mean_us r.exec_empty);
      m ~n:exec_calls "vkernel.exec_timeout_ratio" (ratio l.exec_timeouts exec_calls);
      m ~n:exec_calls "vkernel.exec_crash_ratio" (ratio l.exec_crashes exec_calls);
      m ~n:l.executions "fuzzer.fresh_ratio" (ratio l.fresh l.executions);
      m ~n:l.executions "fuzzer.mutate_share"
        (ratio (Array.fold_left ( + ) 0 l.op_calls) l.executions);
    ]
  @ List.map (fun (name, v) -> m name v) shares
  @ [
      m "share.other" (1.0 -. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 shares);
      m "machine.slowdown" (Calib.slowdown ());
    ]
