(** The fuzzing workloads: Syzkaller-style campaigns timed step by step.

    [fuzz-kernel] is Table 3's shape: one machine boots the whole loaded
    kernel and each round is one 1500-execution campaign with the merged
    Syzkaller + KernelGPT suite (thousands of syscalls, hundreds of
    resource producers), so costs that grow with suite size dominate.
    [fuzz-module] is the shape of Tables 4 and 5: each bug module boots
    alone with its own small suite and each round is one 10000-execution
    campaign per module, so the executor dominates and suite-size costs
    are bypassed.

    Each round runs the campaigns of one seed from a fixed pool, and a
    run walks the whole pool once per 10 seconds of [--seconds]: every
    run measures the same work and the run's seed picks the order, the
    way it orders modules in the specgen passes. Every pool campaign has
    a committed golden digest, so any run seed is checked in full. *)

type shape = Kernel | Module

type target = {
  label : string;
  machine : Vkernel.Machine.t;
  suite : Syzlang.Ast.spec;
  gen : Fuzzer.Proggen.t;  (** the replay's own generator state *)
  sink : Vkernel.Machine.cov_sink;  (** the replay's own coverage sink *)
}

(* about ten seconds of rounds on a 2-core x86-64 VM: a round is about
   1.25 s on kernel and 1 s on module *)
let pool = function Kernel -> 8 | Module -> 10

let budget = function Kernel -> 1500 | Module -> 10_000

(* the campaign seed conventions of Exp_fuzz.table3 and Exp_bugs.table4 *)
let campaign_seed shape k = k * match shape with Kernel -> 7919 | Module -> 1299721

let golden_file = function Kernel -> "fuzz-kernel" | Module -> "fuzz-module"

let golden_key shape tgt k =
  match shape with Kernel -> string_of_int k | Module -> tgt.label ^ "/" ^ string_of_int k

(* Programs replayed per traced campaign, each through generate, every
   mutation operator and execution; split evenly over its quarters. *)
let replay_sample = 32

let bug_modules () =
  List.sort_uniq compare (List.map (fun b -> b.Corpus.Types.bug_module) Corpus.Registry.bugs)

let target (l : Layers.t) ~label ~(machine : Vkernel.Machine.t) suite =
  let kernel = machine.index in
  Timer.layer l.jit ~kind:"bench.jit" label (fun () -> ignore (Lazy.force machine.jit));
  let resolved =
    Timer.layer l.resolve ~kind:"bench.resolve" label (fun () ->
        Syzlang.Validate.resolve_spec ~kernel suite)
  in
  let gen = Timer.layer l.prepare ~kind:"bench.prepare" label (fun () -> Fuzzer.Proggen.prepare resolved) in
  let errors =
    Timer.layer l.validate ~kind:"bench.validate" label (fun () ->
        Syzlang.Validate.validate ~kernel suite)
  in
  if errors <> [] then failwith (label ^ ": the merged suite does not validate");
  { label; machine; suite; gen; sink = Vkernel.Machine.new_sink machine }

let setup shape (l : Layers.t) () =
  let ctx =
    Timer.layer l.suites_build ~kind:"bench.suites_build" "ctx" (fun () -> Report.Suites.build ())
  in
  match shape with
  | Kernel ->
      let suite =
        Timer.layer l.merge ~kind:"bench.merge" "kernel" (fun () -> Report.Suites.kernelgpt_suite ctx)
      in
      [| target l ~label:"kernel" ~machine:ctx.machine suite |]
  | Module ->
      Array.of_list
        (List.map
           (fun name ->
             let entry = Corpus.Registry.find_exn name in
             let machine =
               Timer.layer l.boot ~kind:"bench.boot" name (fun () -> Vkernel.Machine.boot [ entry ])
             in
             let suite =
               Timer.layer l.merge ~kind:"bench.merge" name (fun () -> Report.Suites.module_suite ctx name)
             in
             target l ~label:name ~machine suite)
           (bug_modules ()))

(* A traced campaign is snapshotted at each eighth of its budget: the
   quarter boundaries give the calls each quarter made, and the quarter
   midpoints give the corpus those calls drew on, so the replay costs
   each quarter's calls on programs like the ones it mutated. *)
let marks = 8

(** One campaign, stepped by hand so each step is timed alone. Returns
    the campaign, its wall time (init plus steps) in ns, and, when
    traced, its [marks] snapshots in order. *)
let campaign (l : Layers.t) ~hist ~traced tgt ~seed ~budget =
  Obs.with_span ~kind:"bench.campaign" tgt.label @@ fun () ->
  let t0 = Timer.now_ns () in
  let c = Fuzzer.Campaign.init ~seed ~budget ~machine:tgt.machine tgt.suite in
  let init_ns = Timer.now_ns () - t0 in
  let steps_ns = ref 0 and words = ref 0.0 and running = ref true in
  let snaps = ref [] and next = ref 1 in
  while !running do
    let w = Gc.minor_words () in
    let s = Timer.now_ns () in
    if Fuzzer.Campaign.step c then begin
      let d = Timer.now_ns () - s in
      words := !words +. (Gc.minor_words () -. w);
      Hist.record hist d;
      steps_ns := !steps_ns + d;
      if traced && Fuzzer.Campaign.executions c * marks >= !next * budget then begin
        snaps := Fuzzer.Campaign.snapshot c :: !snaps;
        incr next
      end;
      Calib.tick ()
    end
    else running := false
  done;
  if traced then begin
    l.step_ns <- l.step_ns + !steps_ns;
    l.step_words <- l.step_words +. !words
  end;
  (c, init_ns + !steps_ns, Array.of_list (List.rev !snaps))

(* Replay a sample of one corpus through each campaign layer: fresh
   programs through generate and execution, strided corpus programs
   through every mutation operator and execution of the result. *)
let replay_corpus (l : Layers.t) tgt ~rng ~step_budget ~samples (snap : Fuzzer.Checkpoint.snapshot) =
  let r = Layers.new_replay () in
  let corpus = Array.of_list (List.map (fun (p, _, _) -> p) snap.corpus) in
  let n = Array.length corpus in
  let exec (t : Timer.t) prog =
    let res =
      Timer.time t (fun () ->
          Vkernel.Machine.exec_prog_sink ~step_budget ~sink:tgt.sink tgt.machine prog)
    in
    Vkernel.Machine.sink_reset tgt.sink;
    if res.timed_out then l.exec_timeouts <- l.exec_timeouts + 1;
    if res.crash <> None then l.exec_crashes <- l.exec_crashes + 1
  in
  for j = 0 to samples - 1 do
    exec r.exec_by.(0) (Timer.time r.generate (fun () -> Fuzzer.Proggen.generate tgt.gen rng ()));
    ignore
      (Timer.time r.exec_empty (fun () ->
           Vkernel.Machine.exec_prog_sink ~step_budget ~sink:tgt.sink tgt.machine []));
    Vkernel.Machine.sink_reset tgt.sink;
    if j < n then begin
      let p = corpus.(j * n / min samples n) in
      Array.iteri
        (fun i op ->
          let partner () = corpus.(Fuzzer.Rng.int rng n) in
          let m = Timer.time r.mutate.(i) (fun () -> Fuzzer.Mutator.apply tgt.gen rng op ~partner p) in
          if m = p then l.noops.(i) <- l.noops.(i) + 1;
          exec r.exec_by.(i + 1) m)
        Fuzzer.Mutator.all
    end
  done;
  r

(* Account a traced campaign quarter by quarter from its snapshots. *)
let replay (l : Layers.t) tgt ~rng ~step_budget (snaps : Fuzzer.Checkpoint.snapshot array) =
  let counts (s : Fuzzer.Checkpoint.snapshot) =
    (s.executions, Array.of_list (List.map fst s.op_stats))
  in
  let prev = ref (0, Array.make Layers.n_ops 0) in
  for q = 0 to (marks / 2) - 1 do
    let r =
      replay_corpus l tgt ~rng ~step_budget ~samples:(replay_sample / (marks / 2)) snaps.((2 * q))
    in
    let e1, o1 = counts snaps.((2 * q) + 1) and e0, o0 = !prev in
    Layers.add_replay l ~executions:(e1 - e0) ~op_calls:(Array.map2 ( - ) o1 o0) r;
    prev := (e1, o1)
  done;
  let last = snaps.(marks - 1) in
  l.fresh <- l.fresh + List.length last.corpus + last.evictions

let run shape (cfg : Run.cfg) sink : Run.ops * Metrics.metric list =
  let golden = Golden.load (golden_file shape) in
  let l = Layers.create () in
  let targets, setups = Run.setup (setup shape l) in
  let ops = Run.new_ops () in
  let n = pool shape in
  let rounds =
    Run.rounds cfg sink ~count:(n * Run.count cfg ~per_10s:1) (fun ~index ~traced hist ->
        let k = 1 + (Run.permutation ~seed:cfg.seed ~salt:(index / n) n).(index mod n) in
        let execs = ref 0 and ns = ref 0 in
        Array.iteri
          (fun ti tgt ->
            Run.attempt ops ~what:(tgt.label ^ " campaign " ^ string_of_int k) (fun () ->
                let c, wall, snaps =
                  campaign l ~hist ~traced tgt ~seed:(campaign_seed shape k) ~budget:(budget shape)
                in
                let res = Fuzzer.Campaign.result c in
                execs := !execs + res.executions;
                ns := !ns + wall;
                if traced then
                  replay l tgt
                    ~rng:(Fuzzer.Rng.make ((cfg.seed * 1_000_003) + (index * 64) + ti))
                    ~step_budget:res.step_budget snaps;
                Golden.check golden (golden_key shape tgt k) (Golden.campaign_digest res)))
          targets;
        (!execs, !ns))
  in
  ( ops,
    match sink with
    | Some s -> Layers.metrics l (Spans.Sink.finish s) @ Run.traced_metrics rounds
    | None -> Run.end_to_end ~setups ~rounds )

(** Golden digests of every pool campaign. *)
let regen shape =
  let targets = setup shape (Layers.create ()) () in
  Golden.save (golden_file shape)
    (List.concat_map
       (fun k ->
         Array.to_list
           (Array.map
              (fun tgt ->
                let res =
                  Fuzzer.Campaign.run ~seed:(campaign_seed shape k) ~budget:(budget shape)
                    ~machine:tgt.machine tgt.suite
                in
                (golden_key shape tgt k, Golden.campaign_digest res))
              targets))
       (List.init (pool shape) (fun i -> i + 1)))
