(** What every workload shares: repeated set-up, the timed round loop
    with its traced/untraced alternation, operation accounting, and the
    end-to-end metrics. *)

type cfg = { seed : int; seconds : int; trace : bool }

(** Operations attempted and failed. An operation is one module's
    generation or one campaign. *)
type ops = { mutable attempted : int; mutable failed : int }

let new_ops () = { attempted = 0; failed = 0 }

(** Count one operation; [check] runs it and says why its outputs are
    wrong, if they are. An exception is a failure too. *)
let attempt ops ~what check =
  ops.attempted <- ops.attempted + 1;
  match check () with
  | Ok () -> ()
  | Error why ->
      ops.failed <- ops.failed + 1;
      Printf.eprintf "perfbench: %s: %s\n%!" what why
  | exception e ->
      ops.failed <- ops.failed + 1;
      Printf.eprintf "perfbench: %s: raised %s\n%!" what (Printexc.to_string e)

let setup_reps = 5

(** Set up [setup_reps] times, each from a collected heap and under a
    [bench.setup] span. Returns the last state and, per set-up, its wall
    time in seconds and the machine's slowdown just before it. *)
let setup f =
  let last = ref None and times = ref [] in
  for i = 1 to setup_reps do
    last := None;
    Gc.full_major ();
    Calib.start ();
    let t0 = Timer.now_ns () in
    let s = Obs.with_span ~kind:"bench.setup" ("setup-" ^ string_of_int i) f in
    times := (float_of_int (Timer.now_ns () - t0) /. 1e9, Calib.window_slowdown ()) :: !times;
    last := Some s
  done;
  (Option.get !last, List.rev !times)

(** One timed round: its rate, its operation latencies, whether it was
    traced, and the machine's slowdown during it ({!Calib}). *)
type round = { rate : float; hist : Hist.t; traced : bool; slowdown : float }

(** The number of rounds in [cfg.seconds], for a workload that runs
    [per_10s] rounds in 10 seconds on a 2-core x86-64 VM (at least one).
    The amount of work depends on [--seconds] only, never on how fast
    the machine is. *)
let count cfg ~per_10s = max 1 (((cfg.seconds * per_10s) + 5) / 10)

(** Run [count] timed rounds. [round ~index ~traced hist] runs round
    [index], records each operation's latency in [hist], and returns its
    operation count and wall time in ns. Twice [cfg.seconds] is only a
    cap: a round that would start after it is not run, and the run says
    so on stderr. Each round reports its own percentiles, so a burst of
    contention from other tenants of the machine slows a few rounds
    rather than the run's pooled distribution. A round's slowdown comes
    from the probe samples taken at its start and by [round]'s
    {!Calib.tick} calls between operations. In a traced run even rounds
    are traced and odd ones are not, so the run measures its own tracing
    overhead. *)
let rounds cfg sink ~count round =
  let acc = ref [] in
  let cap = Timer.now_ns () + (2 * cfg.seconds * 1_000_000_000) in
  let i = ref 0 in
  while !i < count && (!i = 0 || Timer.now_ns () < cap) do
    let traced = cfg.trace && !i mod 2 = 0 in
    (match sink with
    | Some s -> if traced then Spans.Sink.resume s else Spans.Sink.pause ()
    | None -> ());
    Calib.start ();
    let hist = Hist.create () in
    let ops, ns =
      Obs.with_span ~kind:"bench.round" ("round-" ^ string_of_int !i) (fun () ->
          round ~index:!i ~traced hist)
    in
    let rate = float_of_int ops /. (float_of_int (max 1 ns) /. 1e9) in
    acc := { rate; hist; traced; slowdown = Calib.window_slowdown () } :: !acc;
    incr i
  done;
  if !i < count then
    Printf.eprintf "perfbench: time cap reached after %d of %d rounds\n%!" !i count;
  List.rev !acc

(** A seeded permutation of [0 .. n-1]. *)
let permutation ~seed ~salt n =
  let st = Random.State.make [| seed; salt |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let samples rounds = List.fold_left (fun n r -> n + r.hist.n) 0 rounds

(** Medians over set-ups of their times, and over rounds of their rates
    and median latencies. Each set-up and round is scaled to the
    reference machine's speed by its own slowdown ({!Calib}); the raw
    medians are kept beside them. *)
let end_to_end ~setups ~(rounds : round list) : Metrics.metric list =
  (* [xs]: values with the slowdown each was measured at; a slow machine
     lowers a rate ([per_s]) and raises a time *)
  let dist ?(n = List.length rounds) ?(per_s = false) name xs =
    let scaled = List.map (fun (x, s) -> if per_s then x *. s else x /. s) xs in
    let q1, med, q3 = Metrics.quartiles scaled in
    Metrics.metric ~n ~quartiles:(q1, q3) ~raw:(Metrics.median (List.map fst xs)) name med
  in
  let per_round f = List.map (fun r -> (f r, r.slowdown)) rounds in
  [
    dist ~n:(List.length setups) "setup_s" setups;
    dist ~per_s:true "ops_per_s" (per_round (fun r -> r.rate));
    dist ~n:(samples rounds) "op_us.p50" (per_round (fun r -> Hist.percentile r.hist 0.5 /. 1e3));
    Metrics.metric "heap_peak_mb"
      (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6);
  ]

(** The round-level metrics of a traced run: the tail latency, as the
    median over its untraced rounds (all rounds if none) of each round's
    99th percentile, unscaled like every per-layer time; and the tracing
    overhead, as the median untraced round rate over the median traced
    one, minus 1 (0 without both kinds of round). Every round holds at
    least 1000 operations, so its p99 has at least ten samples beyond it. *)
let traced_metrics (rounds : round list) : Metrics.metric list =
  let traced, untraced = List.partition (fun r -> r.traced) rounds in
  let tail = if untraced = [] then rounds else untraced in
  let rate rs = Metrics.median (List.map (fun r -> r.rate) rs) in
  [
    Metrics.metric ~n:(samples tail) "op_us.p99"
      (Metrics.median (List.map (fun r -> Hist.percentile r.hist 0.99 /. 1e3) tail));
    Metrics.metric ~n:(List.length rounds) "trace.overhead_ratio"
      (if traced = [] || untraced = [] then 0.0 else (rate untraced /. rate traced) -. 1.0);
  ]
