(** The specification-generation workloads: every generation target
    through [Pipeline.run] and [Syzdescribe.run], one pass after another.

    [specgen-cold] gives each pass a fresh oracle and no answer cache,
    so oracle analysis and validate/repair do all the work.
    [specgen-warm] routes every query through an in-memory answer cache
    that the set-up's warm-up pass filled: every query hits and replays
    its accounting, and [Oracle.query] never runs. A faster oracle must
    show on cold and not on warm; a change that speeds up misses by
    slowing down hits shows on warm as a regression. *)

type mode = Cold | Warm

type state = { kernel : Csrc.Index.t; targets : Corpus.Types.entry array; cache : Cache.t option }

let golden_file = "specgen"

(* One module through both generators; the wall time covers exactly the
   two public calls. *)
let module_op (l : Layers.t) ~client ~oracle ~kernel (e : Corpus.Types.entry) =
  Obs.with_span ~kind:"bench.module" e.name @@ fun () ->
  let t0 = Timer.now_ns () in
  let o = Timer.time l.pipeline (fun () -> Kernelgpt.Pipeline.run ~client ~oracle ~kernel e) in
  let sd =
    Timer.layer l.syzdescribe ~kind:"bench.syzdescribe" e.name (fun () -> Baseline.Syzdescribe.run e)
  in
  (o, sd, Timer.now_ns () - t0)

let client_for st oracle =
  match st.cache with Some cache -> Client.create ~cache oracle | None -> Client.pass_through oracle

let setup mode (l : Layers.t) () =
  let entries = Corpus.Registry.loaded () in
  let machine = Timer.layer l.boot ~kind:"bench.boot" "kernel" (fun () -> Vkernel.Machine.boot entries) in
  let kernel = machine.Vkernel.Machine.index in
  let targets = Array.of_list (Report.Suites.generation_targets entries) in
  let st = { kernel; targets; cache = (match mode with Cold -> None | Warm -> Some (Cache.in_memory ())) } in
  (* the warm-up pass fills the definition-index memo and, on warm, the cache *)
  Obs.with_span ~kind:"bench.warmup" "pass" (fun () ->
      let oracle = Oracle.create ~knowledge:kernel () in
      let client = client_for st oracle in
      Array.iter (fun e -> ignore (module_op l ~client ~oracle ~kernel e)) targets);
  st

(* Passes per timed round: 8 x 152 = 1216 module operations, enough for
   a per-round p99 with more than ten samples beyond it. *)
let passes_per_round = 8

(* rounds in 10 seconds on a 2-core x86-64 VM: about 1000 modules/s
   cold, 1350 warm *)
let rounds_per_10s = function Cold -> 8 | Warm -> 10

(** One timed pass over every target in a seeded order. Returns the
    summed module wall time in ns. *)
let pass st (l : Layers.t) ~golden ~ops ~hist ~order =
  let oracle = Oracle.create ~knowledge:st.kernel () in
  let client = client_for st oracle in
  let total_ns = ref 0 in
  Array.iter
    (fun i ->
      let e = st.targets.(i) in
      Run.attempt ops ~what:e.Corpus.Types.name (fun () ->
          let o, sd, ns = module_op l ~client ~oracle ~kernel:st.kernel e in
          Hist.record hist ns;
          total_ns := !total_ns + ns;
          Calib.tick ();
          match Golden.check golden e.name (Golden.module_digest o sd) with
          | Error _ as err -> err
          | Ok () -> (
              (* a spec the pipeline calls usable must re-validate cleanly *)
              match o.o_spec with
              | Some spec when o.o_usable ->
                  if Timer.time l.validate (fun () -> Syzlang.Validate.validate ~kernel:st.kernel spec) = []
                  then Ok ()
                  else Error "usable spec fails validation"
              | _ -> Ok ())))
    order;
  !total_ns

let run mode (cfg : Run.cfg) sink : Run.ops * Metrics.metric list =
  let golden = Golden.load golden_file in
  let l = Layers.create () in
  let st, setups = Run.setup (setup mode l) in
  let ops = Run.new_ops () in
  let cache_before = Option.map Cache.stats st.cache in
  let n = Array.length st.targets in
  let rounds =
    Run.rounds cfg sink ~count:(Run.count cfg ~per_10s:(rounds_per_10s mode))
      (fun ~index ~traced:_ hist ->
        let ns = ref 0 in
        for p = 0 to passes_per_round - 1 do
          let order = Run.permutation ~seed:cfg.seed ~salt:((index * passes_per_round) + p) n in
          ns := !ns + pass st l ~golden ~ops ~hist ~order
        done;
        (passes_per_round * n, !ns))
  in
  (match (st.cache, cache_before) with
  | Some cache, Some s0 ->
      let s1 = Cache.stats cache in
      l.cache_hits <- s1.st_hits - s0.st_hits;
      l.cache_lookups <- l.cache_hits + s1.st_misses - s0.st_misses
  | _ -> ());
  ( ops,
    match sink with
    | Some s -> Layers.metrics l (Spans.Sink.finish s) @ Run.traced_metrics rounds
    | None -> Run.end_to_end ~setups ~rounds )

(** Golden digests of every target, from one cold pass. *)
let regen () =
  let l = Layers.create () in
  let st = setup Cold l () in
  let oracle = Oracle.create ~knowledge:st.kernel () in
  let client = client_for st oracle in
  Golden.save golden_file
    (Array.to_list
       (Array.map
          (fun (e : Corpus.Types.entry) ->
            let o, sd, _ = module_op l ~client ~oracle ~kernel:st.kernel e in
            (e.name, Golden.module_digest o sd))
          st.targets))
