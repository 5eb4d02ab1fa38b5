(* Tests of the benchmark itself: percentile accuracy, failure
   accounting, the output contract, and strict flag parsing. *)

open Perfbench

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

(* the true q-quantile of a sorted sample, by the histogram's rank rule *)
let exact sorted q =
  let n = Array.length sorted in
  sorted.(max 1 (int_of_float (Float.ceil (q *. float_of_int n))) - 1)

let within_one_bucket name samples =
  let h = Hist.create () in
  Array.iter (Hist.record h) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      let truth = float_of_int (exact sorted q) and est = Hist.percentile h q in
      (* a bucket is 1/64 of its octave's base, so at most truth/64 wide *)
      let width = Float.max 1.0 (truth /. 64.0) in
      if Float.abs (est -. truth) > width then
        Alcotest.failf "%s p%g: estimate %.1f, true %.0f" name (q *. 100.) est truth)
    [ 0.01; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999; 1.0 ]

let test_hist_uniform () = within_one_bucket "uniform" (Array.init 100_000 (fun i -> i + 1))

let test_hist_log_uniform () =
  (* spans 1 ns .. ~16 s, so every octave size is exercised *)
  let st = Random.State.make [| 7 |] in
  within_one_bucket "log-uniform"
    (Array.init 50_000 (fun _ -> int_of_float (2.0 ** Random.State.float st 34.0)))

let test_hist_constant () = within_one_bucket "constant" (Array.make 1000 12_345)

let test_hist_empty () =
  Alcotest.(check (float 0.0)) "empty" 0.0 (Hist.percentile (Hist.create ()) 0.5)

let test_hist_no_alloc () =
  let h = Hist.create () in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Hist.record h (i * 37)
  done;
  Alcotest.(check (float 0.0)) "minor words" 0.0 (Gc.minor_words () -. w0)

(* ------------------------------------------------------------------ *)
(* Golden digests and failure accounting                               *)
(* ------------------------------------------------------------------ *)

let test_perturbed_digest () =
  let o = Kernelgpt.Pipeline.failed_outcome "m" in
  let d = Golden.module_digest o Baseline.Syzdescribe.unsupported in
  let golden = Hashtbl.create 1 in
  Hashtbl.replace golden "m" d;
  let ops = Run.new_ops () in
  Run.attempt ops ~what:"m" (fun () -> Golden.check golden "m" d);
  Alcotest.(check int) "matching digest passes" 0 ops.failed;
  let perturbed = Golden.module_digest { o with o_queries = 1 } Baseline.Syzdescribe.unsupported in
  Run.attempt ops ~what:"m" (fun () -> Golden.check golden "m" perturbed);
  Run.attempt ops ~what:"m" (fun () -> Golden.check golden "absent" d);
  Run.attempt ops ~what:"m" (fun () -> failwith "boom");
  Alcotest.(check (pair int int)) "attempted, failed" (4, 3) (ops.attempted, ops.failed)

(* ------------------------------------------------------------------ *)
(* Output contract                                                     *)
(* ------------------------------------------------------------------ *)

(* dune runs the test from _build/default/perfbench/test; the benchmark
   reads BENCHMARK.json and perfbench/golden relative to the checkout
   root, and a traced run writes under perfbench/.out there *)
let from_root f () =
  let here = Sys.getcwd () in
  Fun.protect ~finally:(fun () -> Sys.chdir here) @@ fun () ->
  if not (Sys.file_exists "BENCHMARK.json") then Sys.chdir "../..";
  if not (Sys.file_exists "BENCHMARK.json") then Alcotest.fail "no BENCHMARK.json: run under dune runtest";
  f ()

let benchmark_json () =
  let ic = open_in "BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.parse s with Ok j -> j | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

let declared section =
  match Obs.Json.member section (benchmark_json ()) with
  | Some (Obs.Json.List ms) ->
      List.map
        (fun m ->
          match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
          | Some (Obs.Json.Str n), Some (Obs.Json.Str u) -> (n, u)
          | _ -> Alcotest.fail "metric without name or unit")
        ms
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" section

let test_catalog_matches () =
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Metrics.end_to_end (declared "end_to_end");
  Alcotest.check pairs "per_layer" Metrics.per_layer (declared "per_layer")

(* read a result's --out document back and look up every declared metric *)
let check_out (r : Metrics.result) =
  let trace = r.trace in
  let doc =
    match Obs.Json.parse (Obs.Json.to_string (Metrics.out_json r)) with
    | Ok j -> j
    | Error e -> Alcotest.failf "--out JSON does not parse: %s" e
  in
  let got = match Obs.Json.member "metrics" doc with Some m -> m | None -> Alcotest.fail "no metrics" in
  List.iter
    (fun (name, unit_) ->
      match Option.bind (Obs.Json.member name got) (Obs.Json.member "unit") with
      | Some (Obs.Json.Str u) -> Alcotest.(check string) name unit_ u
      | _ -> Alcotest.failf "metric %s missing from --out" name)
    (declared (if trace then "per_layer" else "end_to_end"));
  got

let result ~trace ?(attempted = 1) ?(failed = 0) metrics =
  { Metrics.workload = "specgen-warm"; seed = 3; trace; attempted; failed; metrics }

let test_out_end_to_end () =
  let hist = Hist.create () in
  for i = 1 to 1000 do
    Hist.record hist (i * 1000)
  done;
  let metrics =
    Run.end_to_end
      ~setups:[ (0.2, 1.0); (0.3, 1.1); (0.25, 0.9) ]
      ~rounds:[ { Run.rate = 100.0; hist; traced = false; slowdown = 1.0 } ]
  in
  ignore (check_out (result ~trace:false metrics))

(* each set-up and round is scaled by its own slowdown before the median *)
let test_scaling () =
  let hist = Hist.create () in
  Hist.record hist 10_000;
  let round rate slowdown = { Run.rate; hist; traced = false; slowdown } in
  let ms =
    Run.end_to_end
      ~setups:[ (0.2, 1.0); (0.3, 1.5); (0.25, 0.5) ]
      ~rounds:[ round 100.0 2.0; round 300.0 0.5; round 120.0 1.0 ]
  in
  let get name = List.find (fun (m : Metrics.metric) -> m.name = name) ms in
  let close = Alcotest.float 1e-9 in
  Alcotest.(check close) "setup_s: median of 0.2, 0.2, 0.5" 0.2 (get "setup_s").value;
  Alcotest.(check (option close)) "setup_s raw" (Some 0.25) (get "setup_s").raw;
  Alcotest.(check close) "ops_per_s: median of 200, 150, 120" 150.0 (get "ops_per_s").value;
  Alcotest.(check (option close)) "ops_per_s raw" (Some 120.0) (get "ops_per_s").raw

(* a real one-round traced run: the per-layer path has no synthetic
   stand-in worth trusting *)
let test_out_per_layer () =
  let sink = Some (Spans.Sink.start ()) in
  let ops, metrics = Specgen_bench.run Warm { Run.seed = 3; seconds = 0; trace = true } sink in
  Alcotest.(check int) "no failed operation" 0 ops.failed;
  let got = check_out (result ~trace:true ~attempted:ops.attempted metrics) in
  Alcotest.(check bool) "cache hit ratio is 1 on warm" true
    (Option.bind (Obs.Json.member "oracle.cache_hit_ratio" got) (Obs.Json.member "value")
    = Some (Obs.Json.Float 1.0))

(* ------------------------------------------------------------------ *)
(* Strict flags                                                        *)
(* ------------------------------------------------------------------ *)

let test_cli_rejects () =
  List.iter
    (fun args ->
      match Cli.parse args with
      | Ok _ -> Alcotest.failf "accepted: %s" (String.concat " " args)
      | Error _ -> ())
    [
      [];
      [ "--workload" ];
      [ "--workload"; "fuzz" ];
      [ "--workload"; "fuzz-module"; "--seed"; "abc" ];
      [ "--workload"; "fuzz-module"; "--seed"; "-3" ];
      [ "--workload"; "fuzz-module"; "--seconds"; "1.5" ];
      [ "--workload"; "fuzz-module"; "--trace"; "2" ];
      [ "--workload"; "fuzz-module"; "--out" ];
      [ "--workload"; "fuzz-module"; "--out"; "--seed"; "1" ];
      [ "--workload"; "fuzz-module"; "--seed"; "1"; "--seed"; "2" ];
      [ "--workload"; "fuzz-module"; "--jobs"; "2" ];
      [ "--workload"; "fuzz-module"; "extra" ];
      [ "--regen-golden"; "--workload"; "fuzz-module" ];
      [ "--workload"; "fuzz-module"; "--regen-golden" ];
      [ "--regen-golden"; "--regen-golden" ];
    ]

let test_cli_accepts () =
  match
    Cli.parse
      [ "--workload"; "fuzz-kernel"; "--seed"; "7"; "--seconds"; "12"; "--trace"; "1"; "--out"; "o.json" ]
  with
  | Ok c ->
      Alcotest.(check (option string)) "workload" (Some "fuzz-kernel") c.workload;
      Alcotest.(check (list int)) "seed, seconds" [ 7; 12 ] [ c.seed; c.seconds ];
      Alcotest.(check bool) "trace" true c.trace;
      Alcotest.(check (option string)) "out" (Some "o.json") c.out
  | Error e -> Alcotest.fail e

let test_cli_regen () =
  match Cli.parse [ "--regen-golden" ] with
  | Ok c -> Alcotest.(check bool) "regen" true c.regen_golden
  | Error e -> Alcotest.fail e

(* the amount of work follows --seconds alone *)
let test_round_count () =
  let count seconds per_10s = Run.count { Run.seed = 1; seconds; trace = false } ~per_10s in
  Alcotest.(check (list int)) "rounds" [ 8; 1; 1; 16; 2 ] [ count 10 8; count 0 8; count 10 1; count 20 8; count 15 1 ]

let () =
  Alcotest.run "perfbench"
    [
      ( "hist",
        [
          Alcotest.test_case "uniform within one bucket" `Quick test_hist_uniform;
          Alcotest.test_case "log-uniform within one bucket" `Quick test_hist_log_uniform;
          Alcotest.test_case "constant within one bucket" `Quick test_hist_constant;
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "record allocates nothing" `Quick test_hist_no_alloc;
        ] );
      ("golden", [ Alcotest.test_case "perturbed digest fails the operation" `Quick test_perturbed_digest ]);
      ( "output",
        [
          Alcotest.test_case "catalog matches BENCHMARK.json" `Quick (from_root test_catalog_matches);
          Alcotest.test_case "--out has every end-to-end metric" `Quick
            (from_root test_out_end_to_end);
          Alcotest.test_case "--out has every per-layer metric" `Quick
            (from_root test_out_per_layer);
        ] );
      ( "cli",
        [
          Alcotest.test_case "malformed flags rejected" `Quick test_cli_rejects;
          Alcotest.test_case "well-formed flags" `Quick test_cli_accepts;
          Alcotest.test_case "--regen-golden alone" `Quick test_cli_regen;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "round count follows --seconds" `Quick test_round_count;
          Alcotest.test_case "each round scaled by its own slowdown" `Quick test_scaling;
        ] );
    ]
