(** Outside-in performance benchmark of the KernelGPT reproduction.

    {v
    perf.exe --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--out FILE]
    perf.exe --regen-golden
    v}

    Runs one workload (see perfbench/README.md) after its set-up, as a
    fixed number of timed rounds sized to take about [--seconds] on a
    2-core x86-64 VM, checks every operation's output against
    the golden digests, and prints one line per metric followed by a
    one-line JSON result. [--trace 0] reports the end-to-end metrics;
    [--trace 1] is a separate run that reports the per-layer metrics.
    Exits 1 when any operation failed, 2 on a malformed command line. *)

open Perfbench

let run_workload name cfg sink =
  match name with
  | "specgen-cold" -> Specgen_bench.run Cold cfg sink
  | "specgen-warm" -> Specgen_bench.run Warm cfg sink
  | "fuzz-kernel" -> Fuzz_bench.run Kernel cfg sink
  | "fuzz-module" -> Fuzz_bench.run Module cfg sink
  | w -> invalid_arg ("unknown workload " ^ w)

let () =
  match Cli.parse (List.tl (Array.to_list Sys.argv)) with
  | Error msg ->
      Printf.eprintf "perf.exe: %s\n%s\n" msg Cli.usage;
      exit 2
  | Ok cli when cli.regen_golden ->
      Specgen_bench.regen ();
      Fuzz_bench.regen Kernel;
      Fuzz_bench.regen Module
  | Ok cli ->
      let workload = Option.get cli.workload in
      let cfg = { Run.seed = cli.seed; seconds = cli.seconds; trace = cli.trace } in
      let sink = if cli.trace then Some (Spans.Sink.start ()) else None in
      let ops, metrics = run_workload workload cfg sink in
      let r =
        {
          Metrics.workload;
          seed = cli.seed;
          trace = cli.trace;
          attempted = ops.attempted;
          failed = ops.failed;
          metrics;
        }
      in
      Metrics.print_lines stdout r;
      Option.iter
        (fun file ->
          let oc = open_out file in
          output_string oc (Obs.Json.to_string (Metrics.out_json r));
          output_char oc '\n';
          close_out oc)
        cli.out;
      print_endline (Obs.Json.to_string (Metrics.result_json r));
      if r.failed > 0 then exit 1
