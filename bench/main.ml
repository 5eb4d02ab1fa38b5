(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation section.

    Usage:
      dune exec bench/main.exe                 # all tables+figures, quick scale
      dune exec bench/main.exe -- --exp table5 # one artifact
      dune exec bench/main.exe -- --scale full # EXPERIMENTS.md numbers
      dune exec bench/main.exe -- --jobs 8     # shard campaigns over 8 domains
      dune exec bench/main.exe -- --jobs 0     # one worker per core
      dune exec bench/main.exe -- --trace t.jsonl --metrics  # observability
      dune exec bench/main.exe -- --faults 15:1 --query-budget 50000  # resilience
      dune exec bench/main.exe -- --exp table3 --exec-faults 10:3     # executor wedges
      dune exec bench/main.exe -- --exp table3 --pool-faults 15:7     # worker faults
      dune exec bench/main.exe -- --oracle-cache warm.jsonl           # answer cache
      dune exec bench/main.exe -- --sched ucb      # UCB seed/operator scheduling
      dune exec bench/main.exe -- --bench-out b.json  # BENCH artifact path

    An unknown flag, a flag given twice, a missing value or a malformed
    value (--scale fulll, --jobs abc, --jobs -3) exits 2 with a message
    naming the flag. Timed, per-layer measurements of generation and
    fuzzing live in perfbench/ (see perfbench/README.md).

    Tables on stdout are byte-identical for any --jobs value, with or
    without --faults (fault handling is scoped per module). The one
    exception is --query-budget with --jobs > 1: the shared budget is
    consumed in scheduler order, so which queries it refuses varies run
    to run — budget-bound runs reproduce exactly only at --jobs 1. The pool speedup summary, the --metrics registry, and
    --trace spans go to stderr or the trace file, never stdout.

    Every report run also writes a machine-readable throughput artifact
    ({!Report.Bench_json}) to BENCH_<which>_<scale>.json (or
    --bench-out PATH); the write is atomic and self-checked, and a
    one-line summary goes to stderr. *)

(* Strict flags: an unknown flag, a flag given twice, a missing value or
   a malformed value exits 2 with a message naming the flag. *)
let value_flags =
  [
    "--exp"; "--scale"; "--jobs"; "--trace"; "--faults"; "--query-budget"; "--exec-faults";
    "--pool-faults"; "--oracle-cache"; "--sched"; "--bench-out";
  ]

let switch_flags = [ "--metrics"; "--oracle-cache-readonly" ]

let usage_error fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let parse_flags (args : string list) : (string * string) list * string list =
  let rec go values switches = function
    | [] -> (values, switches)
    | flag :: _ when List.mem_assoc flag values || List.mem flag switches ->
        usage_error "%s: given twice" flag
    | flag :: rest when List.mem flag switch_flags -> go values (flag :: switches) rest
    | flag :: rest when List.mem flag value_flags -> (
        match rest with
        | v :: rest when not (String.starts_with ~prefix:"--" v) ->
            go ((flag, v) :: values) switches rest
        | _ -> usage_error "%s: missing value" flag)
    | arg :: _ -> usage_error "%s: unknown argument" arg
  in
  go [] [] args

(* [source] names where the value came from: a flag or an env var *)
let scale_of ~source = function
  | "quick" -> Report.Runner.Quick
  | "full" -> Report.Runner.Full
  | v -> usage_error "%s %s: expected quick or full" source v

let jobs_of ~source v =
  match int_of_string_opt v with
  | Some j when String.for_all (function '0' .. '9' -> true | _ -> false) v ->
      if j = 0 then Kernelgpt.Pool.cpu_count () (* one worker per core *) else j
  | _ -> usage_error "%s %s: expected a non-negative integer (0 = one worker per core)" source v

let () =
  let values, switches = parse_flags (List.tl (Array.to_list Sys.argv)) in
  let has flag = List.mem flag switches in
  let value_of flag = List.assoc_opt flag values in
  let scale =
    match (value_of "--scale", Sys.getenv_opt "KGPT_SCALE") with
    | Some v, _ -> scale_of ~source:"--scale" v
    | None, Some v -> scale_of ~source:"KGPT_SCALE" v
    | None, None -> Report.Runner.Quick
  in
  let jobs =
    match (value_of "--jobs", Sys.getenv_opt "KGPT_JOBS") with
    | Some v, _ -> jobs_of ~source:"--jobs" v
    | None, Some v -> jobs_of ~source:"KGPT_JOBS" v
    | None, None -> 1
  in
  (match value_of "--trace" with
  | Some file -> Obs.enable_trace_file file
  | None -> ());
  if has "--metrics" then Obs.enable_metrics ();
  let faults =
    match value_of "--faults" with
    | None -> None
    | Some spec -> (
        match Faults.parse_spec spec with
        | Ok plan -> Some plan
        | Error msg ->
            Printf.eprintf "--faults %s: %s\n" spec msg;
            exit 2)
  in
  let query_budget =
    match value_of "--query-budget" with
    | None -> None
    | Some n -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> Some n
        | _ ->
            Printf.eprintf "--query-budget %s: expected a positive integer\n" n;
            exit 2)
  in
  let exec_faults =
    match value_of "--exec-faults" with
    | None -> None
    | Some spec -> (
        match Fuzzer.Supervisor.parse_spec spec with
        | Ok cfg -> Some cfg
        | Error msg ->
            Printf.eprintf "--exec-faults %s: %s\n" spec msg;
            exit 2)
  in
  let pool_faults =
    match value_of "--pool-faults" with
    | None -> None
    | Some spec -> (
        match Kernelgpt.Pool.Faults.parse_spec spec with
        | Ok plan -> Some plan
        | Error msg ->
            Printf.eprintf "--pool-faults %s: %s\n" spec msg;
            exit 2)
  in
  let which =
    match value_of "--exp" with
    | Some w -> (
        match Report.Runner.which_of_string w with
        | Some w -> w
        | None ->
            Printf.eprintf
              "unknown experiment %S (expected: all, table1, fig7, table2, table3, table4, \
               table5, table6, ablation-iter, ablation-llm, ablation-sched, correctness)\n"
              w;
            exit 2)
    | None -> Report.Runner.All
  in
  let oracle_cache =
    match value_of "--oracle-cache" with
    | None ->
        if has "--oracle-cache-readonly" then begin
          Printf.eprintf "--oracle-cache-readonly needs --oracle-cache FILE\n";
          exit 2
        end
        else None
    | Some file -> (
        match Cache.open_file ~readonly:(has "--oracle-cache-readonly") file with
        | Ok cache -> Some cache
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            exit 2)
  in
  let sched =
    match value_of "--sched" with
    | None -> Fuzzer.Schedule.Uniform
    | Some s -> (
        match Fuzzer.Schedule.mode_of_string s with
        | Some m -> m
        | None ->
            Printf.eprintf "--sched %s: expected uniform or ucb\n" s;
            exit 2)
  in
  let scale_str = match scale with Report.Runner.Full -> "full" | Quick -> "quick" in
  let bench =
    Report.Bench_json.create
      ~sched:(Fuzzer.Schedule.mode_to_string sched)
      ~scale:scale_str
      ~which:(Report.Runner.string_of_which which)
      ~jobs
  in
  Report.Runner.run ~scale ~which ~jobs ?faults ?query_budget ?exec_faults ?pool_faults
    ?oracle_cache ~sched ~bench ();
  let bench_file =
    match value_of "--bench-out" with
    | Some f -> f
    | None -> Printf.sprintf "BENCH_%s_%s.json" (Report.Runner.string_of_which which) scale_str
  in
  Report.Bench_json.write bench ~file:bench_file;
  Printf.eprintf "Bench artifact: %s\n%!" bench_file;
  match oracle_cache with
  | None -> ()
  | Some cache -> (
      match Cache.flush cache with
      | Ok () -> Printf.eprintf "Oracle cache: %s\n%!" (Cache.summary cache)
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 1)
