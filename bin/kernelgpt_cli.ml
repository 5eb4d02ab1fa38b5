(** Command-line interface to the KernelGPT reproduction.

    - [list]      corpus modules and their spec status
    - [generate]  run the KernelGPT pipeline on one module
    - [baseline]  run the SyzDescribe baseline on one module
    - [fuzz]      fuzz one module with a chosen specification suite
    - [bugs]      hunt the Table 4 bugs
    - [report]    regenerate the paper's tables and figures *)

open Cmdliner

let model_conv =
  Arg.conv
    ( (fun s ->
        match Profile.by_name s with
        | Some p -> Ok p
        | None -> Error (`Msg (Printf.sprintf "unknown model %S (gpt-4, gpt-4o, gpt-3.5)" s))),
      fun fmt p -> Format.pp_print_string fmt p.Profile.name )

let model_arg =
  Arg.(value & opt model_conv Profile.gpt4 & info [ "model" ] ~doc:"Analysis LLM profile.")

let module_conv =
  Arg.conv
    ( (fun s ->
        match Corpus.Registry.find s with
        | Some e -> Ok e
        | None -> Error (`Msg (Printf.sprintf "no such module %S; try `kernelgpt_cli list`" s))),
      fun fmt (e : Corpus.Types.entry) -> Format.pp_print_string fmt e.name )

let module_arg =
  Arg.(
    required
    & pos 0 (some module_conv) None
    & info [] ~docv:"MODULE" ~doc:"Registry key, e.g. dm.")

(* Fault-injection flags, shared by every command that queries the
   oracle. Without them the client layer is a strict pass-through and
   output stays byte-identical. *)
let faults_conv =
  Arg.conv
    ( (fun s ->
        match Faults.parse_spec s with Ok p -> Ok p | Error msg -> Error (`Msg msg)),
      fun fmt p -> Format.pp_print_string fmt (Faults.spec_to_string p) )

let faults_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "faults" ] ~docv:"RATE[:SEED]"
        ~doc:
          "Inject deterministic oracle-transport faults (timeouts, rate limits, server \
           errors, malformed and truncated responses) into $(docv) percent of query \
           attempts. The same RATE:SEED reproduces the same faults, retries, and output \
           exactly.")

let positive_int_conv =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n > 0 -> Ok n
        | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))),
      Format.pp_print_int )

(* 0 resolves to one worker per core here, so commands see a positive
   count; a negative value is refused like any malformed one *)
let jobs_conv =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some 0 -> Ok (Kernelgpt.Pool.cpu_count ())
        | Some n when n > 0 -> Ok n
        | _ ->
            Error
              (`Msg
                 (Printf.sprintf
                    "expected a non-negative integer (0 = one worker per core), got %S" s))),
      Format.pp_print_int )

let jobs_arg =
  Arg.(
    value & opt jobs_conv 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for independent campaigns/repetitions (0 = one per core). The \
           default 1 runs sequentially; any value produces identical tables.")

let query_budget_arg =
  Arg.(
    value
    & opt (some positive_int_conv) None
    & info [ "query-budget" ] ~docv:"N"
        ~doc:
          "Cap the run at $(docv) oracle query attempts (shared across all workers). \
           Once spent, queries fail fast and the pipeline degrades to partial results. \
           With $(b,--jobs) > 1 the shared budget is consumed in scheduler order, so \
           which queries it refuses varies run to run; budget-bound runs reproduce \
           exactly only at $(b,--jobs) 1.")

let client_of ?faults ?query_budget ?cache oracle =
  Client.create ?plan:faults
    ?query_budget:(Option.map Client.budget query_budget)
    ?cache oracle

(* Oracle answer cache (--oracle-cache), shared by every command that
   queries the oracle. Warm entries replay the cold run's responses and
   accounting, so stdout is byte-identical while the oracle is never
   consulted; without the flag nothing changes. *)
let oracle_cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "oracle-cache" ] ~docv:"FILE"
        ~doc:
          "Persist oracle answers to $(docv) (content-addressed, versioned JSONL) and \
           replay them on later runs: a warm run performs zero oracle queries yet prints \
           byte-identical output, because each hit replays the cold run's accounting. \
           Hits bypass $(b,--faults) and consume no $(b,--query-budget). A missing file \
           starts cold; a corrupted or version-skewed one fails with a descriptive error.")

let oracle_cache_readonly_arg =
  Arg.(
    value & flag
    & info [ "oracle-cache-readonly" ]
        ~doc:
          "Serve $(b,--oracle-cache) without ever writing it back — for caches shared \
           between concurrent runs or checked into CI fixtures.")

(** Open the cache (when requested), run the command with it, then flush
    and summarize on stderr — stdout stays byte-identical cold vs warm. *)
let with_oracle_cache ~readonly file f =
  match file with
  | None ->
      if readonly then `Error (false, "--oracle-cache-readonly needs --oracle-cache FILE")
      else f None
  | Some file -> (
      match Cache.open_file ~readonly file with
      | Error e -> `Error (false, e)
      | Ok cache -> (
          let r = f (Some cache) in
          match Cache.flush cache with
          | Ok () ->
              Printf.eprintf "Oracle cache: %s\n%!" (Cache.summary cache);
              r
          | Error e -> `Error (false, e)))

(* Executor-side fault injection (--exec-faults), the fuzzing twin of
   --faults: drives the supervisor's wedge/reboot machinery in tests and
   CI. Without it campaigns behave exactly as they always have. *)
let exec_faults_conv =
  Arg.conv
    ( (fun s ->
        match Fuzzer.Supervisor.parse_spec s with
        | Ok c -> Ok c
        | Error msg -> Error (`Msg msg)),
      fun fmt c -> Format.pp_print_string fmt (Fuzzer.Supervisor.spec_to_string c) )

let exec_faults_arg =
  Arg.(
    value
    & opt (some exec_faults_conv) None
    & info [ "exec-faults" ] ~docv:"RATE[:SEED]"
        ~doc:
          "Deterministically lose $(docv) percent of campaign executions to a wedged \
           executor instance: the program is generated but its results are discarded, and \
           the supervisor reboots instances that trip the wedge threshold. The same \
           RATE:SEED reproduces the same faults, reboots, and output exactly.")

(* Worker-pool fault injection (--pool-faults): the pool twin of
   --faults/--exec-faults. The plan is installed process-wide
   (Pool.set_faults), so every pool run of the command sees it. *)
let pool_faults_conv =
  Arg.conv
    ( (fun s ->
        match Kernelgpt.Pool.Faults.parse_spec s with
        | Ok p -> Ok p
        | Error msg -> Error (`Msg msg)),
      fun fmt p -> Format.pp_print_string fmt (Kernelgpt.Pool.Faults.spec_to_string p) )

let pool_faults_arg =
  Arg.(
    value
    & opt (some pool_faults_conv) None
    & info [ "pool-faults" ] ~docv:"RATE[:SEED]"
        ~doc:
          "Deterministically crash or stall $(docv) percent of worker-pool task \
           attempts. Crashed attempts are retried on the same worker; tasks that exhaust \
           the retry budget are quarantined and render as degraded table rows instead of \
           aborting the run. Decisions hash only the task label and attempt number, so \
           the same RATE:SEED reproduces the same faults and output for any $(b,--jobs).")

(* Corpus/operator scheduling mode (--sched), shared by fuzz and report:
   uniform is the historical draw-per-pick behavior, ucb schedules seeds
   and mutation operators by UCB1 over their recorded novelty rewards. *)
let sched_arg =
  Arg.(
    value
    & opt
        (enum [ ("uniform", Fuzzer.Schedule.Uniform); ("ucb", Fuzzer.Schedule.Ucb) ])
        Fuzzer.Schedule.Uniform
    & info [ "sched" ] ~docv:"MODE"
        ~doc:
          "Corpus and mutation-operator scheduling: $(b,uniform) (the historical \
           random pick) or $(b,ucb) (UCB1 bandit over coverage-novelty rewards, \
           deterministic and checkpoint-exact). Scheduler statistics are campaign \
           state: they ride in checkpoints and resume exactly.")

(* Observability flags, shared by every command that runs the pipeline.
   Traces go to a file and metrics to stderr, so stdout stays
   byte-identical for any --jobs value. *)
let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write one JSONL span record per pipeline stage, oracle query, pool task, \
                and fuzzing campaign to $(docv).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Collect counters/histograms (oracle cost, repair outcomes, campaign and \
                pool statistics) and render them on stderr at exit. Replaces the removed \
                KGPT_POOL_TRACE environment variable.")
  in
  let setup trace metrics =
    (match trace with Some file -> Obs.enable_trace_file file | None -> ());
    if metrics then Obs.enable_metrics ()
  in
  Term.(const setup $ trace $ metrics)

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run verbose =
    let entries = Lazy.force Corpus.Registry.all in
    Printf.printf "%-14s %-7s %-7s %5s %6s  %s\n" "module" "kind" "loaded" "#cmds" "spec%" "device/socket";
    List.iter
      (fun (e : Corpus.Types.entry) ->
        if verbose || e.loaded then begin
          let kind = match e.kind with Corpus.Types.Driver -> "driver" | _ -> "socket" in
          let cmds = List.length e.gt.gt_ioctls + List.length e.gt.gt_setsockopts in
          let missing = Baseline.Syzkaller_specs.missing_fraction e in
          let where =
            match e.gt.gt_paths with
            | p :: _ -> p
            | [] -> (
                match e.gt.gt_socket with
                | Some (d, t, p) -> Printf.sprintf "socket(%d,%d,%d)" d t p
                | None -> "-")
          in
          Printf.printf "%-14s %-7s %-7b %5d %5.0f%%  %s\n" e.name kind e.loaded cmds
            ((1.0 -. missing) *. 100.)
            where
        end)
      entries;
    `Ok ()
  in
  let verbose =
    Arg.(value & flag & info [ "a"; "all" ] ~doc:"Include modules not loaded under syzbot.")
  in
  Cmd.v (Cmd.info "list" ~doc:"List corpus modules")
    Term.(ret (const run $ verbose))

let generate_cmd =
  let run () entry profile all_in_one show_prompting faults query_budget cache_file
      cache_readonly =
    let machine = Vkernel.Machine.boot [ entry ] in
    let kernel = machine.Vkernel.Machine.index in
    let oracle = Oracle.create ~profile ~knowledge:kernel () in
    with_oracle_cache ~readonly:cache_readonly cache_file @@ fun cache ->
    let client = client_of ?faults ?query_budget ?cache oracle in
    let mode = if all_in_one then Kernelgpt.Pipeline.All_in_one else Kernelgpt.Pipeline.Iterative in
    let out = Kernelgpt.Pipeline.run ~mode ~client ~oracle ~kernel entry in
    (match out.o_spec with
    | Some spec -> print_string (Syzlang.Printer.spec_str spec)
    | None -> print_endline "(no specification generated)");
    Printf.printf
      "\n# valid=%b direct=%b repaired=%b queries=%d prompt-tokens=%d iterations=%d\n"
      out.o_valid out.o_direct_valid out.o_repaired out.o_queries out.o_tokens out.o_iterations;
    List.iter
      (fun e -> Printf.printf "# unresolved: %s\n" (Syzlang.Validate.error_to_string e))
      out.o_errors;
    if Client.fault_tolerant client then
      Printf.printf "# resilience: faults=%d retries=%d recovered=%d degraded=%d\n"
        out.o_faults out.o_retries out.o_recovered out.o_degraded;
    if show_prompting then
      Printf.printf "# oracle: %d queries, %d prompt tokens, %d truncations\n"
        oracle.Oracle.queries oracle.Oracle.prompt_tokens oracle.Oracle.truncations;
    `Ok ()
  in
  let all_in_one =
    Arg.(value & flag & info [ "all-in-one" ] ~doc:"Single-prompt ablation mode (§5.2.3).")
  in
  let show = Arg.(value & flag & info [ "stats" ] ~doc:"Print oracle cost accounting.") in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a syzlang specification with KernelGPT")
    Term.(
      ret
        (const run $ obs_term $ module_arg $ model_arg $ all_in_one $ show $ faults_arg
       $ query_budget_arg $ oracle_cache_arg $ oracle_cache_readonly_arg))

let baseline_cmd =
  let run entry =
    (match (Baseline.Syzdescribe.run entry).sd_spec with
    | Some spec -> print_string (Syzlang.Printer.spec_str spec)
    | None -> print_endline "(SyzDescribe cannot generate a specification for this module)");
    `Ok ()
  in
  Cmd.v
    (Cmd.info "baseline" ~doc:"Generate a specification with the SyzDescribe baseline")
    Term.(ret (const run $ module_arg))

let fuzz_cmd =
  let run () (entry : Corpus.Types.entry) suite budget seed profile repro faults query_budget
      cache_file cache_readonly exec_faults checkpoint checkpoint_every resume resume_or_fresh
      stop_after sched =
    let machine = Vkernel.Machine.boot [ entry ] in
    let kernel = machine.Vkernel.Machine.index in
    with_oracle_cache ~readonly:cache_readonly cache_file @@ fun cache ->
    let spec =
      match suite with
      | "manual" -> Baseline.Syzkaller_specs.spec_of_entry entry
      | "syzdescribe" -> (Baseline.Syzdescribe.run entry).sd_spec
      | _ ->
          let oracle = Oracle.create ~profile ~knowledge:kernel () in
          let client = client_of ?faults ?query_budget ?cache oracle in
          (Kernelgpt.Pipeline.run ~client ~oracle ~kernel entry).o_spec
    in
    match spec with
    | None -> `Error (false, Printf.sprintf "no %s specification available for %s" suite entry.name)
    | Some spec -> (
        let supervisor = Option.value exec_faults ~default:Fuzzer.Supervisor.default in
        if (resume || resume_or_fresh) && checkpoint = None then
          `Error (false, "--resume/--resume-or-fresh need --checkpoint FILE")
        else if resume && resume_or_fresh then
          `Error (false, "--resume and --resume-or-fresh are mutually exclusive")
        else
          (* Validate that a loaded checkpoint belongs to *this* run:
             same spec, seed, budgets, and fault plan. A resumed run is
             only byte-identical to an uninterrupted one when every
             input matches. *)
          let validate (s : Fuzzer.Checkpoint.snapshot) : (unit, string) result =
            let want label a b =
              if a = b then Ok ()
              else Error (Printf.sprintf "checkpoint was taken with %s %d, this run uses %d" label a b)
            in
            let ( let* ) = Result.bind in
            let* () = want "seed" s.seed seed in
            let* () = want "budget" s.budget budget in
            if s.supervisor <> supervisor then
              Error "checkpoint was taken with a different --exec-faults/supervisor configuration"
            else if s.sched <> sched then
              Error
                (Printf.sprintf "checkpoint was taken with --sched %s, this run uses --sched %s"
                   (Fuzzer.Schedule.mode_to_string s.sched)
                   (Fuzzer.Schedule.mode_to_string sched))
            else Ok ()
          in
          let fresh () =
            Fuzzer.Campaign.init ~seed ~budget ~supervisor ~sched ~machine spec
          in
          let campaign =
            if not (resume || resume_or_fresh) then Ok (fresh ())
            else
              let file = Option.get checkpoint in
              let loaded =
                match Fuzzer.Checkpoint.load file with
                | Error e -> Error e
                | Ok snap -> (
                    match validate snap with
                    | Error e -> Error (Printf.sprintf "%s: %s" file e)
                    | Ok () -> Fuzzer.Campaign.of_snapshot ~machine spec snap)
              in
              match loaded with
              | Ok t ->
                  Printf.eprintf "resumed from %s at %d/%d executions\n%!" file
                    (Fuzzer.Campaign.executions t) budget;
                  Ok t
              | Error e when resume_or_fresh ->
                  Printf.eprintf "cannot resume (%s); starting fresh\n%!" e;
                  Obs.Metrics.incr "fuzz.checkpoint_load_errors";
                  Ok (fresh ())
              | Error e -> Error e
          in
          match campaign with
          | Error e -> `Error (false, e)
          | Ok t -> (
              let t0 = Unix.gettimeofday () in
              let write_checkpoint c =
                match checkpoint with
                | Some file -> Fuzzer.Checkpoint.save file (Fuzzer.Campaign.snapshot c)
                | None -> ()
              in
              let checkpoint_every =
                match checkpoint_every with
                | Some n -> n
                | None -> if checkpoint = None then 0 else max 1 (budget / 8)
              in
              match
                Fuzzer.Campaign.drive ~checkpoint_every ~on_checkpoint:write_checkpoint
                  ?stop_after t
              with
              | `Stopped ->
                  (* graceful kill: state is on disk, nothing on stdout —
                     the resumed run owns the report *)
                  Printf.eprintf "stopped at %d/%d executions; checkpoint written to %s\n"
                    (Fuzzer.Campaign.executions t) budget
                    (Option.value checkpoint ~default:"(nowhere: no --checkpoint)");
                  `Ok ()
              | `Completed ->
                  write_checkpoint t;
                  let res = Fuzzer.Campaign.result t in
                  Printf.printf "%d executions in %.2fs; coverage %d (%d in %s); corpus %d\n"
                    res.executions
                    (Unix.gettimeofday () -. t0)
                    (Fuzzer.Campaign.total_coverage res)
                    (Fuzzer.Campaign.module_coverage machine res entry.name)
                    entry.name res.corpus_size;
                  if exec_faults <> None then begin
                    let s = Fuzzer.Campaign.supervisor_stats t in
                    Printf.printf
                      "supervisor: %d instances, %d reboots, %d lost executions (%d timeouts)\n"
                      s.Fuzzer.Supervisor.s_instances s.s_reboots s.s_lost s.s_timeouts
                  end;
                  List.iter
                    (fun title ->
                      Printf.printf "CRASH: %s\n" title;
                      if repro then begin
                        let prog = Hashtbl.find res.crashes title in
                        let small =
                          Fuzzer.Repro.minimize ~step_budget:res.step_budget ~machine ~title
                            prog
                        in
                        print_string (Fuzzer.Repro.program_str small);
                        print_newline ()
                      end)
                    (Fuzzer.Campaign.crash_titles res);
                  `Ok ()))
  in
  let suite =
    Arg.(
      value
      & opt (enum [ ("kernelgpt", "kernelgpt"); ("manual", "manual"); ("syzdescribe", "syzdescribe") ]) "kernelgpt"
      & info [ "suite" ] ~doc:"Which specification to fuzz with.")
  in
  let budget =
    Arg.(value & opt positive_int_conv 10_000 & info [ "budget" ] ~doc:"Program executions.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign seed.") in
  let repro =
    Arg.(value & flag & info [ "repro" ] ~doc:"Print a minimized reproducer per crash.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write the complete campaign state (RNG, counters, coverage, corpus, crash \
             table, supervisor health) to $(docv) every $(b,--checkpoint-every) \
             executions, atomically, with a checksum. A killed run resumed with \
             $(b,--resume) finishes byte-identical to an uninterrupted one.")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some positive_int_conv) None
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Checkpoint every $(docv) executions (default: budget/8).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue the campaign recorded in $(b,--checkpoint) FILE; fails with a \
             descriptive error when the file is missing, truncated, corrupted, from \
             another checkpoint version, or from a run with different parameters.")
  in
  let resume_or_fresh =
    Arg.(
      value & flag
      & info [ "resume-or-fresh" ]
          ~doc:"Like $(b,--resume), but fall back to a fresh campaign (with a warning on \
                stderr) when the checkpoint cannot be loaded.")
  in
  let stop_after =
    Arg.(
      value
      & opt (some positive_int_conv) None
      & info [ "stop-after" ] ~docv:"N"
          ~doc:
            "Gracefully stop after $(docv) total executions, writing a final checkpoint — \
             the deterministic stand-in for killing the process at a checkpoint boundary.")
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Fuzz a module with a specification suite")
    Term.(
      ret
        (const run $ obs_term $ module_arg $ suite $ budget $ seed $ model_arg $ repro
       $ faults_arg $ query_budget_arg $ oracle_cache_arg $ oracle_cache_readonly_arg
       $ exec_faults_arg $ checkpoint $ checkpoint_every $ resume $ resume_or_fresh
       $ stop_after $ sched_arg))

let bugs_cmd =
  let run () budget seeds jobs faults query_budget cache_file cache_readonly exec_faults
      pool_faults =
    Kernelgpt.Pool.reset_stats ();
    Kernelgpt.Pool.set_faults pool_faults;
    Report.Exp_resilience.reset_pool_notes ();
    Printf.printf "Hunting Table 4 bugs (budget=%d, seeds=%d, jobs=%d)...\n%!" budget seeds jobs;
    with_oracle_cache ~readonly:cache_readonly cache_file @@ fun cache ->
    let ctx = Report.Suites.build ~jobs ?faults ?query_budget ?cache () in
    if faults <> None || query_budget <> None then
      Report.Exp_resilience.print (Report.Exp_resilience.collect ctx);
    let t4 = Report.Exp_bugs.table4 ~budget ~seeds ~jobs ?supervisor:exec_faults ctx in
    Report.Exp_bugs.print_table4 t4;
    if exec_faults <> None then
      Report.Exp_resilience.print_exec t4.Report.Exp_bugs.t4_exec;
    let pt = Report.Exp_resilience.pool_totals () in
    if pool_faults <> None || pt.Report.Exp_resilience.p_quarantined > 0 then
      Report.Exp_resilience.print_pool ~degraded_modules:ctx.Report.Suites.degraded pt;
    if jobs > 1 then Kernelgpt.Pool.report ~per_task:(Obs.metrics_on ()) stderr;
    `Ok ()
  in
  let budget =
    Arg.(value & opt positive_int_conv 30_000 & info [ "budget" ] ~doc:"Executions per module.")
  in
  let seeds =
    Arg.(value & opt positive_int_conv 2 & info [ "seeds" ] ~doc:"Campaign seeds per module.")
  in
  Cmd.v (Cmd.info "bugs" ~doc:"Hunt the Table 4 bugs")
    Term.(
      ret
        (const run $ obs_term $ budget $ seeds $ jobs_arg $ faults_arg $ query_budget_arg
       $ oracle_cache_arg $ oracle_cache_readonly_arg $ exec_faults_arg $ pool_faults_arg))

let report_cmd =
  let run () which full jobs faults query_budget cache_file cache_readonly exec_faults
      pool_faults sched bench_out =
    let scale = if full then Report.Runner.Full else Report.Runner.Quick in
    with_oracle_cache ~readonly:cache_readonly cache_file @@ fun cache ->
    let bench =
      Report.Runner.run ~scale ~which ~jobs ?faults ?query_budget ?exec_faults ?pool_faults
        ?oracle_cache:cache ~sched ()
    in
    let file = Option.value bench_out ~default:(Report.Bench_json.default_file bench) in
    match Report.Bench_json.write bench ~file with
    | () ->
        Printf.eprintf "Bench artifact: %s\n%!" file;
        `Ok ()
    | exception Sys_error e -> `Error (false, "cannot write the bench artifact: " ^ e)
  in
  let exp =
    Arg.(
      value
      & pos 0 (enum Report.Runner.experiments) Report.Runner.All
      & info [] ~docv:"EXPERIMENT"
          ~doc:("Which artifact: " ^ Arg.doc_alts_enum Report.Runner.experiments ^ "."))
  in
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Full budgets (EXPERIMENTS.md scale).") in
  let bench_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench-out" ] ~docv:"FILE"
          ~doc:
            "Write the run's throughput artifact (per-table wall clocks and execution \
             counts, JSON) to $(docv) instead of BENCH_<EXPERIMENT>_<quick|full>.json.")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Regenerate the paper's tables and figures")
    Term.(
      ret
        (const run $ obs_term $ exp $ full $ jobs_arg $ faults_arg $ query_budget_arg
       $ oracle_cache_arg $ oracle_cache_readonly_arg $ exec_faults_arg $ pool_faults_arg
       $ sched_arg $ bench_out))

let trace_cmd =
  let run file expected =
    match Obs.validate_trace_file file with
    | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
    | Ok stats ->
        Printf.printf "%s: %d records\n" file stats.Obs.ts_records;
        List.iter (fun (k, n) -> Printf.printf "  %-18s %d\n" k n) stats.ts_kinds;
        let missing =
          List.filter (fun k -> not (List.mem_assoc k stats.ts_kinds)) expected
        in
        if missing = [] then `Ok ()
        else
          `Error
            ( false,
              Printf.sprintf "missing expected span kind(s): %s"
                (String.concat ", " missing) )
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Trace JSONL file.")
  in
  let expected =
    Arg.(
      value & opt_all string []
      & info [ "expect" ] ~docv:"KIND"
          ~doc:"Fail unless a span of $(docv) is present (repeatable).")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Validate a --trace JSONL file and summarize its span kinds")
    Term.(ret (const run $ file $ expected))

let () =
  let doc = "KernelGPT reproduction: LLM-guided syscall-specification synthesis for kernel fuzzing" in
  let info = Cmd.info "kernelgpt_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; generate_cmd; baseline_cmd; fuzz_cmd; bugs_cmd; report_cmd; trace_cmd ]))
