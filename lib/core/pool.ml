(** Fault-isolating self-scheduling pool on OCaml 5 [Domain]s. See pool.mli.

    Scheduling: every worker takes the next task index from one shared
    [Atomic] counter and runs all of that task's attempts itself, so a
    retry never leaves the worker that failed it; a worker returns once
    the counter passes the last task. Result slots are disjoint per task
    and [Domain.join] orders every slot write before the caller reads,
    so the merge is race-free and outcomes come back in submission
    order regardless of completion order. *)

let cpu_count () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Deterministic worker-fault injection                                 *)
(* ------------------------------------------------------------------ *)

module Faults = struct
  type plan = { rate_pct : int; seed : int }

  let default_seed = 1
  let make ?(seed = default_seed) ~rate_pct () = { rate_pct; seed }

  let parse_spec (s : string) : (plan, string) result =
    let rate_of r =
      match int_of_string_opt r with
      | Some pct when pct >= 0 && pct <= 100 -> Ok pct
      | Some _ -> Error (Printf.sprintf "pool fault rate %s out of range (0-100)" r)
      | None ->
          Error (Printf.sprintf "bad pool fault rate %S (expected RATE or RATE:SEED)" r)
    in
    match String.split_on_char ':' s with
    | [ rate ] -> Result.map (fun pct -> make ~rate_pct:pct ()) (rate_of rate)
    | [ rate; seed ] -> (
        match (rate_of rate, int_of_string_opt seed) with
        | Ok pct, Some seed -> Ok (make ~seed ~rate_pct:pct ())
        | (Error _ as e), _ -> e
        | _, None -> Error (Printf.sprintf "bad pool fault seed %S" seed))
    | _ -> Error (Printf.sprintf "bad pool fault spec %S (expected RATE or RATE:SEED)" s)

  let spec_to_string p = Printf.sprintf "%d:%d" p.rate_pct p.seed

  type kind = Crash | Stall

  let kind_to_string = function Crash -> "crash" | Stall -> "stall"

  (* The same deterministic-hash idiom as oracle [Faults.roll]: stable
     across runs and processes, independent of worker count and
     scheduling because it keys only on the run-unique task label and
     the attempt number. *)
  let roll (p : plan) ~(salt : string) ~(label : string) ~(attempt : int)
      ~(modulus : int) : int =
    Hashtbl.hash (p.seed, salt, label, attempt) mod modulus

  let decide (p : plan) ~label ~attempt : kind option =
    if p.rate_pct <= 0 then None
    else if roll p ~salt:"pool.fire" ~label ~attempt ~modulus:100 >= p.rate_pct then None
    else if roll p ~salt:"pool.kind" ~label ~attempt ~modulus:4 = 0 then Some Stall
    else Some Crash
end

exception Injected_fault of string

let () =
  Printexc.register_printer (function
    | Injected_fault lbl -> Some (Printf.sprintf "Pool.Injected_fault(%s)" lbl)
    | _ -> None)

let global_faults : Faults.plan option Atomic.t = Atomic.make None
let set_faults p = Atomic.set global_faults p
let default_retries = 2

type failure = {
  f_exn : exn;
  f_backtrace : Printexc.raw_backtrace;
  f_attempts : int;
}

type 'a outcome = Ok of 'a | Failed of failure

type timing = {
  tm_label : string;
  tm_worker : int;
  tm_seconds : float;
  tm_attempt : int;
  tm_ok : bool;
  tm_stalled : bool;
}

type summary = {
  s_tasks : int;
  s_workers : int;
  s_wall_seconds : float;
  s_busy_seconds : float;
  s_retries : int;
  s_quarantined : int;
  s_worker_deaths : int;
  s_faults_injected : int;
  s_stalls : int;
}

(* ------------------------------------------------------------------ *)
(* Global accounting (mutex-protected; workers log through it)         *)
(* ------------------------------------------------------------------ *)

let log_mutex = Mutex.create ()
let logged : timing list ref = ref []
let busy_seconds = ref 0.0
let pool_runs : (int * int * float) list ref = ref []  (* tasks, workers, wall *)

let g_retries = Atomic.make 0
let g_quarantined = Atomic.make 0
let g_worker_deaths = Atomic.make 0
let g_injected = Atomic.make 0
let g_stalls = Atomic.make 0

let with_log f =
  Mutex.lock log_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock log_mutex) f

let reset_stats () =
  with_log (fun () ->
      logged := [];
      busy_seconds := 0.0;
      pool_runs := []);
  List.iter
    (fun c -> Atomic.set c 0)
    [ g_retries; g_quarantined; g_worker_deaths; g_injected; g_stalls ]

let stats () : summary =
  with_log (fun () ->
      let tasks, workers, wall =
        List.fold_left
          (fun (t, w, s) (t', w', s') -> (t + t', max w w', s +. s'))
          (0, 0, 0.0) !pool_runs
      in
      {
        s_tasks = tasks;
        s_workers = workers;
        s_wall_seconds = wall;
        s_busy_seconds = !busy_seconds;
        s_retries = Atomic.get g_retries;
        s_quarantined = Atomic.get g_quarantined;
        s_worker_deaths = Atomic.get g_worker_deaths;
        s_faults_injected = Atomic.get g_injected;
        s_stalls = Atomic.get g_stalls;
      })

let timings () : timing list =
  with_log (fun () -> List.sort (fun a b -> compare b.tm_seconds a.tm_seconds) !logged)

let report ?(per_task = false) oc =
  let s = stats () in
  if s.s_tasks > 0 then begin
    let speedup = if s.s_wall_seconds > 0.0 then s.s_busy_seconds /. s.s_wall_seconds else 1.0 in
    Printf.fprintf oc
      "[pool] %d tasks on up to %d workers: %.2fs task time in %.2fs wall (%.2fx speedup)\n"
      s.s_tasks s.s_workers s.s_busy_seconds s.s_wall_seconds speedup;
    if s.s_faults_injected + s.s_retries + s.s_quarantined + s.s_worker_deaths > 0 then
      Printf.fprintf oc
        "[pool] resilience: %d injected faults (%d stalls), %d retries, %d quarantined, \
         %d worker deaths\n"
        s.s_faults_injected s.s_stalls s.s_retries s.s_quarantined s.s_worker_deaths;
    if per_task then
      List.iter
        (fun t ->
          Printf.fprintf oc "[pool]   %-48s worker %d attempt %d %9.1f ms%s%s\n" t.tm_label
            t.tm_worker t.tm_attempt
            (t.tm_seconds *. 1000.0)
            (if t.tm_ok then "" else " FAILED")
            (if t.tm_stalled then " STALLED" else ""))
        (timings ())
  end

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)
(* ------------------------------------------------------------------ *)

let finish_run ~t_start ~workers ~tasks (run_timings : timing list) =
  let wall = Unix.gettimeofday () -. t_start in
  with_log (fun () ->
      pool_runs := (tasks, workers, wall) :: !pool_runs;
      List.iter
        (fun t ->
          busy_seconds := !busy_seconds +. t.tm_seconds;
          logged := t :: !logged)
        run_timings);
  if Obs.metrics_on () then begin
    Obs.Metrics.incr "pool.runs";
    Obs.Metrics.incr ~by:tasks "pool.tasks";
    Obs.Metrics.observe "pool.run_wall_s" wall;
    List.iter
      (fun t ->
        Obs.Metrics.observe "pool.task_s" t.tm_seconds;
        Obs.Metrics.observe (Printf.sprintf "pool.worker%d.task_s" t.tm_worker) t.tm_seconds)
      run_timings
  end

let map_outcomes ?(jobs = 1) ?label ~(init : unit -> 'w) ~(f : 'w -> 'a -> 'b)
    (items : 'a array) : 'b outcome array =
  let n = Array.length items in
  if n = 0 then [||]
  else
    (* the pool-run span opens on the calling domain, so its id is
       deterministic; every task span is rooted at <run-id>.<task-index>
       below, independent of worker scheduling *)
    Obs.with_span
      ~attrs:(fun () -> [ ("tasks", Obs.Json.Int n) ])
      ~kind:"pool.run" "pool"
    @@ fun () ->
    let ctx = Obs.current_ctx () in
    let label =
      match label with Some l -> l | None -> fun i _ -> "task-" ^ string_of_int i
    in
    let faults = Atomic.get global_faults in
    let workers = max 1 (min jobs n) in
    let t_start = Unix.gettimeofday () in
    let results : 'b outcome option array = Array.make n None in
    let next = Atomic.make 0 in
    let deaths : (exn * Printexc.raw_backtrace) option array = Array.make workers None in
    let wtimes : timing list array = Array.make workers [] in
    (* Run one attempt of task [i]: its outcome, or [None] when the task
       needs another attempt. Everything — fault decision, the task body, retry/quarantine
       bookkeeping — happens inside the task span, so trace events get
       deterministic ids and no exception ever escapes to the worker
       loop. *)
    let run_attempt ~worker st i lbl attempt =
      let fault =
        match faults with Some p -> Faults.decide p ~label:lbl ~attempt | None -> None
      in
      (* attrs stay [] on the clean first-attempt path so a faults-off
         trace is byte-identical (modulo timings) to a sequential one *)
      let span_attrs = ref [] in
      Obs.with_task_span ~worker ~ctx ~index:i ~kind:"pool.task"
        ~attrs:(fun () -> !span_attrs)
        (fun () -> lbl)
        (fun () ->
          if attempt > 0 then span_attrs := [ ("attempt", Obs.Json.Int attempt) ];
          let t0 = Unix.gettimeofday () in
          let run () =
            match f st items.(i) with
            | v -> `Res v
            | exception e -> `Err (e, Printexc.get_raw_backtrace ())
          in
          let res =
            match fault with
            | None -> run ()
            | Some k -> (
                span_attrs :=
                  !span_attrs @ [ ("fault", Obs.Json.Str (Faults.kind_to_string k)) ];
                Atomic.incr g_injected;
                Obs.Metrics.incr "pool.faults.injected";
                Obs.event ~kind:"pool.fault"
                  ~attrs:(fun () ->
                    [
                      ("fault", Obs.Json.Str (Faults.kind_to_string k));
                      ("attempt", Obs.Json.Int attempt);
                    ])
                  lbl;
                match k with
                | Faults.Crash ->
                    (* the attempt never runs, so a later retry observes
                       exactly the state a clean first attempt would *)
                    `Err (Injected_fault lbl, Printexc.get_callstack 0)
                | Faults.Stall ->
                    Atomic.incr g_stalls;
                    Obs.Metrics.incr "pool.stalls";
                    run ())
          in
          wtimes.(worker) <-
            {
              tm_label = lbl;
              tm_worker = worker;
              tm_seconds = Unix.gettimeofday () -. t0;
              tm_attempt = attempt;
              tm_ok = (match res with `Res _ -> true | `Err _ -> false);
              tm_stalled = fault = Some Faults.Stall;
            }
            :: wtimes.(worker);
          match res with
          | `Res v -> Some (Ok v)
          | `Err (e, bt) ->
              let used = attempt + 1 in
              if used > default_retries then begin
                Atomic.incr g_quarantined;
                Obs.Metrics.incr "pool.quarantined";
                span_attrs :=
                  !span_attrs @ [ ("outcome", Obs.Json.Str "quarantined") ];
                Obs.event ~kind:"pool.quarantine"
                  ~attrs:(fun () -> [ ("attempts", Obs.Json.Int used) ])
                  lbl;
                Some (Failed { f_exn = e; f_backtrace = bt; f_attempts = used })
              end
              else begin
                Atomic.incr g_retries;
                Obs.Metrics.incr "pool.retries";
                span_attrs := !span_attrs @ [ ("outcome", Obs.Json.Str "retry") ];
                Obs.event ~kind:"pool.retry"
                  ~attrs:(fun () -> [ ("attempt", Obs.Json.Int attempt) ])
                  lbl;
                None
              end)
    in
    let worker_loop w () =
      match init () with
      | exception e ->
          (* this worker dies alone; the survivors take every task *)
          deaths.(w) <- Some (e, Printexc.get_raw_backtrace ());
          Atomic.incr g_worker_deaths;
          Obs.Metrics.incr "pool.worker_deaths"
      | st ->
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              let lbl = label i items.(i) in
              let rec attempt k =
                match run_attempt ~worker:w st i lbl k with
                | Some o -> results.(i) <- Some o
                | None -> attempt (k + 1)
              in
              attempt 0;
              loop ()
            end
          in
          loop ()
    in
    if workers = 1 then
      (* sequential fast path: same loop, no domain spawned *)
      worker_loop 0 ()
    else begin
      let domains = List.init workers (fun w -> Domain.spawn (worker_loop w)) in
      List.iter Domain.join domains
    end;
    (* a surviving worker drains the counter, so tasks are left
       unresolved only when every worker died: fail them all with the
       first death, worker 0's — deterministic *)
    let outcomes =
      match deaths.(0) with
      | Some (e, bt) when Array.for_all Option.is_some deaths ->
          Atomic.fetch_and_add g_quarantined n |> ignore;
          Obs.Metrics.incr ~by:n "pool.quarantined";
          Array.make n (Failed { f_exn = e; f_backtrace = bt; f_attempts = 0 })
      | _ -> Array.map Option.get results
    in
    finish_run ~t_start ~workers ~tasks:n
      (Array.fold_left (fun acc l -> List.rev_append l acc) [] wtimes);
    outcomes
