(* Unit tests for the domain work pool: ordering, determinism vs the
   sequential path, worker-local state, failure outcomes, and the
   timing accounting. *)

let no_state () = ()

(* the values of an all-Ok outcome array, in task order *)
let values out =
  Array.map
    (function
      | Kernelgpt.Pool.Ok v -> v
      | Kernelgpt.Pool.Failed fl ->
          Alcotest.failf "unexpected failed task: %s" (Printexc.to_string fl.f_exn))
    out

let test_map_preserves_order () =
  let items = Array.init 100 (fun i -> i) in
  let f () x = (x * 2) + 1 in
  let seq = values (Kernelgpt.Pool.map_outcomes ~jobs:1 ~init:no_state ~f items) in
  let par = values (Kernelgpt.Pool.map_outcomes ~jobs:4 ~init:no_state ~f items) in
  Alcotest.(check (array int)) "parallel equals sequential" seq par;
  Alcotest.(check int) "order preserved" 7 par.(3)

let test_map_empty () =
  Alcotest.(check int) "empty input" 0
    (Array.length
       (Kernelgpt.Pool.map_outcomes ~jobs:4 ~init:no_state ~f:(fun () x -> x) [||]))

let test_map_more_jobs_than_tasks () =
  let out =
    Kernelgpt.Pool.map_outcomes ~jobs:16 ~init:no_state ~f:(fun () x -> x + 1) [| 1; 2; 3 |]
  in
  Alcotest.(check (array int)) "pool shrinks to task count" [| 2; 3; 4 |] (values out)

let test_map_init_worker_state_private () =
  (* each worker gets its own counter: grouped by worker, the returned
     running counts must form a gapless 1..k stream, and the streams
     must jointly cover all 64 tasks exactly once *)
  let items = Array.init 64 (fun i -> i) in
  let next_id = Atomic.make 0 in
  let out =
    values
      (Kernelgpt.Pool.map_outcomes ~jobs:4
         ~init:(fun () -> (Atomic.fetch_and_add next_id 1, ref 0))
         ~f:(fun (id, counter) _ ->
           incr counter;
           (id, !counter))
         items)
  in
  Alcotest.(check int) "every task ran" 64 (Array.length out);
  let per_worker = Hashtbl.create 8 in
  Array.iter
    (fun (id, c) ->
      let prev = Option.value (Hashtbl.find_opt per_worker id) ~default:0 in
      Hashtbl.replace per_worker id (max prev c))
    out;
  let covered = Hashtbl.fold (fun _ k acc -> acc + k) per_worker 0 in
  Alcotest.(check int) "worker streams partition the tasks" 64 covered;
  (* each worker's stream is gapless: count c appears exactly once per worker *)
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun (id, c) ->
      Alcotest.(check bool) "no duplicated count in a stream" false (Hashtbl.mem seen (id, c));
      Hashtbl.replace seen (id, c) ())
    out

let test_exception_propagates () =
  let out =
    Kernelgpt.Pool.map_outcomes ~jobs:3 ~init:no_state
      ~f:(fun () x -> if x = 5 then failwith "task exploded" else x)
      (Array.init 20 (fun i -> i))
  in
  match out.(5) with
  | Kernelgpt.Pool.Failed fl ->
      Alcotest.(check bool) "the task's own exception" true (fl.f_exn = Failure "task exploded");
      Alcotest.(check int) "after every attempt"
        (Kernelgpt.Pool.default_retries + 1)
        fl.f_attempts
  | Kernelgpt.Pool.Ok _ -> Alcotest.fail "a raising task cannot succeed"

let test_exception_in_init_propagates () =
  (* every worker's init raises: no task can run, and each fails with
     the init exception without consuming an attempt *)
  let out =
    Kernelgpt.Pool.map_outcomes ~jobs:2
      ~init:(fun () -> failwith "init exploded")
      ~f:(fun () x -> x)
      [| 1; 2; 3 |]
  in
  Array.iter
    (function
      | Kernelgpt.Pool.Failed fl ->
          Alcotest.(check bool) "init exception" true (fl.f_exn = Failure "init exploded");
          Alcotest.(check int) "no attempt consumed" 0 fl.f_attempts
      | Kernelgpt.Pool.Ok _ -> Alcotest.fail "no worker survived to run a task")
    out

let test_stats_accounting () =
  Kernelgpt.Pool.reset_stats ();
  let f () x = x in
  ignore (Kernelgpt.Pool.map_outcomes ~jobs:2 ~init:no_state ~f (Array.init 10 (fun i -> i)));
  ignore (Kernelgpt.Pool.map_outcomes ~jobs:1 ~init:no_state ~f (Array.init 5 (fun i -> i)));
  let s = Kernelgpt.Pool.stats () in
  Alcotest.(check int) "tasks counted across runs" 15 s.s_tasks;
  Alcotest.(check int) "max pool size" 2 s.s_workers;
  Alcotest.(check int) "one timing per task" 15 (List.length (Kernelgpt.Pool.timings ()));
  Kernelgpt.Pool.reset_stats ();
  Alcotest.(check int) "reset clears" 0 (Kernelgpt.Pool.stats ()).s_tasks

let test_labels_logged () =
  Kernelgpt.Pool.reset_stats ();
  ignore
    (Kernelgpt.Pool.map_outcomes ~jobs:2
       ~label:(fun _ x -> "job:" ^ string_of_int x)
       ~init:no_state
       ~f:(fun () x -> x)
       [| 7; 8 |]);
  let labels = List.map (fun t -> t.Kernelgpt.Pool.tm_label) (Kernelgpt.Pool.timings ()) in
  List.iter
    (fun l -> Alcotest.(check bool) (l ^ " recorded") true (List.mem l labels))
    [ "job:7"; "job:8" ]

(* ------------------------------------------------------------------ *)
(* Fault isolation: retries, quarantine, worker death, stuck tasks,    *)
(* injected stalls, and the determinism contract                       *)
(* ------------------------------------------------------------------ *)

(* run [f] with [plan] installed as the process-wide pool fault plan *)
let with_faults plan f =
  Kernelgpt.Pool.set_faults (Some plan);
  Fun.protect ~finally:(fun () -> Kernelgpt.Pool.set_faults None) f

let test_retry_then_succeed () =
  (* the first attempt of task 3 raises; its retry must succeed and the
     overall outcome must be Ok *)
  Kernelgpt.Pool.reset_stats ();
  let mu = Mutex.create () in
  let tried = Hashtbl.create 8 in
  let out =
    Kernelgpt.Pool.map_outcomes ~jobs:2
      ~init:no_state
      ~f:(fun () x ->
        if x = 3 then begin
          Mutex.lock mu;
          let first = not (Hashtbl.mem tried x) in
          Hashtbl.replace tried x ();
          Mutex.unlock mu;
          if first then failwith "flaky"
        end;
        x * 10)
      (Array.init 8 (fun i -> i))
  in
  (match out.(3) with
  | Kernelgpt.Pool.Ok v -> Alcotest.(check int) "retry produced the result" 30 v
  | Kernelgpt.Pool.Failed _ -> Alcotest.fail "flaky task should recover on retry");
  let s = Kernelgpt.Pool.stats () in
  Alcotest.(check int) "one retry recorded" 1 s.s_retries;
  Alcotest.(check int) "nothing quarantined" 0 s.s_quarantined

let test_quarantine_after_budget () =
  Kernelgpt.Pool.reset_stats ();
  let out =
    Kernelgpt.Pool.map_outcomes ~jobs:2
      ~init:no_state
      ~f:(fun () x -> if x = 2 then failwith "always broken" else x)
      (Array.init 6 (fun i -> i))
  in
  (match out.(2) with
  | Kernelgpt.Pool.Failed fl ->
      Alcotest.(check int) "every attempt consumed"
        (Kernelgpt.Pool.default_retries + 1)
        fl.f_attempts;
      Alcotest.(check bool) "last exception kept" true (fl.f_exn = Failure "always broken")
  | Kernelgpt.Pool.Ok _ -> Alcotest.fail "always-broken task cannot succeed");
  Array.iteri
    (fun i o ->
      if i <> 2 then
        match o with
        | Kernelgpt.Pool.Ok v -> Alcotest.(check int) "sibling task unharmed" i v
        | Kernelgpt.Pool.Failed _ -> Alcotest.fail "only task 2 should fail")
    out;
  let s = Kernelgpt.Pool.stats () in
  Alcotest.(check int) "one task quarantined" 1 s.s_quarantined;
  Alcotest.(check int) "retries before giving up" Kernelgpt.Pool.default_retries s.s_retries

let test_worker_death_degrades () =
  (* one domain's init raises: the pool must degrade to the survivors
     and still resolve every task *)
  Kernelgpt.Pool.reset_stats ();
  let next = Atomic.make 0 in
  let out =
    Kernelgpt.Pool.map_outcomes ~jobs:3
      ~init:(fun () ->
        if Atomic.fetch_and_add next 1 = 0 then failwith "init exploded";
        ())
      ~f:(fun () x -> x + 1)
      (Array.init 12 (fun i -> i))
  in
  Array.iteri
    (fun i o ->
      match o with
      | Kernelgpt.Pool.Ok v -> Alcotest.(check int) "survivors ran every task" (i + 1) v
      | Kernelgpt.Pool.Failed _ -> Alcotest.fail "no task should be lost to a worker death")
    out;
  let s = Kernelgpt.Pool.stats () in
  Alcotest.(check int) "one worker death recorded" 1 s.s_worker_deaths

let test_stuck_task_spares_siblings () =
  (* task 0, the first one taken, blocks until every sibling has
     finished: the other worker must take all of them meanwhile *)
  let n = 16 in
  let finished = Atomic.make 0 in
  let out =
    Kernelgpt.Pool.map_outcomes ~jobs:2 ~init:no_state
      ~f:(fun () x ->
        if x = 0 then begin
          let t0 = Unix.gettimeofday () in
          while Atomic.get finished < n - 1 && Unix.gettimeofday () -. t0 < 10.0 do
            Unix.sleepf 0.001
          done;
          Atomic.get finished
        end
        else begin
          Atomic.incr finished;
          x
        end)
      (Array.init n (fun i -> i))
  in
  let out = values out in
  Alcotest.(check int) "every sibling finished while task 0 was stuck" (n - 1) out.(0);
  Array.iteri (fun i v -> if i > 0 then Alcotest.(check int) "sibling result" i v) out

let test_stall_marks_timing () =
  (* at rate 100 every attempt is a crash or a stall; a stall still runs
     the task, and exactly the stalled attempts carry the mark *)
  let plan = Kernelgpt.Pool.Faults.make ~seed:11 ~rate_pct:100 () in
  let label i _ = "stall:" ^ string_of_int i in
  Kernelgpt.Pool.reset_stats ();
  with_faults plan (fun () ->
      ignore
        (Kernelgpt.Pool.map_outcomes ~jobs:2 ~label ~init:no_state ~f:(fun () x -> x)
           (Array.init 12 (fun i -> i))));
  let s = Kernelgpt.Pool.stats () in
  let timings = Kernelgpt.Pool.timings () in
  Alcotest.(check bool) "some attempt stalled" true (s.s_stalls > 0);
  Alcotest.(check int) "one marked entry per stall" s.s_stalls
    (List.length (List.filter (fun t -> t.Kernelgpt.Pool.tm_stalled) timings));
  List.iter
    (fun (t : Kernelgpt.Pool.timing) ->
      let stalled =
        Kernelgpt.Pool.Faults.decide plan ~label:t.tm_label ~attempt:t.tm_attempt
        = Some Kernelgpt.Pool.Faults.Stall
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s attempt %d marked" t.tm_label t.tm_attempt)
        stalled t.tm_stalled;
      if stalled then Alcotest.(check bool) "a stalled attempt still runs" true t.tm_ok)
    timings

(* QCheck: for any fault plan, and tasks that really raise on their
   first k runs, outcomes and resilience counters are identical at jobs
   1 and jobs 3 — the determinism contract the CI byte-diffs rely on *)
let prop_jobs_identity =
  let n = 24 in
  QCheck.Test.make ~name:"fault outcomes independent of jobs" ~count:30
    QCheck.(triple (int_bound 100) (int_bound 1000) (array_of_size (Gen.return n) (int_bound 3)))
    (fun (rate, seed, flaky) ->
      let plan = Kernelgpt.Pool.Faults.make ~seed ~rate_pct:rate () in
      let items = Array.init n (fun i -> i) in
      let run jobs =
        Kernelgpt.Pool.reset_stats ();
        let runs = Array.init n (fun _ -> Atomic.make 0) in
        let out =
          with_faults plan (fun () ->
              Kernelgpt.Pool.map_outcomes ~jobs
                ~label:(fun i _ -> "prop:" ^ string_of_int i)
                ~init:no_state
                ~f:(fun () x ->
                  let r = Atomic.fetch_and_add runs.(x) 1 in
                  if r < flaky.(x) then failwith (Printf.sprintf "flaky %d run %d" x r);
                  x * 7)
                items)
        in
        let s = Kernelgpt.Pool.stats () in
        let shape =
          Array.map
            (function
              | Kernelgpt.Pool.Ok v -> `Ok v
              | Kernelgpt.Pool.Failed fl ->
                  `Failed (fl.Kernelgpt.Pool.f_attempts, Printexc.to_string fl.f_exn))
            out
        in
        ( shape,
          Array.map Atomic.get runs,
          (s.s_retries, s.s_quarantined, s.s_faults_injected, s.s_stalls) )
      in
      run 1 = run 3)

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "pool"
    [
      ( "pool",
        [
          t "order preserved" test_map_preserves_order;
          t "empty input" test_map_empty;
          t "more jobs than tasks" test_map_more_jobs_than_tasks;
          t "worker state private" test_map_init_worker_state_private;
          t "task exception propagates" test_exception_propagates;
          t "init exception propagates" test_exception_in_init_propagates;
          t "stats accounting" test_stats_accounting;
          t "labels logged" test_labels_logged;
        ] );
      ( "faults",
        [
          t "retry then succeed" test_retry_then_succeed;
          t "quarantine after budget" test_quarantine_after_budget;
          t "worker death degrades pool" test_worker_death_degrades;
          t "a stuck task does not hold up its siblings" test_stuck_task_spares_siblings;
          t "an injected stall marks its timing entry" test_stall_marks_timing;
          QCheck_alcotest.to_alcotest prop_jobs_identity;
        ] );
    ]
