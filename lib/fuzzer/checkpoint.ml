(** Durable campaign checkpoints. See checkpoint.mli for the format. *)

module J = Obs.Json
module R = Obs.Record_file

(* version 2: adaptive-scheduling state — the sched mode, per-operator
   credit, per-slot seed statistics, totals, and the first-crash mark *)
let version = 2

let format_tag = "kernelgpt-checkpoint"

type snapshot = {
  spec_name : string;
  seed : int;
  budget : int;
  step_budget : int;
  max_corpus : int;
  supervisor : Supervisor.config;
  sched : Schedule.mode;
  rng_state : int64;
  executions : int;
  evictions : int;
  working_str : string option;
  coverage : int list;
  corpus : (Vkernel.Machine.prog * int * int) list;
  crashes : (string * Vkernel.Machine.prog * int) list;
  op_stats : (int * int) list;
  sched_totals : int * int;
  sup_health : int list;
  sup_counters : int * int * int * int;
}

(* ------------------------------------------------------------------ *)
(* Program encoding                                                    *)
(* ------------------------------------------------------------------ *)

let rec j_of_uval (uv : Vkernel.Value.uval) : J.t =
  match uv with
  | Vkernel.Value.U_int v -> J.Obj [ ("int", R.j_int64 v) ]
  | Vkernel.Value.U_str s -> J.Obj [ ("str", J.Str s) ]
  | Vkernel.Value.U_null -> J.Null
  | Vkernel.Value.U_arr xs -> J.List (List.map j_of_uval xs)
  | Vkernel.Value.U_struct (name, fields) ->
      J.Obj
        [
          ("struct", J.Str name);
          ("fields", J.Obj (List.map (fun (f, v) -> (f, j_of_uval v)) fields));
        ]

let j_of_parg (a : Vkernel.Machine.parg) : J.t =
  match a with
  | Vkernel.Machine.P_int v -> J.Obj [ ("int", R.j_int64 v) ]
  | Vkernel.Machine.P_str s -> J.Obj [ ("str", J.Str s) ]
  | Vkernel.Machine.P_data uv -> J.Obj [ ("data", j_of_uval uv) ]
  | Vkernel.Machine.P_null -> J.Null
  | Vkernel.Machine.P_result i -> J.Obj [ ("result", J.Int i) ]

let j_of_prog (p : Vkernel.Machine.prog) : J.t =
  J.List
    (List.map
       (fun (c : Vkernel.Machine.call) ->
         J.Obj [ ("name", J.Str c.c_name); ("args", J.List (List.map j_of_parg c.c_args)) ])
       p)

let rec uval_of (j : J.t) : Vkernel.Value.uval =
  match j with
  | J.Null -> Vkernel.Value.U_null
  | J.List xs -> Vkernel.Value.U_arr (List.map uval_of xs)
  | J.Obj [ ("int", v) ] -> Vkernel.Value.U_int (R.int64_of v)
  | J.Obj [ ("str", J.Str s) ] -> Vkernel.Value.U_str s
  | J.Obj [ ("struct", J.Str name); ("fields", J.Obj fields) ] ->
      Vkernel.Value.U_struct (name, List.map (fun (f, v) -> (f, uval_of v)) fields)
  | _ -> R.bad "bad user-value encoding"

let parg_of (j : J.t) : Vkernel.Machine.parg =
  match j with
  | J.Null -> Vkernel.Machine.P_null
  | J.Obj [ ("int", v) ] -> Vkernel.Machine.P_int (R.int64_of v)
  | J.Obj [ ("str", J.Str s) ] -> Vkernel.Machine.P_str s
  | J.Obj [ ("data", uv) ] -> Vkernel.Machine.P_data (uval_of uv)
  | J.Obj [ ("result", J.Int i) ] -> Vkernel.Machine.P_result i
  | _ -> R.bad "bad syscall-argument encoding"

let prog_of (j : J.t) : Vkernel.Machine.prog =
  match j with
  | J.List calls ->
      List.map
        (function
          | J.Obj [ ("name", J.Str name); ("args", J.List args) ] ->
              { Vkernel.Machine.c_name = name; c_args = List.map parg_of args }
          | _ -> R.bad "bad call encoding")
        calls
  | _ -> R.bad "program is not a list"

(* ------------------------------------------------------------------ *)
(* Save                                                                *)
(* ------------------------------------------------------------------ *)

let save file (s : snapshot) =
  let meta =
    J.Obj
      [
        ("spec", J.Str s.spec_name);
        ("seed", J.Int s.seed);
        ("budget", J.Int s.budget);
        ("step_budget", J.Int s.step_budget);
        ("max_corpus", J.Int s.max_corpus);
        ("instances", J.Int s.supervisor.Supervisor.instances);
        ("wedge_threshold", J.Int s.supervisor.Supervisor.wedge_threshold);
        ("exec_fault_rate", J.Int s.supervisor.Supervisor.fault_rate);
        ("exec_fault_seed", J.Int s.supervisor.Supervisor.fault_seed);
        ("sched", J.Str (Schedule.mode_to_string s.sched));
      ]
  in
  let reboots, lost, injected, timeouts = s.sup_counters in
  let seed_total, op_total = s.sched_totals in
  let state =
    J.Obj
      [
        ("rng", R.j_int64 s.rng_state);
        ("executions", J.Int s.executions);
        ("evictions", J.Int s.evictions);
        ("working_str", match s.working_str with None -> J.Null | Some w -> J.Str w);
        ("reboots", J.Int reboots);
        ("lost", J.Int lost);
        ("injected", J.Int injected);
        ("timeouts", J.Int timeouts);
        ("health", J.List (List.map (fun h -> J.Int h) s.sup_health));
        ("op_uses", J.List (List.map (fun (u, _) -> J.Int u) s.op_stats));
        ("op_reward", J.List (List.map (fun (_, w) -> J.Int w) s.op_stats));
        ("seed_total", J.Int seed_total);
        ("op_total", J.Int op_total);
      ]
  in
  let coverage = J.Obj [ ("coverage", J.List (List.map (fun sid -> J.Int sid) s.coverage)) ] in
  let corpus =
    List.map
      (fun (p, visits, reward) ->
        J.Obj [ ("corpus", j_of_prog p); ("visits", J.Int visits); ("reward", J.Int reward) ])
      s.corpus
  in
  let crashes =
    List.map
      (fun (title, p, seen) ->
        J.Obj [ ("crash", J.Str title); ("prog", j_of_prog p); ("seen", J.Int seen) ])
      s.crashes
  in
  let bytes =
    R.save ~file
      ~header:(J.Obj [ ("format", J.Str format_tag); ("version", J.Int version) ])
      ((meta :: state :: coverage :: corpus) @ crashes)
  in
  Obs.Metrics.incr "fuzz.checkpoint_writes";
  if Obs.metrics_on () then Obs.Metrics.observe "fuzz.checkpoint_bytes" (float_of_int bytes)

(* ------------------------------------------------------------------ *)
(* Load                                                                *)
(* ------------------------------------------------------------------ *)

let field name j =
  match J.member name j with
  | Some v -> v
  | None -> R.bad "missing field %S" name

let int_field name j =
  match field name j with J.Int i -> i | _ -> R.bad "field %S is not an int" name

let str_field name j =
  match field name j with J.Str s -> s | _ -> R.bad "field %S is not a string" name

let int_list name j =
  match field name j with
  | J.List xs -> List.map (function J.Int x -> x | _ -> R.bad "bad %S entry" name) xs
  | _ -> R.bad "field %S is not a list" name

let decode _header = function
  | meta :: state :: coverage :: rest ->
      let meta = R.parse meta in
      let supervisor =
        {
          Supervisor.instances = int_field "instances" meta;
          wedge_threshold = int_field "wedge_threshold" meta;
          fault_rate = int_field "exec_fault_rate" meta;
          fault_seed = int_field "exec_fault_seed" meta;
        }
      in
      let state = R.parse state in
      let coverage =
        match field "coverage" (R.parse coverage) with
        | J.List sids -> List.map (function J.Int s -> s | _ -> R.bad "bad coverage id") sids
        | _ -> R.bad "field \"coverage\" is not a list"
      in
      let corpus = ref [] and crashes = ref [] in
      List.iter
        (fun ((lineno, _) as line) ->
          let j = R.parse line in
          match (J.member "corpus" j, J.member "crash" j) with
          | Some p, None ->
              corpus := (prog_of p, int_field "visits" j, int_field "reward" j) :: !corpus
          | None, Some (J.Str title) ->
              crashes := (title, prog_of (field "prog" j), int_field "seen" j) :: !crashes
          | _ -> R.bad "line %d: neither a corpus nor a crash record" lineno)
        rest;
      let op_uses = int_list "op_uses" state and op_reward = int_list "op_reward" state in
      if List.length op_uses <> List.length op_reward then
        R.bad "operator statistics disagree (%d uses vs %d rewards)" (List.length op_uses)
          (List.length op_reward);
      {
        spec_name = str_field "spec" meta;
        seed = int_field "seed" meta;
        budget = int_field "budget" meta;
        step_budget = int_field "step_budget" meta;
        max_corpus = int_field "max_corpus" meta;
        supervisor;
        sched =
          (let s = str_field "sched" meta in
           match Schedule.mode_of_string s with
           | Some m -> m
           | None -> R.bad "unknown scheduling mode %S" s);
        rng_state = R.int64_of (field "rng" state);
        executions = int_field "executions" state;
        evictions = int_field "evictions" state;
        working_str =
          (match field "working_str" state with
          | J.Null -> None
          | J.Str w -> Some w
          | _ -> R.bad "field \"working_str\" is neither null nor a string");
        coverage;
        corpus = List.rev !corpus;
        crashes = List.rev !crashes;
        op_stats = List.combine op_uses op_reward;
        sched_totals = (int_field "seed_total" state, int_field "op_total" state);
        sup_health =
          (match field "health" state with
          | J.List hs -> List.map (function J.Int h -> h | _ -> R.bad "bad health entry") hs
          | _ -> R.bad "field \"health\" is not a list");
        sup_counters =
          ( int_field "reboots" state,
            int_field "lost" state,
            int_field "injected" state,
            int_field "timeouts" state );
      }
  | records ->
      R.bad "truncated checkpoint (%d records; header, meta, state and coverage required)"
        (List.length records + 1)

let load file : (snapshot, string) result =
  R.load ~what:"checkpoint" ~format:format_tag ~version file decode
