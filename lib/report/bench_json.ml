(** BENCH_*.json emission: machine-readable throughput numbers for a
    report run.

    The runner times each phase with wall clocks that never touch
    stdout (the tables stay byte-identical with or without a collector)
    and folds the totals into one JSON artifact:

    {v
    { "format": "kernelgpt-bench", "schema": 1,
      "sched": "uniform", "scale": "quick", "which": "all", "jobs": 1,
      "generation": { "wall_s": ..., "specs": N, "specs_per_s": ...,
                      "oracle_queries": N, "oracle_queries_per_s": ... },
      "tables": [ { "name": "table4", "wall_s": ...,
                    "executions": N, "execs_per_s": ... }, ... ],
      "total_wall_s": ... }
    v}

    [executions] counts the programs the campaigns actually ran
    ({!Fuzzer.Campaign.result.executions} summed over every campaign of
    the table), not a budget estimate, so fault-injected runs report
    their real throughput. Non-fuzzing tables (1, 2, fig 7,
    correctness) are simply never added.

    The file is written atomically ({!Obs.Record_file.write_atomic},
    like checkpoints and the oracle answer cache) and parsed back before
    the rename: a torn or malformed artifact is a hard error, never a
    silently corrupt one. *)

module J = Obs.Json

type table = { bt_name : string; bt_wall_s : float; bt_executions : int }

type t = {
  b_sched : string;
  b_scale : string;
  b_which : string;
  b_jobs : int;
  mutable b_gen_wall_s : float;
  mutable b_gen_specs : int;
  mutable b_gen_queries : int;
  mutable b_tables : table list;  (** reverse order of {!add_table} calls *)
  mutable b_total_wall_s : float;
}

let create ~sched ~scale ~which ~jobs =
  {
    b_sched = sched;
    b_scale = scale;
    b_which = which;
    b_jobs = jobs;
    b_gen_wall_s = 0.0;
    b_gen_specs = 0;
    b_gen_queries = 0;
    b_tables = [];
    b_total_wall_s = 0.0;
  }

let set_generation (t : t) ~wall_s ~specs ~queries =
  t.b_gen_wall_s <- wall_s;
  t.b_gen_specs <- specs;
  t.b_gen_queries <- queries

let add_table (t : t) ~name ~wall_s ~executions =
  t.b_tables <- { bt_name = name; bt_wall_s = wall_s; bt_executions = executions } :: t.b_tables

let set_total (t : t) wall_s = t.b_total_wall_s <- wall_s

(** Where a report writes its artifact unless told otherwise. *)
let default_file (t : t) = Printf.sprintf "BENCH_%s_%s.json" t.b_which t.b_scale

let rate count wall_s = if wall_s > 0.0 then float_of_int count /. wall_s else 0.0

let to_json (t : t) : J.t =
  J.Obj
    [
      ("format", J.Str "kernelgpt-bench");
      ("schema", J.Int 1);
      ("sched", J.Str t.b_sched);
      ("scale", J.Str t.b_scale);
      ("which", J.Str t.b_which);
      ("jobs", J.Int t.b_jobs);
      ( "generation",
        J.Obj
          [
            ("wall_s", J.Float t.b_gen_wall_s);
            ("specs", J.Int t.b_gen_specs);
            ("specs_per_s", J.Float (rate t.b_gen_specs t.b_gen_wall_s));
            ("oracle_queries", J.Int t.b_gen_queries);
            ("oracle_queries_per_s", J.Float (rate t.b_gen_queries t.b_gen_wall_s));
          ] );
      ( "tables",
        J.List
          (List.rev_map
             (fun tb ->
               J.Obj
                 [
                   ("name", J.Str tb.bt_name);
                   ("wall_s", J.Float tb.bt_wall_s);
                   ("executions", J.Int tb.bt_executions);
                   ("execs_per_s", J.Float (rate tb.bt_executions tb.bt_wall_s));
                 ])
             t.b_tables) );
      ("total_wall_s", J.Float t.b_total_wall_s);
    ]

(** Write the artifact atomically. The body is parsed back before the
    rename; a self-check failure leaves no file behind. *)
let write (t : t) ~(file : string) : unit =
  let body = J.to_string (to_json t) ^ "\n" in
  (match J.parse body with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "Bench_json.write: emitted invalid JSON (%s)" e));
  Obs.Record_file.write_atomic file body
