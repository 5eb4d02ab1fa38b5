(** The metric catalog (names and units, mirrored by [BENCHMARK.json])
    and the benchmark's three output forms: one text line per metric,
    the [--out] JSON file, and the final one-line JSON result. *)

let stages = [ "extraction"; "identifier"; "type"; "dependency"; "device"; "socket"; "validate" ]
let queries = [ "identifier"; "type"; "dependency"; "device"; "socket"; "repair" ]
let ops = Array.to_list (Array.map Fuzzer.Mutator.name Fuzzer.Mutator.all)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_us.p50", "us");
    ("heap_peak_mb", "MB");
  ]

let per_layer =
  [
    ("op_us.p99", "us");
    ("vkernel.boot_ms", "ms");
    ("vkernel.boot_words", "words");
    ("vkernel.jit_ms", "ms");
    ("report.suites_build_ms", "ms");
    ("syzlang.merge_ms", "ms");
    ("syzlang.resolve_ms", "ms");
    ("fuzzer.prepare_ms", "ms");
    ("kernelgpt.pipeline_us", "us");
    ("kernelgpt.pipeline_words", "words");
  ]
  @ List.map (fun s -> ("kernelgpt.stage." ^ s ^ "_self_us", "us")) stages
  @ List.concat_map
      (fun q -> [ ("oracle.query." ^ q ^ "_self_us", "us"); ("oracle.query." ^ q ^ "_calls", "count") ])
      queries
  @ [
      ("kernelgpt.repair_rounds", "count");
      ("oracle.cache_hit_ratio", "ratio");
      ("baseline.syzdescribe_us", "us");
      ("syzlang.validate_us", "us");
      ("fuzzer.step_words", "words");
      ("fuzzer.generate_us", "us");
      ("fuzzer.generate_words", "words");
    ]
  @ List.concat_map
      (fun op ->
        let p = "fuzzer.mutate." ^ op in
        [ (p ^ "_us", "us"); (p ^ "_words", "words"); (p ^ "_noop_ratio", "ratio") ])
      ops
  @ [
      ("vkernel.exec_us", "us");
      ("vkernel.exec_words", "words");
      ("vkernel.exec_empty_us", "us");
      ("vkernel.exec_timeout_ratio", "ratio");
      ("vkernel.exec_crash_ratio", "ratio");
      ("fuzzer.fresh_ratio", "ratio");
      ("fuzzer.mutate_share", "ratio");
      ("share.generate", "ratio");
    ]
  @ List.map (fun op -> ("share.mutate." ^ op, "ratio")) ops
  @ [ ("share.exec", "ratio") ]
  @ List.map (fun s -> ("share.stage." ^ s, "ratio")) stages
  @ [
      ("share.oracle", "ratio");
      ("share.syzdescribe", "ratio");
      ("share.other", "ratio");
      ("trace.overhead_ratio", "ratio");
      ("machine.slowdown", "ratio");
    ]

(** One measured value. [n] is the number of samples behind it;
    [quartiles] are given when it summarizes a distribution, and [raw]
    is the value before scaling to the reference machine's speed. *)
type metric = {
  name : string;
  value : float;
  n : int;
  quartiles : (float * float) option;
  raw : float option;
}

let metric ?(n = 1) ?quartiles ?raw name value = { name; value; n; quartiles; raw }

type result = {
  workload : string;
  seed : int;
  trace : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let catalog r = if r.trace then per_layer else end_to_end

(** The result's metrics in catalog order, with units. Fails when a
    catalog metric was not measured or a measured one is not in the
    catalog — both are benchmark bugs, never run-time conditions. *)
let ordered r =
  List.iter
    (fun m ->
      if not (List.mem_assoc m.name (catalog r)) then
        failwith (Printf.sprintf "metric %s is not in the catalog" m.name))
    r.metrics;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) r.metrics with
      | Some m -> (m, unit_)
      | None -> failwith (Printf.sprintf "metric %s was not measured" name))
    (catalog r)

let json_value v = if Float.is_finite v then Obs.Json.Float v else Obs.Json.Null

let print_lines oc r =
  List.iter
    (fun (m, unit_) ->
      Printf.fprintf oc "%s %s %.6g %s n=%d%s\n" r.workload m.name m.value unit_ m.n
        (match m.raw with Some v -> Printf.sprintf " raw=%.6g" v | None -> ""))
    (ordered r)

(** The final result line: correctness, operation counts, and each
    metric with its unit. *)
let result_json r =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool (r.failed = 0));
      ("attempted", Obs.Json.Int r.attempted);
      ("failed", Obs.Json.Int r.failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun (m, unit_) ->
               (m.name, Obs.Json.Obj [ ("value", json_value m.value); ("unit", Obs.Json.Str unit_) ]))
             (ordered r)) );
    ]

(** The [--out] document: the result line's data plus the run's
    identity, sample counts and quartiles. *)
let out_json r =
  Obs.Json.Obj
    [
      ("workload", Obs.Json.Str r.workload);
      ("seed", Obs.Json.Int r.seed);
      ("trace", Obs.Json.Bool r.trace);
      ("correct", Obs.Json.Bool (r.failed = 0));
      ("attempted", Obs.Json.Int r.attempted);
      ("failed", Obs.Json.Int r.failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun (m, unit_) ->
               ( m.name,
                 Obs.Json.Obj
                   ([ ("value", json_value m.value); ("unit", Obs.Json.Str unit_); ("n", Obs.Json.Int m.n) ]
                   @ (match m.quartiles with
                     | Some (q1, q3) -> [ ("q1", json_value q1); ("q3", json_value q3) ]
                     | None -> [])
                   @ match m.raw with Some v -> [ ("raw", json_value v) ] | None -> []) ))
             (ordered r)) );
    ]

(** Quartiles and median of a non-empty sample, by linear interpolation
    (the rule of Python's [statistics.quantiles] with [method="inclusive"]). *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let at p =
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  in
  (at 0.25, at 0.5, at 0.75)

(** The median of a sample, 0 when it is empty. *)
let median = function
  | [] -> 0.0
  | xs ->
      let _, m, _ = quartiles xs in
      m
