(* Unit tests for the observability subsystem: JSON round-trips, span
   nesting and deterministic ids, the zero-overhead-when-disabled
   contract, metrics accounting, and trace-equality between sequential
   and parallel pool runs. *)

let temp_trace () = Filename.temp_file "kgpt-obs" ".jsonl"

let read_records file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line -> (
        match Obs.Json.parse line with
        | Ok v -> go (v :: acc)
        | Error e -> failwith ("bad trace line: " ^ e))
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let str_member k v =
  match Obs.Json.member k v with
  | Some (Obs.Json.Str s) -> Some s
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let open Obs.Json in
  let values =
    [
      Null;
      Bool true;
      Bool false;
      Int 0;
      Int (-42);
      Int max_int;
      Float 1.5;
      Float (-0.25);
      Str "";
      Str "plain";
      Str "esc \" \\ \n \t \r controls \x01\x1f";
      Str "unicode \xc3\xa9\xe2\x82\xac";
      Str "astral \xf0\x9f\x98\x80 \xf0\x9d\x84\x9e";
      Str "all controls \x00\x08\x0b\x0c\x1e";
      List [];
      List [ Int 1; Str "two"; Null ];
      Obj [];
      Obj [ ("a", Int 1); ("b", List [ Bool false ]); ("nested", Obj [ ("c", Str "d") ]) ];
    ]
  in
  List.iter
    (fun v ->
      let s = to_string v in
      match parse s with
      | Ok v' -> Alcotest.(check bool) ("roundtrip " ^ s) true (v = v')
      | Error e -> Alcotest.failf "parse failed on %s: %s" s e)
    values

let test_json_surrogate_pairs () =
  let open Obs.Json in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec scan i = i + ln <= lh && (String.sub hay i ln = needle || scan (i + 1)) in
    scan 0
  in
  let ok s expect label =
    match parse s with
    | Ok (Str got) -> Alcotest.(check string) label expect got
    | Ok _ -> Alcotest.failf "%s: expected a string" label
    | Error e -> Alcotest.failf "%s: rejected: %s" label e
  in
  (* \uD83D\uDE00 = U+1F600, \uD834\uDD1E = U+1D11E *)
  ok "\"\\uD83D\\uDE00\"" "\xf0\x9f\x98\x80" "surrogate pair decodes to one scalar";
  ok "\"a\\uD834\\uDD1Ez\"" "a\xf0\x9d\x84\x9ez" "embedded pair";
  ok "\"\\ud83d\\ude00\"" "\xf0\x9f\x98\x80" "lowercase hex pair";
  ok "\"\\u00e9\"" "\xc3\xa9" "BMP escape still works";
  ok "\"\\uFFFF\"" "\xef\xbf\xbf" "top of BMP";
  List.iter
    (fun (s, needle) ->
      match parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S fails mentioning %S (got %S)" s needle e)
            true (contains e needle))
    [
      ("\"\\uD800\"", "lone high surrogate");
      ("\"\\uD800x\"", "lone high surrogate");
      ("\"\\uD800\\n\"", "lone high surrogate");
      ("\"\\uDC00\"", "lone low surrogate");
      ("\"\\uDFFF ok\"", "lone low surrogate");
      ("\"\\uD800\\u0041\"", "not followed by low surrogate");
      ("\"\\uD800\\uD800\"", "not followed by low surrogate");
    ]

let test_json_rejects_garbage () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "parse accepted %S" s
      | Error _ -> ())
    bad

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting_ids () =
  Obs.reset ();
  let file = temp_trace () in
  Obs.enable_trace_file file;
  Obs.with_span ~kind:"outer" "a" (fun () ->
      Obs.with_span ~kind:"inner" "b" (fun () -> ());
      Obs.with_span
        ~attrs:(fun () -> [ ("n", Obs.Json.Int 7) ])
        ~kind:"inner" "c"
        (fun () -> ()));
  Obs.with_span ~kind:"outer" "d" (fun () -> ());
  Obs.reset ();
  let records = read_records file in
  Sys.remove file;
  (* children close before parents, roots in creation order *)
  let find name =
    List.find (fun r -> str_member "name" r = Some name) records
  in
  Alcotest.(check int) "four spans" 4 (List.length records);
  Alcotest.(check (option string)) "root id" (Some "s0") (str_member "id" (find "a"));
  Alcotest.(check (option string)) "first child" (Some "s0.0") (str_member "id" (find "b"));
  Alcotest.(check (option string)) "second child" (Some "s0.1") (str_member "id" (find "c"));
  Alcotest.(check (option string)) "second root" (Some "s1") (str_member "id" (find "d"));
  Alcotest.(check (option string)) "child parent" (Some "s0") (str_member "parent" (find "b"));
  Alcotest.(check bool) "root parent is null" true
    (Obs.Json.member "parent" (find "d") = Some Obs.Json.Null);
  (* attrs captured at close *)
  let attrs = Option.get (Obs.Json.member "attrs" (find "c")) in
  Alcotest.(check bool) "attr recorded" true
    (Obs.Json.member "n" attrs = Some (Obs.Json.Int 7))

let test_span_error_attr () =
  Obs.reset ();
  let file = temp_trace () in
  Obs.enable_trace_file file;
  (try Obs.with_span ~kind:"k" "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  Obs.reset ();
  let records = read_records file in
  Sys.remove file;
  Alcotest.(check int) "span still emitted" 1 (List.length records);
  let attrs = Option.get (Obs.Json.member "attrs" (List.hd records)) in
  Alcotest.(check bool) "error flagged" true
    (Obs.Json.member "error" attrs = Some (Obs.Json.Bool true))

let test_disabled_no_allocation () =
  Obs.reset ();
  (* both subsystems off: the gated recording paths must not allocate.
     Gc.minor_words itself returns a boxed float, so allow a small
     constant slack rather than demanding an exact zero delta. *)
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.with_span ~kind:"k" "hot" (fun () -> ());
    Obs.Metrics.incr "c";
    Obs.Metrics.observe "h" 1.0
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "hot path allocates nothing when disabled (delta=%.0f)" delta)
    true (delta < 100.0);
  (* passing ~attrs costs the caller exactly one option cell (2 words)
     per call — the closure body is never entered while disabled *)
  let attrs () = [ ("x", Obs.Json.Int 1) ] in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.with_span ~attrs ~kind:"k" "hot" (fun () -> ())
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "attrs stays unevaluated when disabled (delta=%.0f)" delta)
    true (delta <= 20_100.0)

let test_validate_trace_file () =
  Obs.reset ();
  let file = temp_trace () in
  Obs.enable_trace_file file;
  Obs.with_span ~kind:"alpha" "a" (fun () ->
      Obs.with_span ~kind:"beta" "b" (fun () -> ());
      Obs.event ~kind:"beta" "ev");
  Obs.reset ();
  (match Obs.validate_trace_file file with
  | Error e -> Alcotest.failf "valid trace rejected: %s" e
  | Ok stats ->
      Alcotest.(check int) "record count" 3 stats.Obs.ts_records;
      Alcotest.(check (list (pair string int)))
        "kind histogram"
        [ ("alpha", 1); ("beta", 2) ]
        stats.Obs.ts_kinds);
  (* a corrupt line is reported with its number *)
  let oc = open_out_gen [ Open_append ] 0o644 file in
  output_string oc "{\"id\":1}\n";
  close_out oc;
  (match Obs.validate_trace_file file with
  | Ok _ -> Alcotest.fail "schema violation accepted"
  | Error e ->
      Alcotest.(check bool) ("names the line: " ^ e) true
        (String.length e >= 6 && String.sub e 0 6 = "line 4"));
  Sys.remove file

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  Obs.reset ();
  Obs.Metrics.incr "off";  (* disabled: must not record *)
  Alcotest.(check int) "disabled recorder is a no-op" 0 (Obs.Metrics.counter_value "off");
  Obs.enable_metrics ();
  Obs.Metrics.incr "a";
  Obs.Metrics.incr ~by:4 "a";
  Obs.Metrics.gauge "g" 2.5;
  Obs.Metrics.observe "h" 1.0;
  Obs.Metrics.observe "h" 3.0;
  Alcotest.(check int) "counter accumulates" 5 (Obs.Metrics.counter_value "a");
  let file = Filename.temp_file "kgpt-metrics" ".txt" in
  let oc = open_out file in
  Obs.Metrics.render oc;
  close_out oc;
  Obs.reset ();
  let ic = open_in file in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  Sys.remove file;
  List.iter
    (fun needle ->
      let present =
        let ln = String.length needle and lb = String.length body in
        let rec scan i = i + ln <= lb && (String.sub body i ln = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (needle ^ " rendered") true present)
    [ "[metrics] a"; "[metrics] g"; "[metrics] h"; "n=2"; "mean=2.0" ]

(* ------------------------------------------------------------------ *)
(* Parallel determinism                                                *)
(* ------------------------------------------------------------------ *)

(* Run the same pool workload sequentially and with 4 workers, each
   traced; stdout (captured around the merged-result print) must match
   byte for byte, and so must the span sets once the volatile "t" field
   is dropped. *)
let test_jobs_trace_equality () =
  let items = Array.init 23 (fun i -> i) in
  let run jobs =
    Obs.reset ();
    let file = temp_trace () in
    Obs.enable_trace_file file;
    let out = Filename.temp_file "kgpt-stdout" ".txt" in
    let saved = Unix.dup Unix.stdout in
    let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
    flush stdout;
    Unix.dup2 fd Unix.stdout;
    Unix.close fd;
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      (fun () ->
        let results =
          Kernelgpt.Pool.map_outcomes ~jobs
            ~label:(fun i _ -> "item-" ^ string_of_int i)
            ~init:(fun () -> ())
            ~f:(fun () x -> x * x)
            items
        in
        Array.iter
          (function
            | Kernelgpt.Pool.Ok r -> Printf.printf "%d\n" r
            | Kernelgpt.Pool.Failed _ -> print_endline "failed")
          results;
        flush stdout);
    Obs.reset ();
    let ic = open_in out in
    let stdout_bytes = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove out;
    let spans =
      List.map
        (fun r ->
          ( Option.get (str_member "id" r),
            Option.get (str_member "kind" r),
            Option.get (str_member "name" r) ))
        (read_records file)
      |> List.sort compare
    in
    Sys.remove file;
    (stdout_bytes, spans)
  in
  let out1, spans1 = run 1 in
  let out4, spans4 = run 4 in
  Alcotest.(check string) "stdout byte-identical" out1 out4;
  Alcotest.(check int) "one span per task plus the pool run" 24 (List.length spans1);
  Alcotest.(check (list (triple string string string)))
    "span sets identical across --jobs" spans1 spans4

(* The temp-file rename must not replace a target that is not a regular
   file: a FIFO stays a FIFO, the error names it and no temp file is
   left. A regular file is still replaced. *)
let test_write_atomic_regular_only () =
  let dir = Filename.temp_dir "kgpt-obs" "" in
  let fifo = Filename.concat dir "pipe" in
  Unix.mkfifo fifo 0o600;
  (match Obs.Record_file.write_atomic fifo "x" with
  | () -> Alcotest.fail "wrote over a FIFO"
  | exception Sys_error msg ->
      Alcotest.(check string) "the error names the path" (fifo ^ ": not a regular file") msg);
  Alcotest.(check bool) "still a FIFO" true ((Unix.lstat fifo).Unix.st_kind = Unix.S_FIFO);
  Alcotest.(check bool) "no temp file left" false (Sys.file_exists (fifo ^ ".tmp"));
  let file = Filename.concat dir "record" in
  Obs.Record_file.write_atomic file "old";
  Obs.Record_file.write_atomic file "new";
  let ic = open_in_bin file in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "a regular file is replaced" "new" body;
  List.iter Sys.remove [ fifo; file ];
  Sys.rmdir dir

(* The reader refuses what the writer refuses: a FIFO (also behind a
   symlink) is an [Error] naming the path, returned at once instead of a
   read that blocks until a writer appears. *)
let test_load_regular_only () =
  let dir = Filename.temp_dir "kgpt-obs" "" in
  let fifo = Filename.concat dir "pipe" and link = Filename.concat dir "link" in
  Unix.mkfifo fifo 0o600;
  Unix.symlink fifo link;
  List.iter
    (fun path ->
      match
        Obs.Record_file.load ~what:"record file" ~format:"f" ~version:1 path (fun _ _ -> ())
      with
      | Ok () -> Alcotest.fail "loaded a FIFO"
      | Error msg ->
          Alcotest.(check string) "the error names the path"
            (Printf.sprintf "cannot read record file %s: %s: not a regular file" path path)
            msg)
    [ fifo; link ];
  List.iter Sys.remove [ link; fifo ];
  Sys.rmdir dir

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "obs"
    [
      ( "obs",
        [
          t "json round-trip" test_json_roundtrip;
          t "json surrogate pairs" test_json_surrogate_pairs;
          t "json rejects garbage" test_json_rejects_garbage;
          t "span nesting and ids" test_span_nesting_ids;
          t "span error attribute" test_span_error_attr;
          t "disabled hot path allocates nothing" test_disabled_no_allocation;
          t "trace file validation" test_validate_trace_file;
          t "metrics registry" test_metrics_registry;
          t "jobs=4 trace equals sequential" test_jobs_trace_equality;
          t "write_atomic regular files only" test_write_atomic_regular_only;
          t "load regular files only" test_load_regular_only;
        ] );
    ]
