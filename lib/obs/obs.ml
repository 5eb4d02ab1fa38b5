(** Structured tracing + metrics, and the record files that checkpoints
    and the oracle cache are stored in. See obs.mli for the contract.

    Design notes:
    - the enabled flags are [Atomic.t bool]s read first on every entry
      point, so a disabled call is one load and a conditional branch;
    - span ids are strings built from submission/creation order
      ([s<n>] roots, [<parent>.<k>] children, [<pool>.<i>] pool tasks),
      never from wall clock or worker identity, which is what makes the
      span set of a run independent of [--jobs];
    - each domain has its own span stack (DLS), so workers trace
      concurrently without sharing; the only cross-domain state is the
      sink mutex (one lock per emitted line) and the metrics mutex. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let add_escaped buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_nan f || Float.is_integer f && Float.abs f < 1e15 then
          (* NaN is not valid JSON; emit null-ish 0.0 guard via %.1f of nan
             would print "nan" — normalize to a parseable form *)
          Buffer.add_string buf
            (if Float.is_nan f then "0.0" else Printf.sprintf "%.1f" f)
        else Buffer.add_string buf (Printf.sprintf "%.17g" f)
    | Str s ->
        Buffer.add_char buf '"';
        add_escaped buf s;
        Buffer.add_char buf '"'
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            write buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            add_escaped buf k;
            Buffer.add_string buf "\":";
            write buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string j =
    let b = Buffer.create 128 in
    write b j;
    Buffer.contents b

  exception Bad of string

  (* recursive-descent parser over a string with a cursor *)
  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              (if !pos >= n then fail "unterminated escape"
               else
                 match s.[!pos] with
                 | '"' -> Buffer.add_char b '"'; incr pos
                 | '\\' -> Buffer.add_char b '\\'; incr pos
                 | '/' -> Buffer.add_char b '/'; incr pos
                 | 'n' -> Buffer.add_char b '\n'; incr pos
                 | 'r' -> Buffer.add_char b '\r'; incr pos
                 | 't' -> Buffer.add_char b '\t'; incr pos
                 | 'b' -> Buffer.add_char b '\b'; incr pos
                 | 'f' -> Buffer.add_char b '\012'; incr pos
                 | 'u' ->
                     (* [!pos] sits on the 'u'; helpers read the 4 hex
                        digits after a given 'u' position *)
                     let hex_at upos =
                       if upos + 4 >= n then fail "truncated \\u escape";
                       match int_of_string_opt ("0x" ^ String.sub s (upos + 1) 4) with
                       | Some code -> code
                       | None -> fail "bad \\u escape"
                     in
                     let code = hex_at !pos in
                     if code >= 0xD800 && code <= 0xDBFF then begin
                       (* high surrogate: must pair with \uDC00-\uDFFF;
                          the pair encodes one supplementary scalar *)
                       if
                         not
                           (!pos + 6 < n && s.[!pos + 5] = '\\' && s.[!pos + 6] = 'u')
                       then fail "lone high surrogate in \\u escape";
                       let lo = hex_at (!pos + 6) in
                       if not (lo >= 0xDC00 && lo <= 0xDFFF) then
                         fail "high surrogate not followed by low surrogate";
                       let scalar =
                         0x10000 + (((code - 0xD800) lsl 10) lor (lo - 0xDC00))
                       in
                       Buffer.add_utf_8_uchar b (Uchar.of_int scalar);
                       pos := !pos + 11
                     end
                     else if code >= 0xDC00 && code <= 0xDFFF then
                       fail "lone low surrogate in \\u escape"
                     else begin
                       Buffer.add_utf_8_uchar b (Uchar.of_int code);
                       pos := !pos + 5
                     end
                 | _ -> fail "unknown escape");
              go ()
          | c -> Buffer.add_char b c; incr pos; go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        incr pos
      done;
      let text = String.sub s start (!pos - start) in
      let is_float =
        String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text
      in
      if is_float then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt text with
            | Some f -> Float f
            | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let kvs = ref [] in
            let rec members () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              kvs := (k, v) :: !kvs;
              skip_ws ();
              match peek () with
              | Some ',' -> incr pos; members ()
              | Some '}' -> incr pos
              | _ -> fail "expected , or }"
            in
            members ();
            Obj (List.rev !kvs)
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            List []
          end
          else begin
            let xs = ref [] in
            let rec elements () =
              let v = parse_value () in
              xs := v :: !xs;
              skip_ws ();
              match peek () with
              | Some ',' -> incr pos; elements ()
              | Some ']' -> incr pos
              | _ -> fail "expected , or ]"
            in
            elements ();
            List (List.rev !xs)
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing characters";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Durable record files                                                *)
(* ------------------------------------------------------------------ *)

module Record_file = struct
  let fnv1a64 (s : string) : int64 =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
      s;
    !h

  let checksum s = Printf.sprintf "fnv1a64:%016Lx" (fnv1a64 s)

  let write_atomic file contents =
    let tmp = file ^ ".tmp" in
    let oc = open_out_bin tmp in
    (try
       output_string oc contents;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Sys.rename tmp file

  let save ~file ~header records =
    let buf = Buffer.create 4096 in
    List.iter
      (fun j ->
        Json.write buf j;
        Buffer.add_char buf '\n')
      (header :: records);
    let body = Buffer.contents buf in
    write_atomic file
      (body ^ Json.to_string (Json.Obj [ ("checksum", Json.Str (checksum body)) ]) ^ "\n");
    String.length body

  exception Bad of string

  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

  let j_int64 v = Json.Str (Int64.to_string v)

  let int64_of = function
    | Json.Str s -> (
        match Int64.of_string_opt s with
        | Some v -> v
        | None -> bad "bad int64 payload %S" s)
    | _ -> bad "expected an int64 payload string"

  let parse (lineno, line) =
    match Json.parse line with Ok j -> j | Error e -> bad "line %d: %s" lineno e

  (* every check before [decode] guards the framing only; the checksum
     covers every preceding byte, so it is verified before anything
     else is interpreted *)
  let frame ~what ~format ~version content decode =
    let n = String.length content in
    if n = 0 then bad "empty %s file" what;
    if content.[n - 1] <> '\n' then bad "truncated %s (unterminated last line)" what;
    match String.rindex_from_opt content (n - 2) '\n' with
    | None -> bad "truncated %s (no checksum line)" what
    | Some cut -> (
        let sum =
          match Json.parse (String.sub content (cut + 1) (n - cut - 2)) with
          | Ok j -> Json.member "checksum" j
          | Error _ -> None
        in
        (match sum with
        | Some (Json.Str sum) ->
            let actual = checksum (String.sub content 0 (cut + 1)) in
            if sum <> actual then
              bad "corrupted %s (checksum mismatch: file says %s, content hashes to %s)" what
                sum actual
        | _ -> bad "truncated %s (last line is not a checksum record)" what);
        match String.split_on_char '\n' (String.sub content 0 cut) with
        | [] -> assert false (* split_on_char returns at least one piece *)
        | header :: records ->
            let header = parse (1, header) in
            (match Json.member "format" header with
            | Some (Json.Str f) when f = format -> ()
            | _ -> bad "not a %s file (bad format tag)" format);
            (match Json.member "version" header with
            | Some (Json.Int v) when v = version -> ()
            | Some (Json.Int v) ->
                bad "unsupported %s version %d (this build reads version %d)" what v version
            | _ -> bad "%s header lacks a version" what);
            decode header (List.mapi (fun i line -> (i + 2, line)) records))

  let load ~what ~format ~version file decode =
    (* a read can fail after the open succeeds, as on a directory *)
    match In_channel.with_open_bin file In_channel.input_all with
    | exception Sys_error e -> Error (Printf.sprintf "cannot read %s %s: %s" what file e)
    | content -> (
        match frame ~what ~format ~version content decode with
        | v -> Ok v
        | exception Bad m -> Error (Printf.sprintf "%s: %s" file m))
end

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let trace_flag = Atomic.make false
let metrics_flag = Atomic.make false

let tracing () = Atomic.get trace_flag
let metrics_on () = Atomic.get metrics_flag

let sink_mutex = Mutex.create ()

(* channel, close-on-teardown *)
let sink : (out_channel * bool) option ref = ref None

let with_sink_lock f =
  Mutex.lock sink_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock sink_mutex) f

let t0 = Unix.gettimeofday ()
let now_rel () = Unix.gettimeofday () -. t0

(* root spans are numbered in creation order; workers never create
   roots (their spans hang off a pool-task ctx), so in practice this
   counter only advances on the main domain and is deterministic *)
let root_counter = Atomic.make 0

type span = { sp_id : string; mutable sp_children : int }

let stack_key : span list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let emit_line line =
  with_sink_lock (fun () ->
      match !sink with
      | Some (oc, _) ->
          output_string oc line;
          output_char oc '\n'
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type hist = {
    mutable h_n : int;
    mutable h_sum : float;
    mutable h_min : float;
    mutable h_max : float;
  }

  type metric =
    | Counter of { mutable c : int }
    | Gauge of { mutable g : float }
    | Hist of hist

  let table : (string, metric) Hashtbl.t = Hashtbl.create 64
  let mu = Mutex.create ()

  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

  let incr ?(by = 1) name =
    if Atomic.get metrics_flag then
      locked (fun () ->
          match Hashtbl.find_opt table name with
          | Some (Counter c) -> c.c <- c.c + by
          | Some _ -> ()
          | None -> Hashtbl.replace table name (Counter { c = by }))

  let gauge name v =
    if Atomic.get metrics_flag then
      locked (fun () ->
          match Hashtbl.find_opt table name with
          | Some (Gauge g) -> g.g <- v
          | Some _ -> ()
          | None -> Hashtbl.replace table name (Gauge { g = v }))

  let observe name v =
    if Atomic.get metrics_flag then
      locked (fun () ->
          match Hashtbl.find_opt table name with
          | Some (Hist h) ->
              h.h_n <- h.h_n + 1;
              h.h_sum <- h.h_sum +. v;
              if v < h.h_min then h.h_min <- v;
              if v > h.h_max then h.h_max <- v
          | Some _ -> ()
          | None ->
              Hashtbl.replace table name (Hist { h_n = 1; h_sum = v; h_min = v; h_max = v }))

  let counter_value name =
    locked (fun () ->
        match Hashtbl.find_opt table name with Some (Counter c) -> c.c | _ -> 0)

  let render oc =
    locked (fun () ->
        let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] in
        let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
        if rows = [] then Printf.fprintf oc "[metrics] (no metrics recorded)\n"
        else
          List.iter
            (fun (name, m) ->
              match m with
              | Counter c -> Printf.fprintf oc "[metrics] %-42s %12d\n" name c.c
              | Gauge g -> Printf.fprintf oc "[metrics] %-42s %12.3f\n" name g.g
              | Hist h ->
                  Printf.fprintf oc
                    "[metrics] %-42s n=%d sum=%.3f min=%.3f max=%.3f mean=%.3f\n" name h.h_n
                    h.h_sum h.h_min h.h_max
                    (h.h_sum /. float_of_int (max 1 h.h_n)))
            rows;
        flush oc)

  let clear () = locked (fun () -> Hashtbl.reset table)
end

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

let close_sink () =
  with_sink_lock (fun () ->
      (match !sink with
      | Some (oc, close) ->
          flush oc;
          if close then close_out_noerr oc
      | None -> ());
      sink := None);
  Atomic.set trace_flag false

let finalize () =
  if Atomic.get metrics_flag then begin
    Metrics.render stderr;
    Atomic.set metrics_flag false
  end;
  close_sink ()

let at_exit_installed = ref false

let install_at_exit () =
  if not !at_exit_installed then begin
    at_exit_installed := true;
    at_exit finalize
  end

let enable_trace oc =
  close_sink ();
  with_sink_lock (fun () -> sink := Some (oc, false));
  Atomic.set trace_flag true;
  install_at_exit ()

let enable_trace_file file =
  close_sink ();
  let oc = open_out file in
  with_sink_lock (fun () -> sink := Some (oc, true));
  Atomic.set trace_flag true;
  install_at_exit ()

let enable_metrics () =
  Atomic.set metrics_flag true;
  install_at_exit ()

let flush () = with_sink_lock (fun () -> match !sink with Some (oc, _) -> flush oc | None -> ())

let reset () =
  Atomic.set metrics_flag false;
  close_sink ();
  Metrics.clear ();
  Atomic.set root_counter 0;
  Domain.DLS.get stack_key := []

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let record ~id ~parent ~kind ~name ~attrs ~timing =
  let base =
    [
      ("id", Json.Str id);
      ("parent", match parent with Some p -> Json.Str p | None -> Json.Null);
      ("kind", Json.Str kind);
      ("name", Json.Str name);
    ]
  in
  let attrs = match attrs with [] -> [] | a -> [ ("attrs", Json.Obj a) ] in
  Json.to_string (Json.Obj (base @ attrs @ [ ("t", Json.Obj timing) ]))

(* id and parent for a new child of the innermost open span (a fresh
   root if the stack is empty) *)
let alloc_child () =
  match !(Domain.DLS.get stack_key) with
  | sp :: _ ->
      let k = sp.sp_children in
      sp.sp_children <- k + 1;
      (sp.sp_id ^ "." ^ string_of_int k, Some sp.sp_id)
  | [] ->
      let n = Atomic.fetch_and_add root_counter 1 in
      ("s" ^ string_of_int n, None)

let run_span ?attrs ?worker ~id ~parent ~kind ~name f =
  let st = Domain.DLS.get stack_key in
  st := { sp_id = id; sp_children = 0 } :: !st;
  let t_start = now_rel () in
  let finish ok =
    (st := match !st with _ :: tl -> tl | [] -> []);
    let dur_ms = (now_rel () -. t_start) *. 1000.0 in
    let attrs = match attrs with None -> [] | Some thunk -> thunk () in
    let attrs = if ok then attrs else attrs @ [ ("error", Json.Bool true) ] in
    let timing =
      [ ("start", Json.Float t_start); ("dur_ms", Json.Float dur_ms) ]
      @ match worker with None -> [] | Some w -> [ ("worker", Json.Int w) ]
    in
    emit_line (record ~id ~parent ~kind ~name ~attrs ~timing)
  in
  match f () with
  | v ->
      finish true;
      v
  | exception e ->
      finish false;
      raise e

let with_span ?attrs ~kind name f =
  if not (Atomic.get trace_flag) then f ()
  else
    let id, parent = alloc_child () in
    run_span ?attrs ~id ~parent ~kind ~name f

type ctx = string option

let current_ctx () =
  if not (Atomic.get trace_flag) then None
  else match !(Domain.DLS.get stack_key) with sp :: _ -> Some sp.sp_id | [] -> None

let with_task_span ?attrs ?worker ~ctx ~index ~kind name_fn f =
  if not (Atomic.get trace_flag) then f ()
  else
    let id =
      match ctx with
      | Some c -> c ^ "." ^ string_of_int index
      | None -> "t" ^ string_of_int index
    in
    run_span ?attrs ?worker ~id ~parent:ctx ~kind ~name:(name_fn ()) f

let event ?attrs ~kind name =
  if Atomic.get trace_flag then begin
    let id, parent = alloc_child () in
    let attrs = match attrs with None -> [] | Some thunk -> thunk () in
    emit_line
      (record ~id ~parent ~kind ~name ~attrs ~timing:[ ("at", Json.Float (now_rel ())) ])
  end

(* ------------------------------------------------------------------ *)
(* Trace validation                                                    *)
(* ------------------------------------------------------------------ *)

type trace_stats = { ts_records : int; ts_kinds : (string * int) list }

let validate_record (j : Json.t) : (string, string) result =
  let str_field k =
    match Json.member k j with
    | Some (Json.Str s) -> Ok s
    | Some _ -> Error (Printf.sprintf "field %S is not a string" k)
    | None -> Error (Printf.sprintf "missing field %S" k)
  in
  match j with
  | Json.Obj _ -> (
      match (str_field "id", str_field "kind", str_field "name") with
      | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
      | Ok _, Ok kind, Ok _ -> (
          match Json.member "parent" j with
          | Some (Json.Str _) | Some Json.Null -> Ok kind
          | Some _ -> Error "field \"parent\" is neither string nor null"
          | None -> Error "missing field \"parent\""))
  | _ -> Error "record is not a JSON object"

let validate_trace_file path : (trace_stats, string) result =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let kinds = Hashtbl.create 16 in
          let records = ref 0 in
          let lineno = ref 0 in
          let err = ref None in
          (try
             while !err = None do
               let line = input_line ic in
               incr lineno;
               if String.trim line <> "" then
                 match Json.parse line with
                 | Error e -> err := Some (Printf.sprintf "line %d: %s" !lineno e)
                 | Ok j -> (
                     match validate_record j with
                     | Error e -> err := Some (Printf.sprintf "line %d: %s" !lineno e)
                     | Ok kind ->
                         incr records;
                         Hashtbl.replace kinds kind
                           (1 + Option.value (Hashtbl.find_opt kinds kind) ~default:0))
             done
           with End_of_file -> ());
          match !err with
          | Some e -> Error e
          | None ->
              let ts_kinds =
                Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
                |> List.sort (fun (a, _) (b, _) -> String.compare a b)
              in
              Ok { ts_records = !records; ts_kinds })
