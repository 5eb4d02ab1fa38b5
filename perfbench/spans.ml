(** The traced run's span analysis.

    Tracing writes the program's own JSONL spans ([pipeline],
    [pipeline.stage], [oracle.query], [repair.round]) nested under the
    benchmark's [bench.*] spans to a file in [perfbench/.out]. After the
    run the file is read back and folded into per-(phase, kind, name)
    totals of count, duration and self time. A span's self time is its
    duration minus the durations of its children. A [repair.round] is
    folded into its parent stage: its children are re-parented to the
    [validate] stage, so repair glue counts as validation self time and
    the oracle's repair queries stay separate. The phase of a span is
    the kind of its root span: [bench.setup] or [bench.round]. *)

type agg = { mutable count : int; mutable dur_ms : float; mutable self_ms : float }

type t = (string * string * string, agg) Hashtbl.t

let transparent kind = kind = "repair.round"

type record = { id : string; parent : string option; kind : string; name : string; dur : float }

let record_of_json j =
  let str k = match Obs.Json.member k j with Some (Obs.Json.Str s) -> Some s | _ -> None in
  let dur =
    match Option.bind (Obs.Json.member "t" j) (Obs.Json.member "dur_ms") with
    | Some (Obs.Json.Float f) -> Some f
    | Some (Obs.Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  match (str "id", str "kind", str "name", dur) with
  | Some id, Some kind, Some name, Some dur -> Some { id; parent = str "parent"; kind; name; dur }
  | _ -> None (* point events carry no duration *)

let root_of id = match String.index_opt id '.' with Some i -> String.sub id 0 i | None -> id

(** Read a trace file and fold it into totals. Raises [Failure] on a
    line that is not JSON. *)
let load path : t =
  let ic = open_in path in
  let records =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let acc = ref [] in
    (try
       while true do
         let line = input_line ic in
         if line <> "" then
           match Obs.Json.parse line with
           | Ok j -> Option.iter (fun r -> acc := r :: !acc) (record_of_json j)
           | Error e -> failwith (Printf.sprintf "%s: %s" path e)
       done
     with End_of_file -> ());
    !acc
  in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun r -> Hashtbl.replace by_id r.id r) records;
  let rec effective_parent = function
    | None -> None
    | Some pid as p -> (
        match Hashtbl.find_opt by_id pid with
        | Some r when transparent r.kind -> effective_parent r.parent
        | _ -> p)
  in
  let children = Hashtbl.create 4096 in
  List.iter
    (fun r ->
      if not (transparent r.kind) then
        match effective_parent r.parent with
        | Some p ->
            Hashtbl.replace children p (r.dur +. Option.value (Hashtbl.find_opt children p) ~default:0.0)
        | None -> ())
    records;
  let totals : t = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let phase =
        match Hashtbl.find_opt by_id (root_of r.id) with Some root -> root.kind | None -> "unknown"
      in
      let self =
        if transparent r.kind then 0.0
        else r.dur -. Option.value (Hashtbl.find_opt children r.id) ~default:0.0
      in
      let key = (phase, r.kind, r.name) in
      let a =
        match Hashtbl.find_opt totals key with
        | Some a -> a
        | None ->
            let a = { count = 0; dur_ms = 0.0; self_ms = 0.0 } in
            Hashtbl.replace totals key a;
            a
      in
      a.count <- a.count + 1;
      a.dur_ms <- a.dur_ms +. r.dur;
      a.self_ms <- a.self_ms +. self)
    records;
  totals

let fold (t : t) ?phase ~kind ?name f init =
  Hashtbl.fold
    (fun (ph, k, n) a acc ->
      if
        k = kind
        && (match phase with Some p -> p = ph | None -> true)
        && match name with Some x -> x = n | None -> true
      then f a acc
      else acc)
    t init

let count t ?phase ~kind ?name () = fold t ?phase ~kind ?name (fun a n -> n + a.count) 0
let dur_ms t ?phase ~kind ?name () = fold t ?phase ~kind ?name (fun a s -> s +. a.dur_ms) 0.0
let self_ms t ?phase ~kind ?name () = fold t ?phase ~kind ?name (fun a s -> s +. a.self_ms) 0.0

(** Mean self time per span, in µs (0 when no such span). *)
let mean_self_us t ?phase ~kind ?name () =
  let n = count t ?phase ~kind ?name () in
  if n = 0 then 0.0 else self_ms t ?phase ~kind ?name () *. 1e3 /. float_of_int n

(** Tracing that can be paused between rounds: the traced run alternates
    traced and untraced rounds so it can report its own overhead. *)
module Sink = struct
  type s = { path : string; oc : out_channel }

  let dir = Filename.concat "perfbench" ".out"

  let start () =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "trace-%d.jsonl" (Unix.getpid ())) in
    let oc = open_out path in
    Obs.enable_trace oc;
    { path; oc }

  let pause () = Obs.finalize ()
  let resume s = Obs.enable_trace s.oc

  (** Stop tracing, fold the file, and delete it. *)
  let finish s =
    Obs.finalize ();
    close_out s.oc;
    let t = load s.path in
    Sys.remove s.path;
    t
end
