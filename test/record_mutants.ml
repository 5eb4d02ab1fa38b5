(* Semantic mutants of a record file, for the checkpoint and oracle-cache
   boundary properties (ROADMAP item 1). The checksum rejects every
   byte-level mutant before anything is decoded, so these mutate the
   decoded records instead and re-encode them through
   [Obs.Record_file.save]: the checksum holds, and only the loader's own
   rules can object.

   A mutant applies one to three mutations: drop, duplicate or reorder a
   record; give a field another JSON type; or, most often, since it is
   what reaches past the loader, set an int field to a boundary value.
   Sizes come only from a fixed set (-1, 0, 1, the recorded value,
   [n_sids], 2^54 and [max_int]): a value between about 10^8 and 2^54
   would make a resume really allocate gigabytes, while 2^54 and
   [max_int] fail inside [Array.make] before anything is allocated.
   Fields named in [downward] bound loops, so they only shrink. *)

module J = Obs.Json

(* The header and records of a file, parsed. *)
let read ~format ~version file =
  match
    Obs.Record_file.load ~what:"record file" ~format ~version file (fun header lines ->
        header :: List.map Obs.Record_file.parse lines)
  with
  | Ok records -> records
  | Error e -> failwith e

(* Re-encode: the first record stands in as the header. *)
let write file records =
  ignore (Obs.Record_file.save ~file ~header:(List.hd records) (List.tl records))

type step = Key of string | Idx of int

(* every value inside [j], with its path of object keys and list indices *)
let rec sites (j : J.t) : (step list * J.t) list =
  let under step v = ([ step ], v) :: List.map (fun (p, x) -> (step :: p, x)) (sites v) in
  match j with
  | J.Obj kvs -> List.concat_map (fun (k, v) -> under (Key k) v) kvs
  | J.List xs -> List.concat (List.mapi (fun i v -> under (Idx i) v) xs)
  | _ -> []

let rec set path v (j : J.t) : J.t =
  match (path, j) with
  | [], _ -> v
  | Key k :: rest, J.Obj kvs ->
      J.Obj (List.map (fun (k', x) -> (k', if k' = k then set rest v x else x)) kvs)
  | Idx i :: rest, J.List xs ->
      J.List (List.mapi (fun i' x -> if i' = i then set rest v x else x) xs)
  | _ -> invalid_arg "Record_mutants.set"

type mutation =
  | Drop of int
  | Duplicate of int
  | Swap of int * int
  | Set of int * step list * J.t

let show_path p =
  String.concat "" (List.map (function Key k -> "." ^ k | Idx i -> Printf.sprintf "[%d]" i) p)

let show = function
  | Drop i -> Printf.sprintf "drop record %d" i
  | Duplicate i -> Printf.sprintf "duplicate record %d" i
  | Swap (i, j) -> Printf.sprintf "swap records %d and %d" i j
  | Set (i, p, v) -> Printf.sprintf "set record %d %s to %s" i (show_path p) (J.to_string v)

let apply records = function
  | Drop i -> List.filteri (fun k _ -> k <> i) records
  | Duplicate i -> List.concat (List.mapi (fun k r -> if k = i then [ r; r ] else [ r ]) records)
  | Swap (i, j) ->
      List.mapi
        (fun k r -> if k = i then List.nth records j else if k = j then List.nth records i else r)
        records
  | Set (i, p, v) -> List.mapi (fun k r -> if k = i then set p v r else r) records

let pick st l = List.nth l (Random.State.int st (List.length l))

(* a uniform shape, then a uniform element of that shape *)
let pick_by_shape st shape xs =
  let s = pick st (List.sort_uniq compare (List.map shape xs)) in
  pick st (List.filter (fun x -> shape x = s) xs)

let keys = function J.Obj kvs -> List.map fst kvs | _ -> []

let kind : J.t -> int = function
  | J.Null -> 0
  | J.Bool _ -> 1
  | J.Int _ -> 2
  | J.Float _ -> 3
  | J.Str _ -> 4
  | J.List _ -> 5
  | J.Obj _ -> 6

(* A record by shape (its keys), then a site in it by shape (its path
   with list indices erased): a handful of header fields is drawn as
   often as thousands of coverage ids. *)
let mutation ~n_sids ~downward st records =
  let n = List.length records in
  let i = pick_by_shape st (fun i -> keys (List.nth records i)) (List.init n Fun.id) in
  let sites = sites (List.nth records i) in
  let ints = List.filter_map (function p, J.Int v -> Some (p, v) | _ -> None) sites in
  let shape (p, _) = List.map (function Idx _ -> Idx 0 | s -> s) p in
  match Random.State.int st 6 with
  | (0 | 1 | 2 | 3) when ints <> [] ->
      let p, recorded = pick_by_shape st shape ints in
      let shrinks_only = match List.rev p with Key k :: _ -> List.mem k downward | _ -> false in
      let sizes = [ -1; 0; 1; recorded; n_sids; 1 lsl 54; max_int ] in
      Set (i, p, J.Int (pick st (List.filter (fun v -> v <= recorded || not shrinks_only) sizes)))
  | 4 when sites <> [] ->
      let p, v = pick_by_shape st shape sites in
      let retyped = [ J.Null; J.Bool true; J.Int 0; J.Str "x"; J.List []; J.Obj [] ] in
      Set (i, p, pick st (List.filter (fun c -> kind c <> kind v) retyped))
  | _ -> (
      match Random.State.int st 3 with
      | 0 -> Drop i
      | 1 -> Duplicate i
      | _ -> Swap (i, Random.State.int st n))

(* One to three mutations of a file's records, each drawn against the
   result of the one before. [input] is forced on the first draw. *)
let arbitrary ~downward (input : (int * J.t list) Lazy.t) =
  let gen st =
    let n_sids, records = Lazy.force input in
    let rec go k records acc =
      if k = 0 then (List.rev acc, records)
      else
        let m = mutation ~n_sids ~downward st records in
        go (k - 1) (apply records m) (m :: acc)
    in
    go (1 + Random.State.int st 3) records []
  in
  QCheck.make ~print:(fun (ms, _) -> String.concat "; " (List.map show ms)) gen
