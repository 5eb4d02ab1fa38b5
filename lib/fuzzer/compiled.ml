(** Spec compilation: lower a validated {!Syzlang.Ast.spec} once into
    flat generation plans.

    Walking the syzlang types directly would re-search the spec on every
    draw — [List.find_opt] over types and flag sets per field. This
    module performs all of those searches once per suite: flag-set
    values become int arrays with constants pre-bound, struct/union
    references become indices into a composite plan array, len/bytesize
    fixups become (field, target, scale) triples, and each syscall's
    argument list becomes a dense array of pre-classified argument
    plans.

    The plans carry no randomness: {!Proggen} walks them. Its draw
    sequence is that of the per-call type walk, which
    [test/test_compiled.ml] keeps as a reference and diffs against. *)

open Syzlang.Ast

(** Generation plan for one userspace value ({!Vkernel.Value.uval}). *)
type gen =
  | G_fuzz of int  (** fuzzed integer of the given bit width *)
  | G_range of int64 * int64  (** uniform in [lo, hi] *)
  | G_const of int64
  | G_flags of int64 array * int
      (** resolved flag-set values, plus the bit width for the
          occasional noise draw *)
  | G_str of string  (** fixed string literal *)
  | G_prog_str  (** the program's working string *)
  | G_buffer  (** untyped byte buffer: short fuzzed string *)
  | G_bytes of int option  (** byte array, length pre-capped at 64 *)
  | G_arr of gen * int option  (** element plan, length pre-capped at 8 *)
  | G_ptr of gen  (** pointer deref: inner value one level deeper *)
  | G_res  (** in-data resource/fd: small random int *)
  | G_comp of int  (** struct: index into {!t.comps} *)
  | G_union of int  (** union: pick one field of {!t.comps} entry *)
  | G_zero

(** Post-pass for a len/bytesize field: overwrite field [fx_field] with
    the element count of field [fx_target] times [fx_scale] (1 for
    [len]; the target's element byte width for [bytesize]). *)
type fixup = { fx_field : int; fx_target : int; fx_scale : int64 }

type comp_plan = {
  cp_name : string;
  cp_fields : (string * gen) array;
  cp_fixups : fixup array;
}

(** Plan for one top-level syscall argument ({!Vkernel.Machine.parg}).
    Top-level arguments classify differently from in-data values (flags
    are always fuzzed, strings come from the fuzz pool, len fields are
    fuzzed rather than fixed up), hence a separate plan type. *)
type arg =
  | A_res of string  (** resource: wired to a producer's result index *)
  | A_fd
  | A_const of int64
  | A_fuzz of int  (** bit width *)
  | A_range of int64 * int64
  | A_str of string
  | A_rand_str
  | A_ptr of gen  (** occasionally NULL, else generated payload *)
  | A_buffer
  | A_data of gen
  | A_len
  | A_zero

type syscall_plan = { sp_args : arg array }

type t = {
  comps : comp_plan array;  (** aligned with [spec.types] *)
  plans : syscall_plan array;  (** aligned with [spec.syscalls] *)
  retypes : (string, gen) Hashtbl.t;
      (** base syscall name -> payload plan of the first matching
          syscall's first pointer argument (mutation retyping) *)
}

let const_value (c : const_ref) : int64 = Option.value c.const_value ~default:0L

(* ------------------------------------------------------------------ *)
(* Type sizing                                                         *)
(* ------------------------------------------------------------------ *)

(** Size in bytes a value of this syzlang type occupies on the wire.
    Composite sizes follow C layout naively (sum for structs, max for
    unions, no padding); recursion is depth-capped and every size is at
    least 1. *)
let type_size ~(types : comp_def list) (ty : typ) : int =
  let find name = List.find_opt (fun cd -> cd.comp_name = name) types in
  let rec size depth ty =
    if depth > 8 then 1
    else
      match ty with
      | Int (w, _) | Const (_, w) | Flags (_, w) | Len (_, w) | Bytesize (_, w) ->
          width_bytes w
      | Ptr _ -> 8
      | String _ | Buffer _ -> 1
      | Resource_ref _ | Fd -> 4
      | Array (elem, Some n) -> max 1 n * size (depth + 1) elem
      | Array (elem, None) -> size (depth + 1) elem
      | Struct_ref name -> (
          match find name with
          | Some cd ->
              List.fold_left (fun acc f -> acc + size (depth + 1) f.ftyp) 0 cd.comp_fields
          | None -> 1)
      | Union_ref name -> (
          match find name with
          | Some cd ->
              List.fold_left (fun acc f -> max acc (size (depth + 1) f.ftyp)) 0 cd.comp_fields
          | None -> 1)
      | Void -> 1
  in
  max 1 (size 0 ty)

(** Bytes per counted element of a [bytesize] target: the element width
    for arrays, 1 for strings and raw buffers, the pointee's scale for
    pointers, and the full type size for scalars and composites (which
    count as one element). *)
let rec bytesize_scale ~(types : comp_def list) (ty : typ) : int =
  match ty with
  | Array (elem, _) -> type_size ~types elem
  | String _ | Buffer _ -> 1
  | Ptr (_, inner) -> bytesize_scale ~types inner
  | ty -> type_size ~types ty

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let compile (spec : spec) : t =
  (* first definition wins, like a [List.find_opt] over the spec; the
     tables make each lookup O(1) on suites with thousands of types *)
  let first_defs key xs =
    let tbl = Hashtbl.create 64 in
    List.iteri (fun i x -> if not (Hashtbl.mem tbl (key x)) then Hashtbl.add tbl (key x) (i, x)) xs;
    tbl
  in
  let comps_by_name = first_defs (fun cd -> cd.comp_name) spec.types in
  let flag_sets = first_defs (fun fs -> fs.set_name) spec.flag_sets in
  let comp_index name = Hashtbl.find_opt comps_by_name name in
  let rec gen_of_typ (ty : typ) : gen =
    match ty with
    | Int (w, None) -> G_fuzz (8 * width_bytes w)
    | Int (_, Some { lo; hi }) -> G_range (lo, hi)
    | Const (c, _) -> G_const (const_value c)
    | Flags (set, w) -> (
        match Hashtbl.find_opt flag_sets set with
        | Some (_, fs) when fs.set_values <> [] ->
            G_flags (Array.of_list (List.map const_value fs.set_values), 8 * width_bytes w)
        | _ -> G_fuzz (8 * width_bytes w))
    | Ptr (_, String (Some s)) -> G_str s
    | Ptr (_, inner) -> G_ptr (gen_of_typ inner)
    | Buffer _ -> G_buffer
    | String (Some s) -> G_str s
    | String None -> G_prog_str
    | Array (Int (I8, _), len) -> G_bytes (Option.map (fun n -> min n 64) len)
    | Array (elem, len) -> G_arr (gen_of_typ elem, Option.map (fun n -> min n 8) len)
    | Len _ | Bytesize _ -> G_zero (* fixed up by the enclosing composite *)
    | Resource_ref _ | Fd -> G_res
    | Struct_ref name -> (
        match comp_index name with Some (i, _) -> G_comp i | None -> G_zero)
    | Union_ref name -> (
        match comp_index name with
        | Some (i, cd) when cd.comp_fields <> [] -> G_union i
        | _ -> G_zero)
    | Void -> G_zero
  in
  let plan_of_comp (cd : comp_def) : comp_plan =
    let fields = Array.of_list cd.comp_fields in
    (* intern the field names once at spec-compile time: they key the
       executor-side field stores of every materialized user struct, so
       the Stbl probes there hit the pointer-compare fast path *)
    let cp_fields =
      Array.map (fun f -> (Vkernel.Value.intern f.fname, gen_of_typ f.ftyp)) fields
    in
    let first_index_named nm =
      let n = Array.length fields in
      let rec go i =
        if i >= n then None else if fields.(i).fname = nm then Some i else go (i + 1)
      in
      go 0
    in
    let fixups = ref [] in
    Array.iteri
      (fun i (f : field) ->
        (* a field shadowed by an earlier same-named one follows the
           first definition, as a lookup by name would *)
        let def =
          match first_index_named f.fname with Some j -> fields.(j) | None -> f
        in
        let add target scale =
          match first_index_named target with
          | Some ti -> fixups := { fx_field = i; fx_target = ti; fx_scale = scale } :: !fixups
          | None -> ()
        in
        match def.ftyp with
        | Len (target, _) -> add target 1L
        | Bytesize (target, _) -> (
            match first_index_named target with
            | Some ti ->
                add target
                  (Int64.of_int (bytesize_scale ~types:spec.types fields.(ti).ftyp))
            | None -> ())
        | _ -> ())
      fields;
    { cp_name = cd.comp_name; cp_fields; cp_fixups = Array.of_list (List.rev !fixups) }
  in
  let arg_of_field (f : field) : arg =
    match f.ftyp with
    | Resource_ref res -> A_res res
    | Fd -> A_fd
    | Const (cr, _) -> A_const (const_value cr)
    | Int (w, None) -> A_fuzz (8 * width_bytes w)
    | Int (_, Some { lo; hi }) -> A_range (lo, hi)
    | Flags (_, w) -> A_fuzz (8 * width_bytes w)
    | Ptr (_, String (Some s)) -> A_str s
    | String (Some s) -> A_str s
    | String None -> A_rand_str
    | Ptr (_, inner) -> A_ptr (gen_of_typ inner)
    | Buffer _ -> A_buffer
    | Array _ | Struct_ref _ | Union_ref _ -> A_data (gen_of_typ f.ftyp)
    | Len _ | Bytesize _ -> A_len
    | Void -> A_zero
  in
  let retypes = Hashtbl.create 16 in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (c : syscall) ->
      if not (Hashtbl.mem seen c.call_name) then begin
        Hashtbl.replace seen c.call_name ();
        match
          List.find_opt (fun f -> match f.ftyp with Ptr _ -> true | _ -> false) c.args
        with
        | Some { ftyp = Ptr (_, inner); _ } ->
            Hashtbl.replace retypes c.call_name (gen_of_typ inner)
        | _ -> ()
      end)
    spec.syscalls;
  {
    comps = Array.of_list (List.map plan_of_comp spec.types);
    plans =
      Array.of_list
        (List.map
           (fun (c : syscall) ->
             { sp_args = Array.of_list (List.map arg_of_field c.args) })
           spec.syscalls);
    retypes;
  }
