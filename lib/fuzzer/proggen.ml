(** Spec-driven program generation (Syzkaller's generator).

    Programs are sequences of syscalls drawn from a specification suite.
    Resource arguments are satisfied by inserting producer calls
    (openat/socket, or resource-returning ioctls like KVM_CREATE_VM), so
    inter-syscall dependencies expressed in the spec shape every
    program. Argument payloads are generated from the syzlang types:
    [len] fields are computed from their targets, [const] fields carry
    the resolved kernel constants, strings come from a small pool.

    Arguments are drawn by walking {!Compiled} plans: the spec is
    lowered once per suite into flat arrays, so the hot loop does no
    list searches. [test/test_compiled.ml] keeps the per-call walk over
    the syzlang types that these plans replaced, as a reference oracle
    for the draw sequence. *)

open Syzlang.Ast

(* Resource names are interned to dense ids [0, Array.length res_names)
   once per campaign, so the two suite-wide resource lookups of the hot
   loop — a missing resource's producer in [push_call], and the
   resources a program already produces in [Mutator.insert_dependent] —
   are array reads instead of string-keyed list walks over the suite. *)
type t = {
  syscalls : syscall array;  (** the resolved suite's syscalls, in spec order *)
  required : int array array;
      (** per-syscall required resource ids, in argument order *)
  dependents : int array;
      (** ascending indices of the syscalls with a non-empty [required] *)
  res_names : string array;  (** resource id -> name *)
  producer_of : int array;
      (** resource id -> index of the first syscall returning it, or -1 *)
  produces : (string, int array) Hashtbl.t;
      (** machine call name -> ids of the resources returned by any spec
          entry with that call name *)
  latest : int array;
      (** scratch for {!Mutator.insert_dependent}: resource id -> latest
          producing program index, -1 between uses *)
  plan : Compiled.t;  (** the suite's generation plans *)
  mutable cur_str : string option;
      (** the program's working string: reused across calls so that
          name-keyed kernel state (device tables) sees the same key, the
          way Syzkaller reuses buffers *)
}

(** Prepare a resolved spec (const values filled in) for generation. *)
let prepare (spec : spec) : t =
  let syscalls = Array.of_list spec.syscalls in
  let ids = Hashtbl.create 64 in
  let names = ref [] in
  let intern name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids name id;
        names := name :: !names;
        id
  in
  let required =
    Array.map
      (fun (c : syscall) ->
        Array.of_list
          (List.concat_map (fun f -> List.map intern (referenced_resources f.ftyp)) c.args))
      syscalls
  in
  let rets = Array.map (fun (c : syscall) -> Option.map intern c.ret) syscalls in
  let n_res = Hashtbl.length ids in
  let producer_of = Array.make n_res (-1) in
  let produces = Hashtbl.create 16 in
  Array.iteri
    (fun i ret ->
      match ret with
      | None -> ()
      | Some id ->
          if producer_of.(id) < 0 then producer_of.(id) <- i;
          let name = syscalls.(i).call_name in
          let have = Option.value (Hashtbl.find_opt produces name) ~default:[||] in
          if not (Array.mem id have) then Hashtbl.replace produces name (Array.append have [| id |]))
    rets;
  let dependents =
    Array.of_list
      (List.filter (fun i -> required.(i) <> [||]) (List.init (Array.length syscalls) Fun.id))
  in
  {
    syscalls;
    required;
    dependents;
    res_names = Array.of_list (List.rev !names);
    producer_of;
    produces;
    latest = Array.make n_res (-1);
    plan = Compiled.compile spec;
    cur_str = None;
  }

let program_string (t : t) (r : Rng.t) ~(max_len : int) : string =
  match t.cur_str with
  | Some s when Rng.pct r 60 -> s
  | _ ->
      let s = Rng.fuzz_string r ~max_len in
      t.cur_str <- Some s;
      s

(* ------------------------------------------------------------------ *)
(* Argument and payload draws                                          *)
(* ------------------------------------------------------------------ *)

(* every type lookup already happened in [Compiled.compile]; a walk only
   draws *)
let rec uval_of_gen (t : t) (r : Rng.t) ~(depth : int) (g : Compiled.gen) : Vkernel.Value.uval
    =
  let open Vkernel.Value in
  if depth > 6 then U_int 0L
  else
    match g with
    | Compiled.G_fuzz bits -> U_int (Rng.fuzz_int r ~bits)
    | Compiled.G_range (lo, hi) -> U_int (Rng.int64_in_range r ~lo ~hi)
    | Compiled.G_const v -> U_int v
    | Compiled.G_flags (values, bits) ->
        (* mostly the spec's valid values, occasionally noise *)
        if Rng.pct r 25 then U_int (Rng.fuzz_int r ~bits)
        else U_int values.(Rng.int r (Array.length values))
    | Compiled.G_str s -> U_str s
    | Compiled.G_prog_str -> U_str (program_string t r ~max_len:32)
    | Compiled.G_buffer -> U_str (Rng.fuzz_string r ~max_len:32)
    | Compiled.G_bytes len ->
        let n = match len with Some n -> n | None -> Rng.int r 32 in
        if Rng.pct r 40 then U_str (program_string t r ~max_len:(max 1 n))
        else U_str (Rng.fuzz_string r ~max_len:(max 1 n))
    | Compiled.G_arr (elem, len) ->
        let n = match len with Some n -> n | None -> 1 + Rng.int r 4 in
        U_arr (List.init n (fun _ -> uval_of_gen t r ~depth:(depth + 1) elem))
    | Compiled.G_ptr inner -> uval_of_gen t r ~depth:(depth + 1) inner
    | Compiled.G_res -> U_int (Int64.of_int (Rng.int r 8))
    | Compiled.G_comp i -> uval_of_cplan t r ~depth t.plan.Compiled.comps.(i)
    | Compiled.G_union i ->
        let cp = t.plan.Compiled.comps.(i) in
        let n = Array.length cp.Compiled.cp_fields in
        (* [Compiled.compile] only emits G_union for non-empty unions,
           but a degenerate spec must still degrade to U_int 0, with no
           draw, rather than raise *)
        if n = 0 then U_int 0L
        else
          let j = Rng.int r n in
          let fname, fg = cp.Compiled.cp_fields.(j) in
          U_struct (cp.Compiled.cp_name, [ (fname, uval_of_gen t r ~depth:(depth + 1) fg) ])
    | Compiled.G_zero -> U_int 0L

and uval_of_cplan (t : t) (r : Rng.t) ~(depth : int) (cp : Compiled.comp_plan) :
    Vkernel.Value.uval =
  let open Vkernel.Value in
  let n = Array.length cp.Compiled.cp_fields in
  let vals = Array.make (max 1 n) U_null in
  for i = 0 to n - 1 do
    let _, g = cp.Compiled.cp_fields.(i) in
    vals.(i) <- uval_of_gen t r ~depth:(depth + 1) g
  done;
  let elem_count = function
    | U_str s -> Int64.of_int (String.length s)
    | U_arr xs -> Int64.of_int (List.length xs)
    | U_struct _ -> 1L
    | U_int _ | U_null -> 1L
  in
  (* fixups read first-pass values only, so order between them is moot *)
  let out = Array.sub vals 0 (max 1 n) in
  Array.iter
    (fun { Compiled.fx_field; fx_target; fx_scale } ->
      out.(fx_field) <- U_int (Int64.mul (elem_count vals.(fx_target)) fx_scale))
    cp.Compiled.cp_fixups;
  U_struct
    (cp.Compiled.cp_name, List.init n (fun i -> (fst cp.Compiled.cp_fields.(i), out.(i))))

(* ------------------------------------------------------------------ *)
(* Call and program construction                                       *)
(* ------------------------------------------------------------------ *)

(* The program index [resource_at] gives [res], or -1. Names compare with
   [String.equal]: a polymorphic compare is a C call per binding. *)
let rec resource_index res = function
  | [] -> -1
  | (name, i) :: rest -> if String.equal name res then i else resource_index res rest

(** Generate the machine-level arguments of spec syscall [idx];
    [resource_at] maps resource names to the producing call's program
    index, the first binding of a name winning. *)
let args_of_index (t : t) (r : Rng.t) ~(resource_at : (string * int) list) (idx : int) :
    Vkernel.Machine.parg list =
  List.map
    (fun (a : Compiled.arg) ->
      match a with
      | Compiled.A_res res ->
          let i = resource_index res resource_at in
          if i >= 0 then Vkernel.Machine.P_result i else Vkernel.Machine.P_int (-1L)
      | Compiled.A_fd -> Vkernel.Machine.P_int (Int64.of_int (Rng.int r 8))
      | Compiled.A_const v -> Vkernel.Machine.P_int v
      | Compiled.A_fuzz bits -> Vkernel.Machine.P_int (Rng.fuzz_int r ~bits)
      | Compiled.A_range (lo, hi) -> Vkernel.Machine.P_int (Rng.int64_in_range r ~lo ~hi)
      | Compiled.A_str s -> Vkernel.Machine.P_str s
      | Compiled.A_rand_str -> Vkernel.Machine.P_str (Rng.fuzz_string r ~max_len:32)
      | Compiled.A_ptr g ->
          if Rng.pct r 4 then Vkernel.Machine.P_null
          else Vkernel.Machine.P_data (uval_of_gen t r ~depth:0 g)
      | Compiled.A_buffer ->
          Vkernel.Machine.P_data (Vkernel.Value.U_str (Rng.fuzz_string r ~max_len:32))
      | Compiled.A_data g -> Vkernel.Machine.P_data (uval_of_gen t r ~depth:0 g)
      | Compiled.A_len -> Vkernel.Machine.P_int (Rng.fuzz_int r ~bits:32)
      | Compiled.A_zero -> Vkernel.Machine.P_int 0L)
    (Array.to_list t.plan.Compiled.plans.(idx).Compiled.sp_args)

(** Append syscall [idx] to the program under construction, inserting
    producer calls for missing resources first. The program accumulates
    reversed with an explicit length so pushing is O(1) per call. *)
let rec push_call (t : t) (r : Rng.t) ~(rev_prog : Vkernel.Machine.call list ref)
    ~(count : int ref) ~(resource_at : (string * int) list ref) ~(depth : int) (idx : int) :
    unit =
  if depth > 4 then ()
  else begin
    let c = t.syscalls.(idx) in
    Array.iter
      (fun id ->
        let pidx = t.producer_of.(id) in
        if pidx >= 0 && resource_index t.res_names.(id) !resource_at < 0 then
          push_call t r ~rev_prog ~count ~resource_at ~depth:(depth + 1) pidx)
      t.required.(idx);
    let args = args_of_index t r ~resource_at:!resource_at idx in
    let index = !count in
    rev_prog := { Vkernel.Machine.c_name = c.call_name; c_args = args } :: !rev_prog;
    incr count;
    match c.ret with
    | Some res -> resource_at := (res, index) :: !resource_at
    | None -> ()
  end

(** A fresh random program of up to [max_len] spec syscalls. With some
    probability the program instead walks the *whole* specification in
    order — specs list syscalls in handler source order, which tends to
    be setup order (open, configure, operate), so template programs reach
    deep multi-call states the way Syzkaller's call-relation bias does. *)
let generate (t : t) (r : Rng.t) ?(max_len = 5) () : Vkernel.Machine.prog =
  t.cur_str <- None;
  let n = Array.length t.syscalls in
  if n = 0 then []
  else begin
    let rev_prog = ref [] in
    let count = ref 0 in
    let resource_at = ref [] in
    if Rng.pct r 15 then begin
      (* walk a contiguous window of the spec in order; merged suites
         keep each module's syscalls adjacent, so a window stays inside
         one module's setup sequence *)
      let window = 25 in
      let start = if n <= window then 0 else Rng.int r (n - window + 1) in
      for i = start to min (n - 1) (start + window - 1) do
        push_call t r ~rev_prog ~count ~resource_at ~depth:0 i
      done;
      (* a short random tail re-exercises state left by the walk *)
      for _ = 1 to 1 + Rng.int r 3 do
        push_call t r ~rev_prog ~count ~resource_at ~depth:0 (Rng.int r n)
      done
    end
    else begin
      let len = 1 + Rng.int r max_len in
      for _ = 1 to len do
        push_call t r ~rev_prog ~count ~resource_at ~depth:0 (Rng.int r n)
      done
    end;
    List.rev !rev_prog
  end

(* mutation retyping: the payload plan of a call name's first pointer
   argument *)
let retype_payload (t : t) (r : Rng.t) (c_name : string) : Vkernel.Value.uval =
  match Hashtbl.find_opt t.plan.Compiled.retypes c_name with
  | Some g -> uval_of_gen t r ~depth:0 g
  | None -> Vkernel.Value.U_str (Rng.fuzz_string r ~max_len:16)

(* Mutation itself lives in {!Mutator}: an ensemble of named operators
   over the programs this module generates, each preserving the
   P_result-points-backward-at-a-producer invariant. *)
