(** Interpreter for the mini-C dialect.

    Executes driver/socket handler functions against the corpus AST with:
    - per-statement coverage (statement ids are the coverage points,
      standing in for KCOV);
    - a tracked heap: use-after-free, double-free, oversized/zero-sized
      allocations, leaked objects;
    - lock, list and completion modeling for deadlock / list-corruption /
      task-hung crashes;
    - userspace data ({!Value.uval}) crossing the boundary only through
      [copy_from_user]-style builtins, field-by-field, so that wrong
      specifications produce kernel-side zeroes instead of meaningful
      values.

    Values use {!Value}'s tagged representation: integers that fit 63
    bits are immediates, so the arithmetic core below allocates nothing
    on its fast paths. Cold paths match through {!Value.view}; hot paths
    use {!Value.is_imm}/{!Value.imm}/{!Value.boxed} directly. *)

open Value

exception Return_exc of value
exception Break_exc
exception Continue_exc
exception Goto_exc of string
exception Exec_error of string
exception Exec_timeout

type state = {
  index : Csrc.Index.t;
  globals : value Stbl.t;
  coverage : (int, unit) Hashtbl.t;
  layouts : layout Stbl.t;
      (** memoized composite layout plans for {!typed_obj}: the field
          walk, type classification and composite lookup happen once per
          struct name, not once per instantiation. Owned by the machine
          and shared across the per-execution states it creates. *)
  frames : Pool.t;
      (** free-list pool for the jit's per-call slot arrays. Owned by
          the machine (like [layouts]) so steady-state execution reuses
          frames across programs instead of allocating per guest call. *)
  mutable tracked_objs : obj list;  (** explicit allocations, for leak scan *)
  mutable next_oid : int;
  mutable steps : int;
  step_budget : int;
  mutable depth : int;
  mutable spawn_fd : (string -> int64) option;
      (** installed by the syscall layer: allocate a new file descriptor
          backed by the named operation-handler global
          ([anon_inode_getfd], used by kvm-style drivers) *)
  mutable on_cover : int -> unit;
      (** coverage hook: defaults to recording into {!coverage}; the
          batch executor redirects it into a reusable per-campaign sink
          so hot loops allocate nothing per statement *)
}

(** One composite field in a layout plan: either a shared immutable zero
    (scalars, char arrays — values are never mutated in place, so one
    static value serves every instantiation) or a filler that must
    allocate fresh objects (nested composites, non-char arrays). *)
and filler = F_const of value | F_fill of (state -> string -> value)

and layout = { l_names : string array; l_fillers : filler array }
(** interned field names (shared with every instance as the typed
    object's [tnames]) and how to fill each *)

(* When the caller supplies its own coverage hook the per-state table is
   never consulted — all sink-driven states share this one dead table
   instead of allocating ~20 words each, millions of times per
   campaign. It is never written (the hook replaces the default
   recorder), so sharing it across states and domains is safe. *)
let dead_coverage : (int, unit) Hashtbl.t = Hashtbl.create 1

let create ~(index : Csrc.Index.t) ?layouts ?frames ?(step_budget = 200_000)
    ?on_cover () =
  let coverage =
    match on_cover with Some _ -> dead_coverage | None -> Hashtbl.create 1024
  in
  let st =
    {
      index;
      globals = Stbl.create 16;
      coverage;
      layouts = (match layouts with Some l -> l | None -> Stbl.create 16);
      frames = (match frames with Some f -> f | None -> Pool.create ());
      tracked_objs = [];
      next_oid = 1;
      steps = 0;
      step_budget;
      depth = 0;
      spawn_fd = None;
      on_cover = ignore;
    }
  in
  (st.on_cover <-
     match on_cover with
     | Some f -> f
     | None -> fun sid -> Hashtbl.replace st.coverage sid ());
  st

let new_obj st ~fn ~tracked slots =
  let o = { oid = st.next_oid; alloc_fn = fn; freed = false; data = slots } in
  st.next_oid <- st.next_oid + 1;
  if tracked then st.tracked_objs <- o :: st.tracked_objs;
  o

let fields_obj st ~fn ?(tracked = false) () =
  new_obj st ~fn ~tracked (Fields (Stbl.create 8))

(* ------------------------------------------------------------------ *)
(* Typed object construction                                           *)
(* ------------------------------------------------------------------ *)

let rec is_char_type (index : Csrc.Index.t) (ty : Csrc.Ast.ctype) =
  match ty with
  | Csrc.Ast.Int { width = 8; _ } -> true
  | Csrc.Ast.Named n -> (
      match Csrc.Index.find_typedef index n with
      | Some t -> is_char_type index t
      | None -> n = "u8" || n = "__u8" || n = "s8" || n = "__s8")
  | _ -> false

(* shared immutable zeros: one static value serves every instantiation *)
let empty_str : value = vstr ""

(** Default value for a struct field or local of the given type. *)
let rec zero_value st ~fn (ty : Csrc.Ast.ctype) : value =
  match ty with
  | Csrc.Ast.Void | Csrc.Ast.Bool | Csrc.Ast.Int _ | Csrc.Ast.Named _
  | Csrc.Ast.Enum_ref _ | Csrc.Ast.Ptr _ | Csrc.Ast.Func_ptr _ ->
      vzero
  | Csrc.Ast.Array (elem, _) when is_char_type st.index elem -> empty_str
  | Csrc.Ast.Array (elem, Some n) when n > 0 && n <= 4096 ->
      let cells = Array.init n (fun _ -> zero_value st ~fn elem) in
      vptr (new_obj st ~fn ~tracked:false (Cells cells))
  | Csrc.Ast.Array (_, _) -> vptr (new_obj st ~fn ~tracked:false (Cells [||]))
  | Csrc.Ast.Struct_ref name | Csrc.Ast.Union_ref name -> vptr (typed_obj st ~fn name)

(** Classify a field type once: fields whose zero is an immutable
    scalar share one static value across every instantiation; the rest
    compile to a filler that allocates per instantiation in the same
    order {!zero_value} would. *)
and filler_of (index : Csrc.Index.t) (ty : Csrc.Ast.ctype) : filler =
  match ty with
  | Csrc.Ast.Void | Csrc.Ast.Bool | Csrc.Ast.Int _ | Csrc.Ast.Named _
  | Csrc.Ast.Enum_ref _ | Csrc.Ast.Ptr _ | Csrc.Ast.Func_ptr _ ->
      F_const vzero
  | Csrc.Ast.Array (elem, _) when is_char_type index elem -> F_const empty_str
  | Csrc.Ast.Array (elem, Some n) when n > 0 && n <= 4096 -> (
      match filler_of index elem with
      | F_const z ->
          (* immutable zeros: one shared element value, no per-element
             closure calls (memset, not a field-by-field walk) *)
          F_fill (fun st fn -> vptr (new_obj st ~fn ~tracked:false (Cells (Array.make n z))))
      | F_fill f -> F_fill (fun st fn -> vptr (new_obj st ~fn ~tracked:false (Cells (Array.init n (fun _ -> f st fn))))))
  | Csrc.Ast.Array (_, _) ->
      F_fill (fun st fn -> vptr (new_obj st ~fn ~tracked:false (Cells [||])))
  | Csrc.Ast.Struct_ref name | Csrc.Ast.Union_ref name ->
      F_fill (fun st fn -> vptr (typed_obj st ~fn name))

(** Object for a struct/union type, fields initialized per the layout.
    The layout plan (field list, type classification, composite lookup)
    is computed once per struct name and memoized in [st.layouts].
    Field names are interned so every later probe on them takes the
    {!Value.Stbl} pointer-compare fast path. *)
and typed_obj st ~fn (comp_name : string) : obj =
  let layout =
    match Stbl.find_opt st.layouts comp_name with
    | Some l -> l
    | None ->
        let l =
          match Csrc.Index.find_composite st.index comp_name with
          | Some cd ->
              let fields = Array.of_list cd.fields in
              {
                l_names =
                  Array.map (fun f -> intern f.Csrc.Ast.field_name) fields;
                l_fillers =
                  Array.map (fun f -> filler_of st.index f.Csrc.Ast.field_type) fields;
              }
          | None -> { l_names = [||]; l_fillers = [||] }
        in
        Stbl.replace st.layouts comp_name l;
        l
  in
  let nf = Array.length layout.l_names in
  if nf = 0 then
    (* unknown composite (mutex, timer_list, ...): plain lazy fields,
       every store is an out-of-layout name anyway *)
    new_obj st ~fn ~tracked:false (Fields (Stbl.create 0))
  else begin
    let cells = Array.make nf vzero in
    for i = 0 to nf - 1 do
      match layout.l_fillers.(i) with
      | F_const v -> cells.(i) <- v
      | F_fill f -> cells.(i) <- f st fn
    done;
    new_obj st ~fn ~tracked:false (Typed { tnames = layout.l_names; tcells = cells })
  end

(* ------------------------------------------------------------------ *)
(* Object access                                                       *)
(* ------------------------------------------------------------------ *)

let check_alive ~fn o = if o.freed then Crash.raise_crash Crash.Kasan_uaf fn

(* A store to a name outside a typed object's layout (lock/list/debug
   pseudo-fields like "__locked", "__deref" cell fallbacks) migrates the
   object to the generic hash-table shape, bindings preserved. *)
let migrate_to_fields o (tf : Value.tfields) : value Stbl.t =
  let n = Array.length tf.tnames in
  let tbl = Stbl.create (n + 4) in
  for i = 0 to n - 1 do
    Stbl.replace tbl tf.tnames.(i) tf.tcells.(i)
  done;
  o.data <- Fields tbl;
  tbl

let obj_fields ~fn o =
  check_alive ~fn o;
  match o.data with
  | Fields tbl -> tbl
  | Typed tf -> migrate_to_fields o tf
  | Opaque ->
      (* promote a raw allocation on first structured access *)
      let tbl = Stbl.create 8 in
      o.data <- Fields tbl;
      tbl
  | Cells _ -> raise (Exec_error "field access on array object")

let get_field ~fn o name =
  check_alive ~fn o;
  match o.data with
  | Typed tf ->
      let i = Value.tindex tf name in
      if i >= 0 then tf.tcells.(i) else vzero
  | Fields tbl -> (
      match Stbl.find_opt tbl name with Some v -> v | None -> vzero)
  | Opaque ->
      (* promote on read too: the shape switch is observable to the
         structural memcpy/memset arms *)
      o.data <- Fields (Stbl.create 8);
      vzero
  | Cells _ -> raise (Exec_error "field access on array object")

let set_field ~fn o name v =
  check_alive ~fn o;
  match o.data with
  | Typed tf ->
      let i = Value.tindex tf name in
      if i >= 0 then tf.tcells.(i) <- v
      else Stbl.replace (migrate_to_fields o tf) name v
  | Fields tbl -> Stbl.replace tbl name v
  | Opaque ->
      let tbl = Stbl.create 8 in
      o.data <- Fields tbl;
      Stbl.replace tbl name v
  | Cells _ -> raise (Exec_error "field access on array object")

(* Precomputed-hash mirrors for the jit, which knows every field name
   at compile time. [h] must be [Stbl.hash name]. *)
let get_field_h ~fn o h name =
  check_alive ~fn o;
  match o.data with
  | Typed tf ->
      let i = Value.tindex tf name in
      if i >= 0 then tf.tcells.(i) else vzero
  | Fields tbl -> (
      match Stbl.find_opt_h tbl h name with Some v -> v | None -> vzero)
  | Opaque ->
      o.data <- Fields (Stbl.create 8);
      vzero
  | Cells _ -> raise (Exec_error "field access on array object")

let set_field_h ~fn o h name v =
  check_alive ~fn o;
  match o.data with
  | Typed tf ->
      let i = Value.tindex tf name in
      if i >= 0 then tf.tcells.(i) <- v
      else Stbl.replace (migrate_to_fields o tf) name v
  | Fields tbl -> Stbl.replace_h tbl h name v
  | Opaque ->
      let tbl = Stbl.create 8 in
      o.data <- Fields tbl;
      Stbl.replace_h tbl h name v
  | Cells _ -> raise (Exec_error "field access on array object")

(* Structural struct copy: every binding of [src_o] lands in [dst_o].
   Mirrors the historical hash-table/hash-table copy — any combo
   involving a raw or array shape stays a no-op. *)
let copy_struct ~fn dst_o src_o =
  match (dst_o.data, src_o.data) with
  | (Fields _ | Typed _), Fields s -> Stbl.iter (fun k v -> set_field ~fn dst_o k v) s
  | (Fields _ | Typed _), Typed tf ->
      Array.iteri (fun i n -> set_field ~fn dst_o n tf.tcells.(i)) tf.tnames
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Userspace data materialization                                      *)
(* ------------------------------------------------------------------ *)

let rec value_of_uval st ~fn (uv : uval) : value =
  match uv with
  | U_int v -> vint v
  | U_str s -> vstr s
  | U_null -> vzero
  | U_arr xs ->
      (* single pass, left to right like the List.map it replaces: the
         per-element materialization allocates, so order is oid order *)
      let n = List.length xs in
      let cells = Array.make n vzero in
      let rec fill i = function
        | [] -> ()
        | x :: rest ->
            cells.(i) <- value_of_uval st ~fn x;
            fill (i + 1) rest
      in
      fill 0 xs;
      vptr (new_obj st ~fn ~tracked:false (Cells cells))
  | U_struct (_, fields) ->
      let o = fields_obj st ~fn () in
      List.iter (fun (f, v) -> set_field ~fn o f (value_of_uval st ~fn v)) fields;
      vptr o

(** Copy user data into an existing kernel object, field by field. *)
let materialize_into st ~fn (dst : obj) (uv : uval) : unit =
  match uv with
  | U_struct (_, fields) ->
      List.iter (fun (f, v) -> set_field ~fn dst f (value_of_uval st ~fn v)) fields
  | U_int v -> set_field ~fn dst "__scalar" (vint v)
  | U_str s -> set_field ~fn dst "__scalar" (vstr s)
  | U_arr _ -> set_field ~fn dst "__scalar" (value_of_uval st ~fn uv)
  | U_null -> ()

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

type env = { st : state; locals : value Stbl.t; fn : string }

type lvalue =
  | L_local of string
  | L_global of string
  | L_field of obj * string
  | L_cell of obj * int


let step_state (st : state) =
  st.steps <- st.steps + 1;
  if st.steps > st.step_budget then raise Exec_timeout

let step env = step_state env.st

let cover env (s : Csrc.Ast.stmt) = env.st.on_cover s.Csrc.Ast.sid

(* Globals initialize lazily on first touch: a whole-kernel boot carries
   a thousand module globals, of which any one program touches a handful. *)
let rec get_global (st : state) (name : string) : value option =
  match Stbl.find_opt st.globals name with
  | Some v -> Some v
  | None -> (
      match Csrc.Index.find_global st.index name with
      | None -> None
      | Some g ->
          let v = init_global st g in
          Stbl.replace st.globals name v;
          Some v)

and init_global (st : state) (g : Csrc.Ast.global_def) : value =
  let fn = "__init" in
  let base =
    match g.global_type with
    | Csrc.Ast.Struct_ref n | Csrc.Ast.Union_ref n -> vptr (typed_obj st ~fn n)
    | Csrc.Ast.Array (elem, Some count) when count > 0 && count <= 4096 ->
        let cells = Array.init count (fun _ -> zero_value st ~fn elem) in
        vptr (new_obj st ~fn ~tracked:false (Cells cells))
    | ty -> zero_value st ~fn ty
  in
  (* publish before applying the initializer so cross-references resolve *)
  Stbl.replace st.globals g.global_name base;
  (match g.global_init with
  | None -> ()
  | Some gi -> (
      match gi with
      | Csrc.Ast.Init_designated fields when not (is_imm base) -> (
          match boxed base with
          | B_ptr o ->
              List.iter (fun (f, gi) -> set_field ~fn o f (init_value st gi)) fields
          | _ -> Stbl.replace st.globals g.global_name (init_value st gi))
      | _ -> Stbl.replace st.globals g.global_name (init_value st gi)));
  match Stbl.find_opt st.globals g.global_name with Some v -> v | None -> base

and get_global_h (st : state) (h : int) (name : string) : value option =
  (* precomputed-hash twin of {!get_global} for callers that resolve
     the same name repeatedly (the machine's handler dispatch) *)
  match Stbl.find_opt_h st.globals h name with
  | Some v -> Some v
  | None -> (
      match Csrc.Index.find_global st.index name with
      | None -> None
      | Some g ->
          let v = init_global st g in
          Stbl.replace_h st.globals h name v;
          Some v)

and init_value (st : state) (gi : Csrc.Ast.ginit) : value =
  let fn = "__init" in
  match gi with
  | Csrc.Ast.Init_expr (Csrc.Ast.Ident name) -> (
      match Csrc.Index.find_function st.index name with
      | Some _ -> vfn name
      | None -> (
          match get_global st name with
          | Some v -> v
          | None -> (
              match Csrc.Index.eval_macro st.index name with
              | Some v -> vint v
              | None -> (
                  match Csrc.Index.find_enum_item st.index name with
                  | Some e -> (
                      match Csrc.Index.eval_opt st.index e with Some v -> vint v | None -> vzero)
                  | None -> (
                      match Csrc.Index.string_macro st.index name with
                      | Some s -> vstr s
                      | None -> vzero)))))
  | Csrc.Ast.Init_expr (Csrc.Ast.Addr_of (Csrc.Ast.Ident name)) -> (
      match get_global st name with Some v -> v | None -> vzero)
  | Csrc.Ast.Init_expr e -> (
      match Csrc.Index.eval_opt st.index e with
      | Some v -> vint v
      | None -> (
          match Csrc.Index.eval_string st.index e with Some s -> vstr s | None -> vzero))
  | Csrc.Ast.Init_designated fields ->
      let o = fields_obj st ~fn () in
      List.iter (fun (f, gi) -> set_field ~fn o f (init_value st gi)) fields;
      vptr o
  | Csrc.Ast.Init_list items ->
      let cells = Array.of_list (List.map (init_value st) items) in
      vptr (new_obj st ~fn ~tracked:false (Cells cells))

let lookup_var env name : value option =
  match Stbl.find_opt env.locals name with
  | Some v -> Some v
  | None -> get_global env.st name

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let as_int v = Value.to_int v

let bool_v = vbool

(* Strict binop slow path: at least one operand is boxed. The Ptr/Str
   comparison arms live here; everything else coerces through {!as_int}
   exactly as before. (The historical [Ptr = 0] arms fell through to the
   int path with identical results — Ptr coerces to 1 — so they are
   simply gone.) *)
let binop_slow ~fn (op : Csrc.Ast.binop) (va : value) (vb : value) : value =
  let special =
    match op with
    | Csrc.Ast.Eq | Csrc.Ast.Ne ->
        if is_imm va || is_imm vb then None
        else (
          match (boxed va, boxed vb) with
          | B_ptr x, B_ptr y ->
              let e = x.oid = y.oid in
              Some (vbool (if op = Csrc.Ast.Eq then e else not e))
          | B_str x, B_str y ->
              let e = String.equal x y in
              Some (vbool (if op = Csrc.Ast.Eq then e else not e))
          | _ -> None)
    | _ -> None
  in
  match special with
  | Some r -> r
  | None -> (
      let x = as_int va and y = as_int vb in
      match op with
      | Csrc.Ast.Add -> vint (Int64.add x y)
      | Csrc.Ast.Sub -> vint (Int64.sub x y)
      | Csrc.Ast.Mul -> vint (Int64.mul x y)
      | Csrc.Ast.Div ->
          if Int64.equal y 0L then Crash.raise_crash Crash.Divide_error fn
          else vint (Int64.div x y)
      | Csrc.Ast.Mod ->
          if Int64.equal y 0L then Crash.raise_crash Crash.Divide_error fn
          else vint (Int64.rem x y)
      | Csrc.Ast.Shl -> vint (Int64.shift_left x (Int64.to_int (Int64.logand y 63L)))
      | Csrc.Ast.Shr -> vint (Int64.shift_right_logical x (Int64.to_int (Int64.logand y 63L)))
      | Csrc.Ast.Band -> vint (Int64.logand x y)
      | Csrc.Ast.Bor -> vint (Int64.logor x y)
      | Csrc.Ast.Bxor -> vint (Int64.logxor x y)
      | Csrc.Ast.Eq -> vbool (Int64.equal x y)
      | Csrc.Ast.Ne -> vbool (not (Int64.equal x y))
      | Csrc.Ast.Lt -> vbool (Int64.compare x y < 0)
      | Csrc.Ast.Le -> vbool (Int64.compare x y <= 0)
      | Csrc.Ast.Gt -> vbool (Int64.compare x y > 0)
      | Csrc.Ast.Ge -> vbool (Int64.compare x y >= 0)
      | Csrc.Ast.Land | Csrc.Ast.Lor -> assert false)

(** Strict (non-short-circuit) binary operators over already-evaluated
    values: shared by the tree-walking evaluator and the closure
    compiler ({!Jit}), so both produce identical results and crashes.

    Both-immediate operands take native-int fast paths that allocate
    nothing unless the exact 64-bit result needs the 64th bit; all
    semantics stay 64-bit two's-complement (an immediate is its own
    sign-extension, so native compares, bitwise ops and truncating
    div/mod agree with the [Int64] versions bit for bit). *)
let binop_values ~fn (op : Csrc.Ast.binop) (va : value) (vb : value) : value =
  if is_imm va && is_imm vb then
    let a = imm va and b = imm vb in
    match op with
    | Csrc.Ast.Add ->
        let s = a + b in
        if (a lxor s) land (b lxor s) < 0 then
          vint (Int64.add (Int64.of_int a) (Int64.of_int b))
        else fix s
    | Csrc.Ast.Sub ->
        let s = a - b in
        if (a lxor b) land (a lxor s) < 0 then
          vint (Int64.sub (Int64.of_int a) (Int64.of_int b))
        else fix s
    | Csrc.Ast.Mul ->
        (* exact when both factors fit 31 bits; otherwise fall back to
           the 64-bit multiply and renormalize *)
        if
          a >= -0x4000_0000 && a < 0x4000_0000 && b >= -0x4000_0000
          && b < 0x4000_0000
        then fix (a * b)
        else vint (Int64.mul (Int64.of_int a) (Int64.of_int b))
    | Csrc.Ast.Div ->
        if b = 0 then Crash.raise_crash Crash.Divide_error fn
        else if b = -1 then
          (* negating the 63-bit minimum needs the boxed fallback (and
             native division would trap on it) *)
          vint (Int64.neg (Int64.of_int a))
        else fix (a / b)
    | Csrc.Ast.Mod ->
        if b = 0 then Crash.raise_crash Crash.Divide_error fn
        else if b = -1 then vzero
        else fix (a mod b)
    | Csrc.Ast.Shl -> vint (Int64.shift_left (Int64.of_int a) (b land 63))
    | Csrc.Ast.Shr -> vint (Int64.shift_right_logical (Int64.of_int a) (b land 63))
    | Csrc.Ast.Band -> fix (a land b)
    | Csrc.Ast.Bor -> fix (a lor b)
    | Csrc.Ast.Bxor -> fix (a lxor b)
    | Csrc.Ast.Eq -> vbool (a = b)
    | Csrc.Ast.Ne -> vbool (a <> b)
    | Csrc.Ast.Lt -> vbool (a < b)
    | Csrc.Ast.Le -> vbool (a <= b)
    | Csrc.Ast.Gt -> vbool (a > b)
    | Csrc.Ast.Ge -> vbool (a >= b)
    | Csrc.Ast.Land | Csrc.Ast.Lor -> assert false
  else binop_slow ~fn op va vb

(* ------------------------------------------------------------------ *)
(* Builtins (value level)                                              *)
(* ------------------------------------------------------------------ *)

let expect_obj ~fn what v =
  if is_imm v then
    if imm v = 0 then Crash.raise_crash Crash.Gpf fn
    else raise (Exec_error (Printf.sprintf "%s: %s expects a kernel pointer" fn what))
  else
    match boxed v with
    | B_ptr o -> o
    | _ -> raise (Exec_error (Printf.sprintf "%s: %s expects a kernel pointer" fn what))

(* Every name the [builtin_values] match below handles. The closure
   compiler ({!Jit}) consults this at compile time to decide
   builtin-vs-user dispatch once per call site instead of once per
   execution — keep it in lockstep with the match arms. Builtins shadow
   user functions of the same name, exactly as [eval_call] tries
   [builtin] first. *)
let builtin_names =
  [
    "copy_from_user"; "copy_to_user"; "memdup_user"; "strncpy_from_user"; "kmalloc";
    "kzalloc"; "kvmalloc"; "kcalloc"; "vmalloc"; "vzalloc"; "kfree"; "vfree"; "kvfree";
    "mutex_init"; "spin_lock_init"; "mutex_lock"; "spin_lock"; "mutex_unlock";
    "spin_unlock"; "list_add"; "list_add_tail"; "list_del"; "INIT_LIST_HEAD"; "WARN_ON";
    "WARN_ON_ONCE"; "BUG_ON"; "init_completion"; "complete";
    "wait_for_completion_killable"; "timer_setup"; "mod_timer"; "del_timer";
    "del_timer_sync"; "schedule_timeout"; "msleep"; "capable"; "printk"; "pr_info";
    "pr_err"; "pr_warn"; "memset"; "memcpy"; "memcmp"; "strcmp"; "strncmp"; "strlen";
    "strncpy"; "strscpy"; "snprintf"; "min"; "min_t"; "max"; "max_t";
    "array_index_nospec"; "noop_llseek"; "nonseekable_open"; "stream_open"; "_IOC_NR";
    "_IOC_TYPE"; "_IOC_SIZE"; "_IOC_DIR"; "_IO"; "_IOR"; "_IOW"; "_IOWR"; "_IOC";
    "anon_inode_getfd"; "misc_register"; "misc_deregister"; "register_chrdev";
    "unregister_chrdev"; "cdev_init"; "cdev_add"; "device_create"; "class_create";
    "sock_register"; "proto_register"; "get_user"; "put_user";
  ]

let builtin_tbl : unit Stbl.t =
  let tbl = Stbl.create 128 in
  List.iter (fun n -> Stbl.replace tbl n ()) builtin_names;
  tbl

(** The same set as a name -> dense id map: the dispatch match in
    {!builtin_values_id} is an integer jump table, and the jit resolves
    a call site's id once at compile time instead of re-matching the
    name per execution. *)
let builtin_ids : int Stbl.t =
  let tbl = Stbl.create 128 in
  List.iteri (fun i n -> Stbl.replace tbl n i) builtin_names;
  tbl

(** How a builtin call site reaches its arguments, abstracted over the
    engine: the tree-walking wrapper evaluates argument ASTs on demand,
    the closure compiler ({!Jit}) invokes pre-compiled per-argument
    closures. Arguments stay lazy — several builtins evaluate only some
    of their arguments, or none, or one of them twice, and that order is
    part of the dual-engine identity contract. *)
type builtin_ctx = {
  bn : int;  (** argument count at the call site *)
  bv : int -> value;
      (** evaluate argument [i]; user pointers to plain byte buffers
          read as [Str] (string-builtin view); out of range is 0 *)
  braw : int -> value;  (** evaluate argument [i] without the string view *)
  bstore : int -> value -> bool;
      (** store through argument [i] as an lvalue; false if it is not one *)
  bsstore : int -> value -> bool;
      (** store through an [&x]-shaped argument [i] ([copy_from_user] on
          a scalar local); false if the shape does not match *)
  bfops : unit -> string option;
      (** first [&ident] argument naming an operation-handler global *)
  bio : unit -> value;  (** the [_IO*] encoder applied to the original call *)
}

let builtin_values_id (st : state) ~fn (id : int) (name : string) (b : builtin_ctx) :
    value option =
  let v = b.bv in
  let iv i = as_int (v i) in
  let alloc_checked size ~vmalloc =
    if vmalloc && Int64.equal size 0L then Crash.raise_crash Crash.Zero_size_vmalloc fn;
    if Int64.compare size 0x7fffffffL > 0 then Crash.raise_crash Crash.Kmalloc_bug fn;
    if Int64.compare size 0L <= 0 then vzero
    else vptr (new_obj st ~fn ~tracked:true Opaque)
  in
  let scalar_of_uval = function
    | U_int x -> vint x
    | U_str s -> vstr s
    | U_arr (U_int x :: _) -> vint x
    | U_arr _ | U_struct _ | U_null -> vzero
  in
  match id with
  | 0 -> (
      let src = v 1 in
      let copy_user uv =
        if uv = U_null then vone
        else
          match view (b.braw 0) with
          | Ptr o ->
              check_alive ~fn o;
              materialize_into st ~fn o uv;
              vzero
          | _ -> if b.bsstore 0 (scalar_of_uval uv) then vzero else vone
      in
      match view src with
      | Uptr uv -> Some (copy_user uv)
      | Str s -> Some (copy_user (U_str s))
      | Ptr src_o -> (
          check_alive ~fn src_o;
          match view (b.braw 0) with
          | Ptr dst_o ->
              check_alive ~fn dst_o;
              copy_struct ~fn dst_o src_o;
              Some vzero
          | _ -> Some vone)
      | Int _ | Unit | Fn _ -> Some vone)
  | 1 -> (
      match view (v 0) with
      | Uptr U_null | Int 0L -> Some vone
      | _ -> Some vzero)
  | 2 -> (
      match view (v 0) with
      | Uptr U_null | Int 0L -> Some vzero
      | Uptr uv ->
          let o = new_obj st ~fn ~tracked:true (Fields (Stbl.create 8)) in
          materialize_into st ~fn o uv;
          Some (vptr o)
      | Ptr o -> Some (vptr o)
      | _ -> Some vzero)
  | 3 -> (
      match (view (v 0), view (v 1)) with
      | _, (Uptr U_null | Int 0L) -> Some (vint (-14L))
      | lv, Uptr (U_str s) ->
          (match lv with
          | Ptr o -> set_field ~fn o "__scalar" (vstr s)
          | _ -> ());
          ignore (b.bstore 0 (vstr s));
          Some (vint (Int64.of_int (String.length s)))
      | _, _ -> Some vzero)
  | 4 | 5 -> Some (alloc_checked (iv 0) ~vmalloc:false)
  | 6 -> Some (alloc_checked (iv 0) ~vmalloc:false)
  | 7 -> Some (alloc_checked (Int64.mul (iv 0) (iv 1)) ~vmalloc:false)
  | 8 | 9 -> Some (alloc_checked (iv 0) ~vmalloc:true)
  | 10 | 11 | 12 -> (
      match view (v 0) with
      | Int 0L | Unit -> Some vzero
      | Ptr o ->
          if o.freed then Crash.raise_crash Crash.Double_free fn;
          o.freed <- true;
          Some vzero
      | _ -> Some vzero)
  | 13 | 14 ->
      let o = expect_obj ~fn name (v 0) in
      set_field ~fn o "__locked" vzero;
      Some vzero
  | 15 | 16 ->
      let o = expect_obj ~fn name (v 0) in
      if truthy (get_field ~fn o "__locked") then Crash.raise_crash Crash.Deadlock fn;
      set_field ~fn o "__locked" vone;
      Some vzero
  | 17 | 18 ->
      let o = expect_obj ~fn name (v 0) in
      set_field ~fn o "__locked" vzero;
      Some vzero
  | 19 | 20 ->
      let o = expect_obj ~fn name (v 0) in
      if truthy (get_field ~fn o "__on_list") then
        Crash.raise_crash Crash.List_corruption fn;
      set_field ~fn o "__on_list" vone;
      Some vzero
  | 21 ->
      let o = expect_obj ~fn name (v 0) in
      set_field ~fn o "__on_list" vzero;
      Some vzero
  | 22 ->
      let o = expect_obj ~fn name (v 0) in
      set_field ~fn o "__on_list" vzero;
      Some vzero
  | 23 | 24 ->
      let c = v 0 in
      if truthy c then Crash.raise_crash Crash.Warning fn;
      Some c
  | 25 ->
      if truthy (v 0) then Crash.raise_crash Crash.Kernel_bug fn;
      Some vzero
  | 26 ->
      let o = expect_obj ~fn name (v 0) in
      set_field ~fn o "__done" vzero;
      Some vzero
  | 27 ->
      let o = expect_obj ~fn name (v 0) in
      set_field ~fn o "__done" vone;
      Some vzero
  | 28 ->
      let o = expect_obj ~fn name (v 0) in
      if not (truthy (get_field ~fn o "__done")) then
        Crash.raise_crash Crash.Task_hung fn;
      Some vzero
  | 29 ->
      let o = expect_obj ~fn name (v 0) in
      set_field ~fn o "__pending" vzero;
      Some vzero
  | 30 ->
      let o = expect_obj ~fn name (v 0) in
      if truthy (get_field ~fn o "__pending") then Crash.raise_crash Crash.Odebug fn;
      set_field ~fn o "__pending" vone;
      Some vzero
  | 31 | 32 -> (
      match view (v 0) with
      | Ptr o ->
          set_field ~fn o "__pending" vzero;
          Some vzero
      | _ -> Some vzero)
  | 33 | 34 -> Some vzero
  | 35 -> Some vone
  | 36 | 37 | 38 | 39 -> Some vzero
  | 40 -> (
      match view (v 0) with
      | Ptr o ->
          check_alive ~fn o;
          (match o.data with
          | Fields tbl -> Stbl.reset tbl
          | Typed tf -> Array.fill tf.tcells 0 (Array.length tf.tcells) vzero
          | Cells cells -> Array.fill cells 0 (Array.length cells) (vint (iv 1))
          | Opaque -> ());
          Some (v 0)
      | _ -> Some vzero)
  | 41 -> (
      match (view (v 0), view (v 1)) with
      | Ptr d, Ptr s ->
          check_alive ~fn d;
          check_alive ~fn s;
          (match (d.data, s.data) with
          | Cells dc, Cells sc ->
              Array.blit sc 0 dc 0 (min (Array.length sc) (Array.length dc))
          | _ -> copy_struct ~fn d s);
          Some (v 0)
      | _ -> Some vzero)
  | 42 -> (
      match (view (v 0), view (v 1)) with
      | Str a, Str b -> Some (vint (Int64.of_int (String.compare a b)))
      | Ptr a, Ptr b -> Some (vbool (a.oid <> b.oid))
      | _ -> Some vone)
  | 43 -> (
      match (view (v 0), view (v 1)) with
      | Str a, Str b -> Some (vint (Int64.of_int (String.compare a b)))
      | _ -> Some vone)
  | 44 -> (
      match (view (v 0), view (v 1)) with
      | Str a, Str b ->
          let n = Int64.to_int (iv 2) in
          let trunc s = if String.length s > n then String.sub s 0 n else s in
          Some (vint (Int64.of_int (String.compare (trunc a) (trunc b))))
      | _ -> Some vone)
  | 45 -> (
      match view (v 0) with
      | Str s -> Some (vint (Int64.of_int (String.length s)))
      | _ -> Some vzero)
  | 46 | 47 ->
      let src = match view (v 1) with Str s -> s | _ -> Value.to_string (v 1) in
      let n = Int64.to_int (iv 2) in
      let src = if String.length src > n then String.sub src 0 n else src in
      if b.bstore 0 (vstr src) then Some (vint (Int64.of_int (String.length src)))
      else Some vzero
  | 48 ->
      let text = match view (v 2) with Str s -> s | _ -> Value.to_string (v 2) in
      if b.bstore 0 (vstr text) then Some (vint (Int64.of_int (String.length text)))
      else Some vzero
  | 49 | 50 -> (
      match b.bn with
      | 2 -> Some (vint (min (as_int (b.braw 0)) (as_int (b.braw 1))))
      | 3 -> Some (vint (min (as_int (b.braw 1)) (as_int (b.braw 2))))
      | _ -> Some vzero)
  | 51 | 52 -> (
      match b.bn with
      | 2 -> Some (vint (max (as_int (b.braw 0)) (as_int (b.braw 1))))
      | 3 -> Some (vint (max (as_int (b.braw 1)) (as_int (b.braw 2))))
      | _ -> Some vzero)
  | 53 ->
      let i = iv 0 and n = iv 1 in
      Some (vint (if Int64.compare i n < 0 && Int64.compare i 0L >= 0 then i else 0L))
  | 54 | 55 | 56 -> Some vzero
  | 57 -> Some (vint (Int64.logand (iv 0) 0xffL))
  | 58 -> Some (vint (Int64.logand (Int64.shift_right_logical (iv 0) 8) 0xffL))
  | 59 -> Some (vint (Int64.logand (Int64.shift_right_logical (iv 0) 16) 0x3fffL))
  | 60 -> Some (vint (Int64.logand (Int64.shift_right_logical (iv 0) 30) 0x3L))
  | 61 | 62 | 63 | 64 | 65 ->
      (* constant contexts resolve through the index; runtime occurrences
         use the same encoder *)
      Some (b.bio ())
  | 66 -> (
      (* anon_inode_getfd("name", &some_fops, priv, flags) returns a fresh
         fd dispatching through the given operation handler *)
      match (b.bfops (), st.spawn_fd) with
      | Some g, Some spawn -> Some (vint (spawn g))
      | _ -> Some (vint (-22L)))
  | 67 | 68 | 69 | 70
  | 71 | 72 | 73 | 74 | 75
  | 76 ->
      Some vzero
  | 77 | 78 -> Some vzero
  | _ -> None


(** The name-keyed face of {!builtin_values_id}: the value-level
    builtin core shared by both engines. *)
let builtin_values (st : state) ~fn (name : string) (b : builtin_ctx) : value option =
  match Stbl.find_opt builtin_ids name with
  | Some id -> builtin_values_id st ~fn id name b
  | None -> None

let rec eval env (e : Csrc.Ast.expr) : value =
  match e with
  | Csrc.Ast.Const_int v -> vint v
  | Csrc.Ast.Const_char c -> fix (Char.code c)
  | Csrc.Ast.Const_str s -> vstr s
  | Csrc.Ast.Ident name -> eval_ident env name
  | Csrc.Ast.Unop (op, a) -> (
      let v = eval env a in
      match op with
      | Csrc.Ast.Neg -> vneg v
      | Csrc.Ast.Not -> vbool (not (truthy v))
      | Csrc.Ast.Bit_not -> vlognot v)
  | Csrc.Ast.Binop (op, a, b) -> eval_binop env op a b
  | Csrc.Ast.Assign (lhs, rhs) ->
      let v = eval env rhs in
      store env (eval_lval env lhs) v;
      v
  | Csrc.Ast.Call (name, args) -> eval_call env name args
  | Csrc.Ast.Member (a, f) | Csrc.Ast.Arrow (a, f) -> (
      let base = eval env a in
      if is_imm base then Crash.raise_crash Crash.Gpf env.fn
      else
        match boxed base with
        | B_ptr o -> get_field ~fn:env.fn o f
        | B_uptr (U_struct (_, fields)) -> (
            match List.assoc_opt f fields with
            | Some uv -> value_of_uval env.st ~fn:env.fn uv
            | None -> vzero)
        | B_uptr U_null | B_i64 _ -> Crash.raise_crash Crash.Gpf env.fn
        | _ -> raise (Exec_error (Printf.sprintf "%s: bad field base for .%s" env.fn f)))
  | Csrc.Ast.Index (a, i) -> (
      let idx = Int64.to_int (as_int (eval env i)) in
      let base = eval env a in
      if is_imm base then
        if imm base = 0 then Crash.raise_crash Crash.Gpf env.fn else vzero
      else
        match boxed base with
        | B_ptr o -> (
            check_alive ~fn:env.fn o;
            match o.data with
            | Cells cells ->
                if idx < 0 || idx >= Array.length cells then
                  Crash.raise_crash Crash.Ubsan_oob env.fn
                else cells.(idx)
            | Fields _ | Typed _ | Opaque -> vzero)
        | B_str s ->
            if idx >= 0 && idx < String.length s then fix (Char.code s.[idx])
            else vzero
        | B_uptr (U_arr xs) -> (
            match List.nth_opt xs idx with
            | Some uv -> value_of_uval env.st ~fn:env.fn uv
            | None -> vzero)
        | _ -> vzero)
  | Csrc.Ast.Cast (_, a) -> eval env a
  | Csrc.Ast.Sizeof_type ty -> vint (Int64.of_int (Csrc.Index.sizeof env.st.index ty))
  | Csrc.Ast.Sizeof_expr _ -> vint 8L
  | Csrc.Ast.Ternary (c, t, f) -> if truthy (eval env c) then eval env t else eval env f
  | Csrc.Ast.Addr_of a -> (
      (* &x where x is a struct local/global is the object itself; &arr[i]
         likewise when the element is an object *)
      match a with
      | Csrc.Ast.Ident _ | Csrc.Ast.Member _ | Csrc.Ast.Arrow _ | Csrc.Ast.Index _ -> eval env a
      | _ -> eval env a)
  | Csrc.Ast.Deref a ->
      let v = eval env a in
      (if is_imm v then (
         if imm v = 0 then Crash.raise_crash Crash.Gpf env.fn)
       else
         match boxed v with
         | B_ptr o -> check_alive ~fn:env.fn o
         | _ -> ());
      v
  | Csrc.Ast.Type_arg ty -> vint (Int64.of_int (Csrc.Index.sizeof env.st.index ty))

and eval_ident env name =
  match lookup_var env name with
  | Some v -> v
  | None -> (
      match Csrc.Index.ident_const env.st.index name with
      | Csrc.Index.C_int v -> vint v
      | Csrc.Index.C_str s -> vstr s
      | Csrc.Index.C_none -> (
          match Csrc.Index.find_function env.st.index name with
          | Some _ -> vfn name
          | None -> vzero))

and eval_binop env op a b =
  match op with
  | Csrc.Ast.Land -> vbool (truthy (eval env a) && truthy (eval env b))
  | Csrc.Ast.Lor -> vbool (truthy (eval env a) || truthy (eval env b))
  | _ ->
      let va = eval env a in
      let vb = eval env b in
      binop_values ~fn:env.fn op va vb

and eval_lval env (e : Csrc.Ast.expr) : lvalue =
  match e with
  | Csrc.Ast.Ident name ->
      if Stbl.mem env.locals name then L_local name
      else if get_global env.st name <> None then L_global name
      else L_local name (* implicit declaration (for-loop desugaring) *)
  | Csrc.Ast.Member (a, f) | Csrc.Ast.Arrow (a, f) -> (
      let base = eval env a in
      if is_imm base then Crash.raise_crash Crash.Gpf env.fn
      else
        match boxed base with
        | B_ptr o ->
            check_alive ~fn:env.fn o;
            L_field (o, f)
        | B_i64 _ -> Crash.raise_crash Crash.Gpf env.fn
        | _ -> raise (Exec_error (Printf.sprintf "%s: bad lvalue base for .%s" env.fn f)))
  | Csrc.Ast.Index (a, i) -> (
      let idx = Int64.to_int (as_int (eval env i)) in
      let base = eval env a in
      if is_imm base then
        if imm base = 0 then Crash.raise_crash Crash.Gpf env.fn
        else raise (Exec_error (env.fn ^ ": bad array lvalue"))
      else
        match boxed base with
        | B_ptr o -> (
            check_alive ~fn:env.fn o;
            match o.data with
            | Cells cells ->
                if idx < 0 || idx >= Array.length cells then
                  Crash.raise_crash Crash.Ubsan_oob env.fn
                else L_cell (o, idx)
            | Fields _ | Typed _ | Opaque -> L_field (o, Printf.sprintf "__idx%d" idx))
        | _ -> raise (Exec_error (env.fn ^ ": bad array lvalue")))
  | Csrc.Ast.Deref a -> (
      let base = eval env a in
      if is_imm base then
        if imm base = 0 then Crash.raise_crash Crash.Gpf env.fn
        else raise (Exec_error (env.fn ^ ": bad deref lvalue"))
      else
        match boxed base with
        | B_ptr o ->
            check_alive ~fn:env.fn o;
            L_field (o, "__deref")
        | _ -> raise (Exec_error (env.fn ^ ": bad deref lvalue")))
  | Csrc.Ast.Cast (_, a) -> eval_lval env a
  | _ -> raise (Exec_error (env.fn ^ ": expression is not an lvalue"))

and store env (lv : lvalue) (v : value) : unit =
  match lv with
  | L_local name -> Stbl.replace env.locals name v
  | L_global name -> Stbl.replace env.st.globals name v
  | L_field (o, f) -> set_field ~fn:env.fn o f v
  | L_cell (o, idx) -> (
      match o.data with
      | Cells cells -> cells.(idx) <- v
      | Fields _ | Typed _ | Opaque -> raise (Exec_error "cell store on non-array"))

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

and eval_call env name (args : Csrc.Ast.expr list) : value =
  match builtin env name args with
  | Some v -> v
  | None -> (
      match Csrc.Index.find_function env.st.index name with
      | Some fd when fd.fun_body <> [] ->
          let argv = List.map (eval env) args in
          call_function env.st name fd argv
      | Some _ | None -> vzero)

(* The expr-level face of {!builtin_values}: evaluates arguments on
   demand through the tree walker. The name check up front keeps the
   (cheap) context record off the user-function call path entirely. *)
and builtin env name (args : Csrc.Ast.expr list) : value option =
  match Stbl.find_opt builtin_ids name with
  | None -> None
  | Some id -> begin
    let arg i =
      match List.nth_opt args i with
      | Some e -> e
      | None -> Csrc.Ast.Const_int 0L
    in
    (* [copy_from_user(&local, src, n)] on a scalar local cannot go
       through value semantics; resolve the destination as an lvalue *)
    let strip_addr e =
      let rec strip = function
        | Csrc.Ast.Cast (_, e) -> strip e
        | Csrc.Ast.Addr_of e -> Some e
        | _ -> None
      in
      strip e
    in
    let b =
      {
        bn = List.length args;
        bv =
          (fun i ->
            (* user pointers to plain byte buffers behave like strings
               for the string builtins *)
            let x = eval env (arg i) in
            if is_imm x then x
            else match boxed x with B_uptr (U_str s) -> vstr s | _ -> x);
        braw = (fun i -> eval env (arg i));
        bstore =
          (fun i sv ->
            try
              store env (eval_lval env (arg i)) sv;
              true
            with Exec_error _ -> false);
        bsstore =
          (fun i sv ->
            match strip_addr (arg i) with
            | Some inner -> (
                try
                  store env (eval_lval env inner) sv;
                  true
                with Exec_error _ -> false)
            | None -> false);
        bfops =
          (fun () ->
            let rec find = function
              | Csrc.Ast.Addr_of (Csrc.Ast.Ident g) -> Some g
              | Csrc.Ast.Cast (_, e) -> find e
              | _ -> None
            in
            List.find_map find args);
        bio =
          (fun () ->
            match Csrc.Index.eval_opt env.st.index (Csrc.Ast.Call (name, args)) with
            | Some x -> vint x
            | None -> vzero);
      }
    in
    builtin_values_id env.st ~fn:env.fn id name b
  end

(* ------------------------------------------------------------------ *)
(* Statements and functions                                            *)
(* ------------------------------------------------------------------ *)

and exec_stmt env (s : Csrc.Ast.stmt) : unit =
  step env;
  cover env s;
  match s.Csrc.Ast.node with
  | Csrc.Ast.Expr_stmt e -> ignore (eval env e)
  | Csrc.Ast.Decl_stmt (ty, name, init) ->
      let v =
        match init with
        | Some e -> eval env e
        | None -> zero_value env.st ~fn:env.fn ty
      in
      Stbl.replace env.locals name v
  | Csrc.Ast.If (c, t, f) ->
      if truthy (eval env c) then exec_block env t
      else ( match f with Some f -> exec_block env f | None -> ())
  | Csrc.Ast.Switch (scrut, cases) -> exec_switch env scrut cases
  | Csrc.Ast.While (c, body) ->
      (try
         while truthy (eval env c) do
           step env;
           try exec_block env body with Continue_exc -> ()
         done
       with Break_exc -> ())
  | Csrc.Ast.Do_while (body, c) ->
      (try
         let continue_loop = ref true in
         while !continue_loop do
           step env;
           (try exec_block env body with Continue_exc -> ());
           continue_loop := truthy (eval env c)
         done
       with Break_exc -> ())
  | Csrc.Ast.For (init, cond, upd, body) ->
      (match init with Some e -> ignore (eval env e) | None -> ());
      (try
         let check () = match cond with Some c -> truthy (eval env c) | None -> true in
         while check () do
           step env;
           (try exec_block env body with Continue_exc -> ());
           match upd with Some u -> ignore (eval env u) | None -> ()
         done
       with Break_exc -> ())
  | Csrc.Ast.Return e ->
      let v = match e with Some e -> eval env e | None -> vunit in
      raise (Return_exc v)
  | Csrc.Ast.Break -> raise Break_exc
  | Csrc.Ast.Continue -> raise Continue_exc
  | Csrc.Ast.Goto l -> raise (Goto_exc l)
  | Csrc.Ast.Label _ -> ()
  | Csrc.Ast.Block b -> exec_block env b

and exec_block env (b : Csrc.Ast.block) : unit = List.iter (exec_stmt env) b

and exec_switch env scrut cases =
  let key = as_int (eval env scrut) in
  let matches case =
    List.exists
      (function
        | Csrc.Ast.Case e -> Int64.equal (as_int (eval env e)) key
        | Csrc.Ast.Default -> false)
      case.Csrc.Ast.labels
  in
  let is_default case = List.mem Csrc.Ast.Default case.Csrc.Ast.labels in
  let rec find_start i = function
    | [] -> None
    | c :: rest -> if matches c then Some i else find_start (i + 1) rest
  in
  let start =
    match find_start 0 cases with
    | Some i -> Some i
    | None -> (
        let rec find_default i = function
          | [] -> None
          | c :: rest -> if is_default c then Some i else find_default (i + 1) rest
        in
        find_default 0 cases)
  in
  match start with
  | None -> ()
  | Some i -> (
      let rest = List.filteri (fun j _ -> j >= i) cases in
      try List.iter (fun c -> exec_block env c.Csrc.Ast.case_body) rest
      with Break_exc -> ())

and call_function (st : state) (fname : string) (fd : Csrc.Ast.func_def) (argv : value list)
    : value =
  if st.depth > 64 then raise (Exec_error ("recursion too deep at " ^ fname));
  st.depth <- st.depth + 1;
  let locals = Stbl.create 16 in
  (* one simultaneous walk over params/argv: extra arguments are
     dropped, missing parameters read as zero *)
  let rec bind params argv =
    match (params, argv) with
    | [], _ -> ()
    | (_, pname) :: ps, [] ->
        Stbl.replace locals pname vzero;
        bind ps []
    | (_, pname) :: ps, a :: rest ->
        Stbl.replace locals pname a;
        bind ps rest
  in
  bind fd.fun_params argv;
  let env = { st; locals; fn = fname } in
  (* label -> tail of the body, built at most once per call; the first
     occurrence of a duplicated label wins, matching the Jit's
     compile-time label table *)
  let label_map =
    lazy
      (let rec go acc = function
         | [] -> List.rev acc
         | s :: rest -> (
             match s.Csrc.Ast.node with
             | Csrc.Ast.Label l when not (List.mem_assoc l acc) ->
                 go ((l, s :: rest) :: acc) rest
             | _ -> go acc rest)
       in
       go [] fd.fun_body)
  in
  let result =
    let rec run stmts =
      try
        List.iter (exec_stmt env) stmts;
        vunit
      with
      | Return_exc v -> v
      | Goto_exc l -> (
          match List.assoc_opt l (Lazy.force label_map) with
          | Some rest -> run rest
          | None -> raise (Exec_error (Printf.sprintf "%s: unknown label %s" fname l)))
    in
    run fd.fun_body
  in
  st.depth <- st.depth - 1;
  result

(** Entry point used by the syscall layer: call a named function with
    already-evaluated arguments. *)
let call st fname (argv : value list) : value =
  match Csrc.Index.find_function st.index fname with
  | Some fd when fd.fun_body <> [] -> call_function st fname fd argv
  | Some _ | None -> raise (Exec_error ("no such function " ^ fname))

(* ------------------------------------------------------------------ *)
(* Leak detection                                                      *)
(* ------------------------------------------------------------------ *)

(** Objects allocated by the program, never freed, and unreachable from
    the given roots — kmemleak's definition. Returns their allocation
    sites. *)
let leaked_objects (st : state) ~(roots : value list) : string list =
  (* nothing tracked means nothing can leak: skip the mark phase, which
     otherwise walks every touched global's object graph per execution *)
  if st.tracked_objs = [] then []
  else begin
  (* oids count up from 1 per state, so the reached set is a bitmap
     indexed by oid — the mark phase visits every live object and a
     hash table here costs a probe per edge *)
  let reached = Bytes.make ((st.next_oid lsr 3) + 1) '\000' in
  (* in range for [mem] and [add]: every object in this state's graph
     came from [new_obj] on this state (each execution creates its own),
     which hands out oids 1 .. next_oid - 1, and no object is created
     while marking *)
  let mem oid =
    Char.code (Bytes.unsafe_get reached (oid lsr 3)) land (1 lsl (oid land 7)) <> 0
  in
  let add oid =
    Bytes.unsafe_set reached (oid lsr 3)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get reached (oid lsr 3)) lor (1 lsl (oid land 7))))
  in
  let rec mark v =
    if not (is_imm v) then
      match boxed v with
      | B_ptr o ->
          if not (mem o.oid) then begin
            add o.oid;
            match o.data with
            | Fields tbl -> Stbl.iter (fun _ v -> mark v) tbl
            | Typed tf -> Array.iter mark tf.tcells
            | Cells cells -> Array.iter mark cells
            | Opaque -> ()
          end
      | _ -> ()
  in
  List.iter mark roots;
  Stbl.iter (fun _ v -> mark v) st.globals;
  List.filter_map
    (fun o ->
      if (not o.freed) && not (mem o.oid) then Some o.alloc_fn else None)
    st.tracked_objs
  end
