(** Runtime values of the virtual kernel.

    Two value worlds meet here:
    - {!uval} is *userspace data*: the argument trees the fuzzer
      generates from syzlang types and passes through the syscall
      boundary (the equivalent of the bytes Syzkaller writes into the
      target process' memory);
    - {!value} is *kernel data*: what the interpreter computes with.

    Kernel heap objects track allocation site and liveness so that
    use-after-free, double-free and leak detection work like KASAN and
    kmemleak do in the paper's fuzzing campaigns. *)

(** Userspace argument data. Struct fields are keyed by the field names of
    the syzlang type the fuzzer generated from; [copy_from_user]
    materializes them into kernel objects by name. A spec with wrong or
    meaningless field names (e.g. static-analysis output with [field_0]
    style names) therefore produces kernel-side garbage — the simulator's
    stand-in for a wrong byte layout. *)
type uval =
  | U_int of int64
  | U_str of string
  | U_arr of uval list
  | U_struct of string * (string * uval) list
  | U_null

(** String-keyed hashtable for object fields, globals and locals — the
    executor's hottest data structure. A bespoke monomorphic table
    rather than [Hashtbl]: without flambda, both the generic [Hashtbl]
    (polymorphic compare on every probe) and a [Hashtbl.Make] instance
    (indirect calls through the functor record per operation) leave
    measurable dispatch cost in the hot loops. Chained buckets with
    mutable cells, direct [String.equal] probes and an inline FNV-1a
    hash keep every call monomorphic and direct. Probes try physical
    equality first: keys fixed at spec-load time go through {!intern},
    so the common hit is a single pointer compare. *)
module Stbl = struct
  type 'a cell = Nil | Cell of { ckey : string; mutable cval : 'a; mutable cnext : 'a cell }

  type 'a t = { mutable buckets : 'a cell array; mutable size : int }

  (* FNV-1a over the first 16 bytes, seeded with the length: keys are
     identifiers, so a bounded pure-OCaml loop beats a hashing C call;
     longer keys sharing prefix and length just share a bucket. *)
  let hash (s : string) =
    let n = String.length s in
    let m = if n > 16 then 16 else n in
    let h = ref (0x811c9dc5 lxor n) in
    (* in range: i < m <= String.length s *)
    for i = 0 to m - 1 do
      h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193
    done;
    !h

  let rec pow2 c n = if c >= n then c else pow2 (c * 2) n

  let create n : 'a t = { buckets = Array.make (pow2 4 (min n 65536)) Nil; size = 0 }

  let resize (t : 'a t) =
    let old = t.buckets in
    let nmask = (2 * Array.length old) - 1 in
    let nb = Array.make (nmask + 1) Nil in
    Array.iter
      (fun c ->
        let rec go = function
          | Nil -> ()
          | Cell ({ ckey; cnext; _ } as c) ->
              let i = hash ckey land nmask in
              c.cnext <- nb.(i);
              nb.(i) <- Cell c;
              go cnext
        in
        go c)
      old;
    t.buckets <- nb

  let find_opt (t : 'a t) (key : string) : 'a option =
    let rec go = function
      | Nil -> None
      | Cell { ckey; cval; cnext } ->
          if ckey == key || String.equal ckey key then Some cval else go cnext
    in
    go t.buckets.(hash key land (Array.length t.buckets - 1))

  (* [_h] variants take the hash precomputed: the jit hashes each
     static key once at compile time instead of once per executed
     access. [h] must be [hash key]. *)
  let find_opt_h (t : 'a t) (h : int) (key : string) : 'a option =
    let rec go = function
      | Nil -> None
      | Cell { ckey; cval; cnext } ->
          if ckey == key || String.equal ckey key then Some cval else go cnext
    in
    go t.buckets.(h land (Array.length t.buckets - 1))

  let find (t : 'a t) (key : string) : 'a =
    let rec go = function
      | Nil -> raise Not_found
      | Cell { ckey; cval; cnext } ->
          if ckey == key || String.equal ckey key then cval else go cnext
    in
    go t.buckets.(hash key land (Array.length t.buckets - 1))

  let mem (t : 'a t) (key : string) : bool =
    let rec go = function
      | Nil -> false
      | Cell { ckey; cnext; _ } -> ckey == key || String.equal ckey key || go cnext
    in
    go t.buckets.(hash key land (Array.length t.buckets - 1))

  let replace (t : 'a t) (key : string) (v : 'a) : unit =
    let i = hash key land (Array.length t.buckets - 1) in
    let rec go = function
      | Nil ->
          t.buckets.(i) <- Cell { ckey = key; cval = v; cnext = t.buckets.(i) };
          t.size <- t.size + 1;
          if t.size > 2 * Array.length t.buckets then resize t
      | Cell ({ ckey; _ } as c) ->
          if ckey == key || String.equal ckey key then c.cval <- v else go c.cnext
    in
    go t.buckets.(i)

  let replace_h (t : 'a t) (h : int) (key : string) (v : 'a) : unit =
    let i = h land (Array.length t.buckets - 1) in
    let rec go = function
      | Nil ->
          t.buckets.(i) <- Cell { ckey = key; cval = v; cnext = t.buckets.(i) };
          t.size <- t.size + 1;
          if t.size > 2 * Array.length t.buckets then resize t
      | Cell ({ ckey; _ } as c) ->
          if ckey == key || String.equal ckey key then c.cval <- v else go c.cnext
    in
    go t.buckets.(i)

  let iter (f : string -> 'a -> unit) (t : 'a t) : unit =
    Array.iter
      (fun c ->
        let rec go = function
          | Nil -> ()
          | Cell { ckey; cval; cnext } ->
              f ckey cval;
              go cnext
        in
        go c)
      t.buckets

  let reset (t : 'a t) : unit =
    Array.fill t.buckets 0 (Array.length t.buckets) Nil;
    t.size <- 0

  let length (t : 'a t) = t.size
end

(** Interned identifier strings. Field names, global names and fd-handler
    keys are fixed at spec-load time; routing them through one table
    makes every later {!Stbl} probe on them hit the physical-equality
    fast path. The table is only consulted at compile/boot time (never
    on the execution hot path), so one global mutex is enough for the
    worker domains.

    A name is copied the first time it is seen, so the canonical strings
    lie together. Kept as given, each would be the caller's string,
    often an identifier inside a parsed AST: scattered wherever the
    parse left it, read by every execution's probes, and keeping that
    part of the heap from being released. *)
let intern : string -> string =
  let tbl : (string, string) Hashtbl.t = Hashtbl.create 1024 in
  let mu = Mutex.create () in
  fun s ->
    Mutex.lock mu;
    let r =
      match Hashtbl.find_opt tbl s with
      | Some s' -> s'
      | None ->
          let s = String.sub s 0 (String.length s) in
          Hashtbl.add tbl s s;
          s
    in
    Mutex.unlock mu;
    r

(** The kernel value representation. Guest programs compute almost
    exclusively with integers, so the hot case is *tagged*: any int64
    whose value fits in OCaml's native 63-bit immediate range is stored
    unboxed (no allocation per arithmetic result); everything else —
    including the rare integers that genuinely need the 64th bit — lives
    in a boxed constructor. The representation is sealed behind this
    module so the tag games stay in one place; the rest of the system
    uses the [v*] smart constructors, {!view} for cold-path matching,
    and {!is_imm}/{!imm}/{!boxed} for allocation-free hot-path
    inspection.

    Invariant (load-bearing for polymorphic [=] on values, which the
    differential tests use): [B_i64] never holds a 63-bit-representable
    value — {!vint} normalizes — so semantically equal integers always
    have identical representation. *)
module Repr : sig
  type value

  type obj = {
    oid : int;
    alloc_fn : string;  (** function that allocated the object *)
    mutable freed : bool;
    mutable data : slots;
  }

  and slots =
    | Fields of value Stbl.t  (** struct-like object (lazy fields) *)
    | Cells of value array  (** fixed-size array object *)
    | Typed of tfields
        (** struct object of a known composite: dense layout-indexed
            cells, no per-object hash table. [tnames] is the layout's
            interned field-name array, shared by every instantiation;
            a store to a name outside the layout migrates the object
            to [Fields]. *)
    | Opaque  (** raw allocation never accessed structurally *)

  and tfields = { tnames : string array; tcells : value array }

  (** The boxed cases. Every constructor carries an argument so each is
      a heap block (tags 0..6) and can never be confused with an
      immediate fixnum. *)
  type boxed =
    | B_i64 of int64  (** integer needing the full 64th bit *)
    | B_str of string
    | B_ptr of obj
    | B_fn of string  (** function pointer *)
    | B_uptr of uval  (** userspace pointer carrying the user data *)
    | B_unit of unit
    | B_unbound of unit  (** jit slot sentinel; never escapes a frame *)

  val is_imm : value -> bool
  (** [is_imm v] is true iff [v] is an immediate fixnum. *)

  val imm : value -> int
  (** The fixnum payload. Precondition: [is_imm v]. *)

  val fix : int -> value
  (** Make an immediate fixnum (the int *is* the 64-bit value,
      sign-extended). *)

  val boxed : value -> boxed
  (** The boxed view. Precondition: [not (is_imm v)]. *)

  val of_boxed : boxed -> value
end = struct
  type value = Obj.t

  type obj = {
    oid : int;
    alloc_fn : string;
    mutable freed : bool;
    mutable data : slots;
  }

  and slots =
    | Fields of value Stbl.t
    | Cells of value array
    | Typed of tfields
    | Opaque

  and tfields = { tnames : string array; tcells : value array }

  type boxed =
    | B_i64 of int64
    | B_str of string
    | B_ptr of obj
    | B_fn of string
    | B_uptr of uval
    | B_unit of unit
    | B_unbound of unit

  let[@inline] is_imm (v : value) = Obj.is_int v
  let[@inline] imm (v : value) : int = Obj.magic v
  let[@inline] fix (n : int) : value = Obj.repr n
  let[@inline] boxed (v : value) : boxed = Obj.magic v
  let[@inline] of_boxed (b : boxed) : value = Obj.repr b
end

include Repr

(** Index of [name] in a typed object's layout, or -1. Layout names are
    interned, so probes with interned names resolve on the pointer
    compare; tree-walker probes (raw AST strings) fall through to the
    content compare in the same pass. *)
let tindex (tf : tfields) (name : string) : int =
  let names = tf.tnames in
  let n = Array.length names in
  let rec go i =
    if i >= n then -1
    else
      (* in range: 0 <= i < n = Array.length names *)
      let ni = Array.unsafe_get names i in
      if ni == name || String.equal ni name then i else go (i + 1)
  in
  go 0

(* Smart constructors. [vint] is the only one with logic: normalize to
   the immediate representation whenever the value fits 63 bits. *)

let[@inline] vint (v : int64) : value =
  let n = Int64.to_int v in
  if Int64.of_int n = v then fix n else of_boxed (B_i64 v)

let vstr (s : string) : value = of_boxed (B_str s)
let vptr (o : obj) : value = of_boxed (B_ptr o)
let vfn (f : string) : value = of_boxed (B_fn f)
let vuptr (u : uval) : value = of_boxed (B_uptr u)
let vunit : value = of_boxed (B_unit ())

(* Static singleton: the jit compares slots against it with [==]/[!=].
   A dedicated constructor (not a magic string) so no reachable value
   can collide with it, and no immediate ever equals a heap block. *)
let unbound : value = of_boxed (B_unbound ())
let vzero : value = fix 0
let vone : value = fix 1
let[@inline] vbool (b : bool) : value = if b then vone else vzero

(** Structural view for cold-path matching; allocates for immediates, so
    hot paths should use {!is_imm}/{!imm}/{!boxed} directly. The
    constructor names are the historical [value] constructors. *)
type view =
  | Int of int64
  | Str of string
  | Ptr of obj
  | Fn of string
  | Uptr of uval
  | Unit

let view (v : value) : view =
  if is_imm v then Int (Int64.of_int (imm v))
  else
    match boxed v with
    | B_i64 x -> Int x
    | B_str s -> Str s
    | B_ptr o -> Ptr o
    | B_fn f -> Fn f
    | B_uptr u -> Uptr u
    | B_unit () -> Unit
    | B_unbound () -> Unit (* defensive: the sentinel never escapes *)

let is_zero (v : value) =
  if is_imm v then imm v = 0
  else
    match boxed v with
    | B_unit () -> true
    | B_uptr U_null -> true (* a NULL user pointer is falsy, like in C *)
    (* B_i64 is never zero by the normalization invariant; Str "" is
       truthy like any other pointer-ish value. *)
    | _ -> false

let[@inline] truthy v = not (is_zero v)

let to_int (v : value) : int64 =
  if is_imm v then Int64.of_int (imm v)
  else
    match boxed v with
    | B_i64 x -> x
    | B_str _ | B_ptr _ | B_fn _ | B_uptr _ -> 1L
    | B_unit () | B_unbound () -> 0L

(* Unary arithmetic, shared by both engines so their fast paths cannot
   drift: negation must box exactly when the operand is the 63-bit
   minimum (whose negation needs the 64th... 63rd bit of magnitude);
   bitwise-not of a sign-extended immediate is itself sign-extended, so
   it never boxes. *)
let vneg (v : value) : value =
  if is_imm v then
    let n = imm v in
    if n = min_int then vint (Int64.neg (Int64.of_int n)) else fix (-n)
  else vint (Int64.neg (to_int v))

let vlognot (v : value) : value =
  if is_imm v then fix (lnot (imm v)) else vint (Int64.lognot (to_int v))

(** Render a value for traces and debugging. *)
let rec to_string (v : value) =
  match view v with
  | Int v -> Int64.to_string v
  | Str s -> Printf.sprintf "%S" s
  | Ptr o -> Printf.sprintf "<obj#%d%s>" o.oid (if o.freed then " freed" else "")
  | Fn f -> Printf.sprintf "<fn %s>" f
  | Uptr u -> Printf.sprintf "<user %s>" (uval_to_string u)
  | Unit -> "()"

and uval_to_string = function
  | U_int v -> Int64.to_string v
  | U_str s -> Printf.sprintf "%S" s
  | U_arr xs ->
      Printf.sprintf "[%s]" (String.concat "; " (List.map uval_to_string xs))
  | U_struct (name, fields) ->
      Printf.sprintf "%s{%s}" name
        (String.concat "; "
           (List.map (fun (f, v) -> f ^ "=" ^ uval_to_string v) fields))
  | U_null -> "NULL"

(** Free-list pool for the jit's per-call slot arrays, bucketed by
    exact size. Steady-state execution recycles a handful of frame
    shapes millions of times; acquiring from the pool replaces a
    [caml_make_vect] per guest call with an array-stack pop. Released
    arrays are scrubbed back to {!unbound} (the acquire contract), and
    frames lost to an exception unwind are simply collected — the pool
    never owns a frame that is still in use. One pool per executor
    machine; machines are single-domain, so no locking. *)
module Pool = struct
  (* recursion depth is capped at 64 frames, so a bucket never needs to
     hold more than that many frames of one size *)
  let max_size = 64 (* frames wider than this are allocated fresh *)
  let max_depth = 64

  type bucket = { mutable stack : value array array; mutable top : int }

  type t = bucket array (* index = frame size, 0..max_size *)

  let create () : t =
    Array.init (max_size + 1) (fun _ -> { stack = [||]; top = 0 })

  let[@inline] acquire (p : t) (n : int) : value array =
    if n > max_size then Array.make n unbound
    else
      (* in range: [p] has [max_size + 1] buckets and 0 <= n <= max_size
         (n is a compiled frame's slot count, never negative); the stack
         slot is [top - 1] after the [top > 0] check, and [top] never
         exceeds the stack's length ([release] pushes only below it and
         a stack is only ever replaced by a longer one) *)
      let b = Array.unsafe_get p n in
      if b.top > 0 then begin
        b.top <- b.top - 1;
        let a = Array.unsafe_get b.stack b.top in
        Array.unsafe_set b.stack b.top [||];
        a
      end
      else Array.make n unbound

  let[@inline] release (p : t) (a : value array) : unit =
    let n = Array.length a in
    if n > 0 && n <= max_size then begin
      (* in range: the bucket index by the check above, the stack slot by
         the [top < length] check guarding the push *)
      let b = Array.unsafe_get p n in
      let cap = Array.length b.stack in
      if b.top = cap && cap < max_depth then begin
        let ncap = if cap = 0 then 4 else min (2 * cap) max_depth in
        let ns = Array.make ncap [||] in
        Array.blit b.stack 0 ns 0 cap;
        b.stack <- ns
      end;
      if b.top < Array.length b.stack then begin
        Array.fill a 0 n unbound;
        Array.unsafe_set b.stack b.top a;
        b.top <- b.top + 1
      end
    end
end
