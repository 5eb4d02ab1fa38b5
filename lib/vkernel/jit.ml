(** Closure compiler for the mini-C dialect (the "jump-table executor").

    {!Interp} re-walks the AST on every execution: each statement match,
    identifier classification, builtin-vs-user decision and label search
    happens again for every program a campaign runs. This module lowers
    each function body once into a flat array of closures — statements
    become [jenv -> unit], expressions [jenv -> value] — and resolves
    everything a frozen index can resolve at compile time:

    - every local and parameter name becomes an integer slot into a
      pooled [value array] (no per-call hashtable, no string hashing,
      and — via {!Value.Pool} — no per-call array allocation on the hot
      path);
    - builtin call sites pre-compile one closure per argument and per
      lvalue argument plus one {!Interp.builtin_ctx} record per site
      (the current frame threads through a mutable cell, so steady-state
      builtin execution allocates nothing for dispatch);
    - user call sites resolve their callee's compiled code once;
    - [goto] raises a pre-resolved statement index instead of searching
      a label list;
    - each global's initializer is lowered once ({!get_global} runs the
      compiled plan on first touch instead of re-walking the AST per
      fresh state);
    - every static field and global name is {!Value.intern}ed, so the
      [Stbl] probes the compiled code performs hit the pointer-compare
      fast path.

    The compiled code is an exact semantic mirror of {!Interp}: it
    shares the interpreter's state, builtins, crash and timeout
    machinery, and performs the same side effects (including object
    allocation order) in the same order, so coverage sets, crash titles
    and return values are identical executor-for-executor. Only the
    dispatch cost differs. [scripts/ci.sh] and the QCheck differential
    suite hold the two executors to byte-identical behaviour. *)

open Value

(** Pre-resolved [goto]: the payload is the target statement index in
    the current function's body array. *)
exception Goto_idx of int

(* The slot sentinel is {!Value.unbound}: a dedicated static block no
   program can construct (immediates never equal a heap block, and the
   [B_unbound] constructor is private to slot bookkeeping), compared
   physically. It marks a slot whose declaration has not executed yet,
   so name resolution falls back to globals/constants exactly where the
   interpreter's hashtable probe would miss. *)
let unbound : value = Value.unbound

(** Per-call frame of a compiled function. *)
type jenv = { st : Interp.state; slots : value array; fn : string }

type fun_code = {
  fc_name : string;
  fc_nslots : int;
  fc_params : int array;  (** slot of each parameter, in order *)
  fc_body : (jenv -> unit) array;
}

type t = {
  index : Csrc.Index.t;
  funs : fun_code Stbl.t;
  ginits : (Interp.state -> value) Stbl.t;
      (** compiled global initializers, one plan per global *)
  dummy_env : jenv;
      (** placeholder frame for builtin-site context cells before their
          first invocation; never executed against *)
}

(* The frame a builtin call site's pre-built context closures read
   through: set on entry, restored on exit (builtins can re-enter the
   same site through a user-function callee). *)
type ctx_cell = { mutable ccur : jenv }

(* Per-function compile context: name -> slot is decided here, on
   demand, so every mention of a name in one function shares a slot. *)
type ctx = {
  eng : t;
  cfn : string;
  clabels : (string * int) list;
      (** top-level label -> statement index; first occurrence wins,
          like the interpreter's label search *)
  cslots : int Stbl.t;
  mutable cnslots : int;
  mutable ctop : bool;
      (** compiling a direct child of the function body (not nested in
          any block) — the region where a declaration dominates every
          later mention of its name *)
  mutable cdefer : (int * int * int * (Interp.state -> value)) list;
      (** (slot, oid-base slot, oid count, zero builder) for
          declarations whose zero construction is deferred to first
          read; see [Decl_stmt] below *)
}

let slot_of (ctx : ctx) (name : string) : int =
  match Stbl.find_opt ctx.cslots name with
  | Some i -> i
  | None ->
      let i = ctx.cnslots in
      ctx.cnslots <- i + 1;
      Stbl.replace ctx.cslots name i;
      i

(* ------------------------------------------------------------------ *)
(* Globals                                                             *)
(* ------------------------------------------------------------------ *)

(** Mirror of {!Interp.get_global}: same lazy-on-first-touch contract
    and the same object allocation order, but running the compiled
    initializer plan instead of re-walking the AST. *)
let get_global_h (eng : t) (st : Interp.state) (h : int) (name : string) : value option =
  match Stbl.find_opt_h st.Interp.globals h name with
  | Some v -> Some v
  | None -> (
      match Stbl.find_opt eng.ginits name with
      | None -> None
      | Some init ->
          let v = init st in
          Stbl.replace_h st.Interp.globals h name v;
          Some v)

let get_global (eng : t) (st : Interp.state) (name : string) : value option =
  get_global_h eng st (Stbl.hash name) name

(* Mirror of [Interp.zero_value], with every type decision taken at
   compile time. Composite zeroing delegates to [Interp.typed_obj] at
   runtime: it is already a single pass over the frozen layout, and
   sharing it guarantees identical field defaults and oid order. *)
let rec compile_zero (eng : t) ~(fn : string) (ty : Csrc.Ast.ctype) :
    Interp.state -> value =
  match ty with
  | Csrc.Ast.Void | Csrc.Ast.Bool | Csrc.Ast.Int _ | Csrc.Ast.Named _
  | Csrc.Ast.Enum_ref _ | Csrc.Ast.Ptr _ | Csrc.Ast.Func_ptr _ ->
      fun _ -> vzero
  | Csrc.Ast.Array (elem, _) when Interp.is_char_type eng.index elem ->
      fun _ -> Interp.empty_str
  | Csrc.Ast.Array (elem, Some n) when n > 0 && n <= 4096 ->
      let cz = compile_zero eng ~fn elem in
      fun st -> vptr (Interp.new_obj st ~fn ~tracked:false (Cells (Array.init n (fun _ -> cz st))))
  | Csrc.Ast.Array (_, _) ->
      fun st -> vptr (Interp.new_obj st ~fn ~tracked:false (Cells [||]))
  | Csrc.Ast.Struct_ref name | Csrc.Ast.Union_ref name ->
      fun st -> vptr (Interp.typed_obj st ~fn name)

(* Mirror of [Interp.init_value]: all index lookups (function names,
   macros, enum items, string macros, constant folding) happen here,
   once; only references to other globals stay runtime thunks, because
   they must observe — and trigger — lazy initialization in state
   order. *)
let rec compile_init (eng : t) (gi : Csrc.Ast.ginit) : Interp.state -> value =
  let fn = "__init" in
  match gi with
  | Csrc.Ast.Init_expr (Csrc.Ast.Ident name) -> (
      match Csrc.Index.find_function eng.index name with
      | Some _ ->
          let c = vfn name in
          fun _ -> c
      | None -> (
          match Csrc.Index.find_global eng.index name with
          | Some _ ->
              let name = intern name in
              let gh = Stbl.hash name in
              fun st -> (
                match get_global_h eng st gh name with Some v -> v | None -> vzero)
          | None -> (
              let c =
                match Csrc.Index.eval_macro eng.index name with
                | Some v -> vint v
                | None -> (
                    match Csrc.Index.find_enum_item eng.index name with
                    | Some e -> (
                        match Csrc.Index.eval_opt eng.index e with
                        | Some v -> vint v
                        | None -> vzero)
                    | None -> (
                        match Csrc.Index.string_macro eng.index name with
                        | Some s -> vstr s
                        | None -> vzero))
              in
              fun _ -> c)))
  | Csrc.Ast.Init_expr (Csrc.Ast.Addr_of (Csrc.Ast.Ident name)) -> (
      match Csrc.Index.find_global eng.index name with
      | Some _ ->
          let name = intern name in
          let gh = Stbl.hash name in
          fun st -> (match get_global_h eng st gh name with Some v -> v | None -> vzero)
      | None -> fun _ -> vzero)
  | Csrc.Ast.Init_expr e ->
      let c =
        match Csrc.Index.eval_opt eng.index e with
        | Some v -> vint v
        | None -> (
            match Csrc.Index.eval_string eng.index e with
            | Some s -> vstr s
            | None -> vzero)
      in
      fun _ -> c
  | Csrc.Ast.Init_designated fields ->
      let cfields =
        List.map
          (fun (f, gi) ->
            let f = intern f in
            (f, Stbl.hash f, compile_init eng gi))
          fields
      in
      fun st ->
        let o = Interp.fields_obj st ~fn () in
        List.iter (fun (f, fh, ci) -> Interp.set_field_h ~fn o fh f (ci st)) cfields;
        vptr o
  | Csrc.Ast.Init_list items ->
      let citems = List.map (compile_init eng) items in
      fun st ->
        vptr
          (Interp.new_obj st ~fn ~tracked:false
             (Cells (Array.of_list (List.map (fun ci -> ci st) citems))))

(* Mirror of [Interp.init_global]. The base shape is static, so the
   designated-initializer-in-place vs replace-the-binding decision is
   taken at compile time. *)
let compile_ginit (eng : t) (g : Csrc.Ast.global_def) : Interp.state -> value =
  let fn = "__init" in
  let name = g.Csrc.Ast.global_name in
  let base : Interp.state -> value =
    match g.Csrc.Ast.global_type with
    | Csrc.Ast.Struct_ref n | Csrc.Ast.Union_ref n ->
        fun st -> vptr (Interp.typed_obj st ~fn n)
    | Csrc.Ast.Array (elem, Some count) when count > 0 && count <= 4096 ->
        let cz = compile_zero eng ~fn elem in
        fun st ->
          vptr
            (Interp.new_obj st ~fn ~tracked:false
               (Cells (Array.init count (fun _ -> cz st))))
    | ty -> compile_zero eng ~fn ty
  in
  let finish st base_v =
    match Stbl.find_opt st.Interp.globals name with Some v -> v | None -> base_v
  in
  match g.Csrc.Ast.global_init with
  | None ->
      fun st ->
        let bv = base st in
        Stbl.replace st.Interp.globals name bv;
        finish st bv
  | Some gi ->
      let ptr_base =
        match g.Csrc.Ast.global_type with
        | Csrc.Ast.Struct_ref _ | Csrc.Ast.Union_ref _ -> true
        | Csrc.Ast.Array (_, Some c) when c > 0 && c <= 4096 -> true
        | Csrc.Ast.Array (elem, _) -> not (Interp.is_char_type eng.index elem)
        | _ -> false
      in
      (match (ptr_base, gi) with
      | true, Csrc.Ast.Init_designated fields ->
          let cfields =
            List.map
              (fun (f, gi) ->
                let f = intern f in
                (f, Stbl.hash f, compile_init eng gi))
              fields
          in
          fun st ->
            let bv = base st in
            (* publish before applying the initializer so
               cross-references resolve *)
            Stbl.replace st.Interp.globals name bv;
            (if not (is_imm bv) then
               match boxed bv with
               | B_ptr o ->
                   List.iter
                     (fun (f, fh, ci) -> Interp.set_field_h ~fn o fh f (ci st))
                     cfields
               | _ -> ());
            finish st bv
      | _ ->
          let cinit = compile_init eng gi in
          fun st ->
            let bv = base st in
            Stbl.replace st.Interp.globals name bv;
            Stbl.replace st.Interp.globals name (cinit st);
            finish st bv)

(* ------------------------------------------------------------------ *)
(* Function invocation                                                 *)
(* ------------------------------------------------------------------ *)

(* Mirror of [Interp.call_function], including its depth accounting (no
   unwind-protect: an escaping exception leaves the depth bumped there
   too, and the two executors must drift identically). Parameter
   binding is one simultaneous walk: extra arguments are dropped,
   missing parameters read as zero. Frames come from the state's
   {!Value.Pool} and return to it on normal completion; a frame lost to
   an exception unwind is simply collected. *)
let rec exec_fun (st : Interp.state) (fc : fun_code) (argv : value list) : value =
  if st.Interp.depth > 64 then
    raise (Interp.Exec_error ("recursion too deep at " ^ fc.fc_name));
  st.Interp.depth <- st.Interp.depth + 1;
  let slots = Pool.acquire st.Interp.frames fc.fc_nslots in
  let params = fc.fc_params in
  let nparams = Array.length params in
  let rec bind i argv =
    if i < nparams then
      match argv with
      | [] ->
          slots.(params.(i)) <- vzero;
          bind (i + 1) []
      | a :: rest ->
          slots.(params.(i)) <- a;
          bind (i + 1) rest
  in
  bind 0 argv;
  exec_body st fc slots

and exec_body (st : Interp.state) (fc : fun_code) (slots : value array) : value =
  let env = { st; slots; fn = fc.fc_name } in
  let n = Array.length fc.fc_body in
  let rec run i =
    try
      for j = i to n - 1 do
        fc.fc_body.(j) env
      done;
      vunit
    with
    | Interp.Return_exc v -> v
    | Goto_idx j -> run j
  in
  let result = run 0 in
  st.Interp.depth <- st.Interp.depth - 1;
  Pool.release st.Interp.frames slots;
  result

(** Entry for compiled call sites: arguments evaluate (all of them,
    left to right, exactly as the list walk did) straight into the
    callee's slot array — no intermediate argument list. *)
and exec_fun_args (st : Interp.state) (fc : fun_code) (cargs : (jenv -> value) array)
    (caller : jenv) : value =
  let slots = Pool.acquire st.Interp.frames fc.fc_nslots in
  let params = fc.fc_params in
  let nparams = Array.length params in
  let ncargs = Array.length cargs in
  for k = 0 to ncargs - 1 do
    let v = cargs.(k) caller in
    if k < nparams then slots.(params.(k)) <- v
  done;
  for k = ncargs to nparams - 1 do
    slots.(params.(k)) <- vzero
  done;
  if st.Interp.depth > 64 then
    raise (Interp.Exec_error ("recursion too deep at " ^ fc.fc_name));
  st.Interp.depth <- st.Interp.depth + 1;
  exec_body st fc slots

(** Call a compiled function by name: the {!Interp.call} of this
    executor, with the same error on missing/bodyless functions. *)
let call (eng : t) (st : Interp.state) (fname : string) (argv : value list) : value =
  match Stbl.find_opt eng.funs fname with
  | Some fc -> exec_fun st fc argv
  | None -> raise (Interp.Exec_error ("no such function " ^ fname))

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

let rec compile_expr (ctx : ctx) (e : Csrc.Ast.expr) : jenv -> value =
  match e with
  | Csrc.Ast.Const_int v ->
      let c = vint v in
      fun _ -> c
  | Csrc.Ast.Const_char ch ->
      let c = fix (Char.code ch) in
      fun _ -> c
  | Csrc.Ast.Const_str s ->
      let c = vstr s in
      fun _ -> c
  | Csrc.Ast.Ident name -> (
      (* local vs global vs constant is decided here; only "has the
         declaration run yet" (and lazy global init) stays runtime *)
      let i = slot_of ctx name in
      match List.find_opt (fun (j, _, _, _) -> j = i) ctx.cdefer with
      | Some (_, ib, k, cz) ->
          (* deferred declaration: the slot is unbound until the first
             read, which builds the zero object inside the oid range the
             declaration reserved — the oid stream is exactly the eager
             one, so nothing downstream can tell the difference *)
          fun env ->
            let s = env.slots.(i) in
            if s != unbound then s
            else begin
              let st = env.st in
              let saved = st.Interp.next_oid in
              st.Interp.next_oid <- imm env.slots.(ib);
              let v = cz st in
              assert (st.Interp.next_oid = imm env.slots.(ib) + k);
              st.Interp.next_oid <- saved;
              env.slots.(i) <- v;
              v
            end
      | None ->
      let eng = ctx.eng in
      if Csrc.Index.find_global eng.index name <> None then
        let name = intern name in
        let gh = Stbl.hash name in
        fun env ->
          let s = env.slots.(i) in
          if s != unbound then s
          else (match get_global_h eng env.st gh name with Some v -> v | None -> vzero)
      else
        let fallback =
          match Csrc.Index.ident_const eng.index name with
          | Csrc.Index.C_int v -> vint v
          | Csrc.Index.C_str s -> vstr s
          | Csrc.Index.C_none -> (
              match Csrc.Index.find_function eng.index name with
              | Some _ -> vfn name
              | None -> vzero)
        in
        fun env ->
          let s = env.slots.(i) in
          if s != unbound then s else fallback)
  | Csrc.Ast.Unop (op, a) -> (
      let ca = compile_expr ctx a in
      match op with
      | Csrc.Ast.Neg -> fun env -> vneg (ca env)
      | Csrc.Ast.Not -> fun env -> vbool (not (truthy (ca env)))
      | Csrc.Ast.Bit_not -> fun env -> vlognot (ca env))
  | Csrc.Ast.Binop (op, a, b) -> (
      match op with
      | Csrc.Ast.Land ->
          let ca = compile_expr ctx a and cb = compile_expr ctx b in
          fun env -> vbool (truthy (ca env) && truthy (cb env))
      | Csrc.Ast.Lor ->
          let ca = compile_expr ctx a and cb = compile_expr ctx b in
          fun env -> vbool (truthy (ca env) || truthy (cb env))
      | _ ->
          let ca = compile_expr ctx a and cb = compile_expr ctx b in
          fun env ->
            let va = ca env in
            let vb = cb env in
            Interp.binop_values ~fn:env.fn op va vb)
  | Csrc.Ast.Assign (lhs, rhs) ->
      let cr = compile_expr ctx rhs in
      let cs = compile_store ctx lhs in
      fun env ->
        let v = cr env in
        cs env v;
        v
  | Csrc.Ast.Call (name, args) -> compile_call ctx name args
  | Csrc.Ast.Member (a, f) | Csrc.Ast.Arrow (a, f) -> (
      let ca = compile_expr ctx a in
      let f = intern f in
      let fh = Stbl.hash f in
      fun env ->
        let base = ca env in
        if is_imm base then Crash.raise_crash Crash.Gpf env.fn
        else
          match boxed base with
          | B_ptr o -> Interp.get_field_h ~fn:env.fn o fh f
          | B_uptr (U_struct (_, fields)) -> (
              match List.assoc_opt f fields with
              | Some uv -> Interp.value_of_uval env.st ~fn:env.fn uv
              | None -> vzero)
          | B_uptr U_null | B_i64 _ -> Crash.raise_crash Crash.Gpf env.fn
          | _ -> raise (Interp.Exec_error (Printf.sprintf "%s: bad field base for .%s" env.fn f)))
  | Csrc.Ast.Index (a, i) -> (
      let ci = compile_expr ctx i in
      let ca = compile_expr ctx a in
      fun env ->
        let idx = Int64.to_int (Interp.as_int (ci env)) in
        let base = ca env in
        if is_imm base then
          if imm base = 0 then Crash.raise_crash Crash.Gpf env.fn else vzero
        else
          match boxed base with
          | B_ptr o -> (
              Interp.check_alive ~fn:env.fn o;
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
              | Some uv -> Interp.value_of_uval env.st ~fn:env.fn uv
              | None -> vzero)
          | _ -> vzero)
  | Csrc.Ast.Cast (_, a) -> compile_expr ctx a
  | Csrc.Ast.Sizeof_type ty ->
      let c = vint (Int64.of_int (Csrc.Index.sizeof ctx.eng.index ty)) in
      fun _ -> c
  | Csrc.Ast.Sizeof_expr _ -> fun _ -> vint 8L
  | Csrc.Ast.Ternary (c, t, f) ->
      let cc = compile_expr ctx c and ct = compile_expr ctx t and cf = compile_expr ctx f in
      fun env -> if truthy (cc env) then ct env else cf env
  | Csrc.Ast.Addr_of a ->
      (* &x evaluates x itself for every lvalue shape, like the
         interpreter *)
      compile_expr ctx a
  | Csrc.Ast.Deref a -> (
      let ca = compile_expr ctx a in
      fun env ->
        let v = ca env in
        (if is_imm v then (
           if imm v = 0 then Crash.raise_crash Crash.Gpf env.fn)
         else
           match boxed v with
           | B_ptr o -> Interp.check_alive ~fn:env.fn o
           | _ -> ());
        v)
  | Csrc.Ast.Type_arg ty ->
      let c = vint (Int64.of_int (Csrc.Index.sizeof ctx.eng.index ty)) in
      fun _ -> c

(* Mirror of [Interp.eval_lval] + [Interp.store], fused: the lvalue
   shape is static, so no intermediate [lvalue] value is built. The
   returned closure evaluates exactly what [eval_lval] would (index
   before base, same crashes), then performs the store. *)
and compile_store (ctx : ctx) (e : Csrc.Ast.expr) : jenv -> value -> unit =
  match e with
  | Csrc.Ast.Ident name ->
      let i = slot_of ctx name in
      if Csrc.Index.find_global ctx.eng.index name <> None then
        let eng = ctx.eng in
        let name = intern name in
        let gh = Stbl.hash name in
        fun env v ->
          if env.slots.(i) != unbound then env.slots.(i) <- v
          else begin
            (* the interpreter's lvalue probe forces the global's lazy
               initialization (and its object allocations) before the
               store overwrites the binding — keep that order *)
            ignore (get_global_h eng env.st gh name);
            Stbl.replace_h env.st.Interp.globals gh name v
          end
      else fun env v -> env.slots.(i) <- v
  | Csrc.Ast.Member (a, f) | Csrc.Ast.Arrow (a, f) -> (
      let ca = compile_expr ctx a in
      let f = intern f in
      let fh = Stbl.hash f in
      fun env v ->
        let base = ca env in
        if is_imm base then Crash.raise_crash Crash.Gpf env.fn
        else
          match boxed base with
          | B_ptr o ->
              Interp.check_alive ~fn:env.fn o;
              Interp.set_field_h ~fn:env.fn o fh f v
          | B_i64 _ -> Crash.raise_crash Crash.Gpf env.fn
          | _ -> raise (Interp.Exec_error (Printf.sprintf "%s: bad lvalue base for .%s" env.fn f)))
  | Csrc.Ast.Index (a, i) -> (
      let ci = compile_expr ctx i in
      let ca = compile_expr ctx a in
      fun env v ->
        let idx = Int64.to_int (Interp.as_int (ci env)) in
        let base = ca env in
        if is_imm base then
          if imm base = 0 then Crash.raise_crash Crash.Gpf env.fn
          else raise (Interp.Exec_error (env.fn ^ ": bad array lvalue"))
        else
          match boxed base with
          | B_ptr o -> (
              Interp.check_alive ~fn:env.fn o;
              match o.data with
              | Cells cells ->
                  if idx < 0 || idx >= Array.length cells then
                    Crash.raise_crash Crash.Ubsan_oob env.fn
                  else cells.(idx) <- v
              | Fields _ | Typed _ | Opaque ->
                  Interp.set_field ~fn:env.fn o (Printf.sprintf "__idx%d" idx) v)
          | _ -> raise (Interp.Exec_error (env.fn ^ ": bad array lvalue")))
  | Csrc.Ast.Deref a -> (
      let ca = compile_expr ctx a in
      fun env v ->
        let base = ca env in
        if is_imm base then
          if imm base = 0 then Crash.raise_crash Crash.Gpf env.fn
          else raise (Interp.Exec_error (env.fn ^ ": bad deref lvalue"))
        else
          match boxed base with
          | B_ptr o ->
              Interp.check_alive ~fn:env.fn o;
              Interp.set_field ~fn:env.fn o "__deref" v
          | _ -> raise (Interp.Exec_error (env.fn ^ ": bad deref lvalue")))
  | Csrc.Ast.Cast (_, a) -> compile_store ctx a
  | _ -> fun env _ -> raise (Interp.Exec_error (env.fn ^ ": expression is not an lvalue"))

and compile_call (ctx : ctx) (name : string) (args : Csrc.Ast.expr list) : jenv -> value =
  let eng = ctx.eng in
  (* the user-function decision is stable: the index is frozen after
     boot, so resolve it once per call site (the compiled code is
     fetched lazily because the callee may not be compiled yet) *)
  let user_path : (jenv -> value) option =
    match Csrc.Index.find_function eng.index name with
    | Some fd when fd.Csrc.Ast.fun_body <> [] ->
        let cargs = Array.of_list (List.map (compile_expr ctx) args) in
        let fc_cell = ref None in
        Some
          (fun env ->
            let fc =
              match !fc_cell with
              | Some fc -> fc
              | None ->
                  let fc = Stbl.find eng.funs name in
                  fc_cell := Some fc;
                  fc
            in
            exec_fun_args env.st fc cargs env)
    | Some _ | None -> None
  in
  match Stbl.find_opt Interp.builtin_ids name with
  | Some bid -> begin
    (* builtins see their arguments through {!Interp.builtin_ctx}: one
       pre-compiled closure per argument / lvalue argument, evaluated
       only when the builtin asks, in the same order as the tree
       walker *)
    let n = List.length args in
    let cargs = Array.of_list (List.map (compile_expr ctx) args) in
    let cstores = Array.of_list (List.map (compile_store ctx) args) in
    let csstores =
      Array.of_list
        (List.map
           (fun a ->
             let rec strip = function
               | Csrc.Ast.Cast (_, e) -> strip e
               | Csrc.Ast.Addr_of e -> Some e
               | _ -> None
             in
             match strip a with
             | Some inner -> Some (compile_store ctx inner)
             | None -> None)
           args)
    in
    let fops =
      let rec find = function
        | Csrc.Ast.Addr_of (Csrc.Ast.Ident g) -> Some g
        | Csrc.Ast.Cast (_, e) -> find e
        | _ -> None
      in
      List.find_map find args
    in
    let io_const =
      match Csrc.Index.eval_opt eng.index (Csrc.Ast.Call (name, args)) with
      | Some v -> vint v
      | None -> vzero
    in
    (* constant-returning builtins never consult their context (the
       tree walker's lazy callbacks mean it never evaluates their
       arguments either), so the whole call compiles to its constant *)
    match name with
    | "schedule_timeout" | "msleep" | "printk" | "pr_info" | "pr_err" | "pr_warn"
    | "noop_llseek" | "nonseekable_open" | "stream_open" | "get_user" | "put_user"
    | "misc_register" | "misc_deregister" | "register_chrdev" | "unregister_chrdev"
    | "cdev_init" | "cdev_add" | "device_create" | "class_create" | "sock_register"
    | "proto_register" ->
        fun _ -> vzero
    | "capable" -> fun _ -> vone
    | "_IO" | "_IOR" | "_IOW" | "_IOWR" | "_IOC" -> fun _ -> io_const
    | _ ->
        (* one context record per call site, not per execution: the
           closures reach the live frame through [cell], which the
           invocation wrapper saves/restores (re-entry through a
           recursive user callee must see its own frame, and an
           escaping crash/timeout must not leave a stale one) *)
        let cell = { ccur = eng.dummy_env } in
        let b : Interp.builtin_ctx =
          {
            Interp.bn = n;
            bv =
              (fun i ->
                if i < n then (
                  let x = cargs.(i) cell.ccur in
                  if is_imm x then x
                  else match boxed x with B_uptr (U_str s) -> vstr s | _ -> x)
                else vzero);
            braw = (fun i -> if i < n then cargs.(i) cell.ccur else vzero);
            bstore =
              (fun i sv ->
                i < n
                &&
                try
                  cstores.(i) cell.ccur sv;
                  true
                with Interp.Exec_error _ -> false);
            bsstore =
              (fun i sv ->
                i < n
                &&
                match csstores.(i) with
                | Some cs -> (
                    try
                      cs cell.ccur sv;
                      true
                    with Interp.Exec_error _ -> false)
                | None -> false);
            bfops = (fun () -> fops);
            bio = (fun () -> io_const);
          }
        in
        let invoke env =
          let saved = cell.ccur in
          cell.ccur <- env;
          match Interp.builtin_values_id env.st ~fn:env.fn bid name b with
          | r ->
              cell.ccur <- saved;
              r
          | exception e ->
              cell.ccur <- saved;
              raise e
        in
        (match user_path with
        | Some up ->
            fun env -> (
              match invoke env with
              | Some v -> v
              | None -> up env)
        | None ->
            fun env -> (
              match invoke env with
              | Some v -> v
              | None -> vzero))
    end
  | None -> ( match user_path with Some up -> up | None -> fun _ -> vzero)

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

and compile_stmt (ctx : ctx) (s : Csrc.Ast.stmt) : jenv -> unit =
  let sid = s.Csrc.Ast.sid in
  let node = compile_node ctx s.Csrc.Ast.node in
  (* step accounting inlined: this wrapper runs once per executed guest
     statement, the hottest closure in the engine *)
  fun env ->
    let st = env.st in
    st.Interp.steps <- st.Interp.steps + 1;
    if st.Interp.steps > st.Interp.step_budget then raise Interp.Exec_timeout;
    st.Interp.on_cover sid;
    node env

and compile_node (ctx : ctx) (node : Csrc.Ast.stmt_node) : jenv -> unit =
  match node with
  | Csrc.Ast.Expr_stmt e ->
      let ce = compile_expr ctx e in
      fun env -> ignore (ce env)
  | Csrc.Ast.Decl_stmt (ty, name, init) -> (
      let fresh = Stbl.find_opt ctx.cslots name = None in
      let i = slot_of ctx name in
      match init with
      | Some e ->
          let ce = compile_expr ctx e in
          fun env -> env.slots.(i) <- ce env
      | None ->
          let cz = compile_zero ctx.eng ~fn:ctx.cfn ty in
          (* Composite locals are expensive to zero (an object per
             struct, per nested array, per nested struct), and ioctl
             handlers habitually declare one scratch struct per command
             up front while each execution touches at most one. When the
             declaration provably dominates every mention of the name —
             it is a top-level statement, the function has no labels (so
             no goto can bypass it), the name was never mentioned before
             it, and it shadows no global — construction can wait for
             the first read. The declaration still reserves the exact
             oid range eager zeroing would have consumed (the count is
             static per type, measured once here on a scratch state), so
             the object-id stream — observable through pointer rendering
             and leak-bitmap sizing — is byte-identical to eager
             execution, and the tree-walking engine needs no mirror. *)
          let deferrable =
            fresh && ctx.ctop
            && ctx.clabels = []
            && Csrc.Index.find_global ctx.eng.index name = None
          in
          let k =
            if deferrable then (
              let scratch = ctx.eng.dummy_env.st in
              let before = scratch.Interp.next_oid in
              ignore (cz scratch);
              scratch.Interp.next_oid - before)
            else 0
          in
          if k > 0 then begin
            let ib = slot_of ctx ("\000defer." ^ name) in
            ctx.cdefer <- (i, ib, k, cz) :: ctx.cdefer;
            fun env ->
              let st = env.st in
              env.slots.(ib) <- fix st.Interp.next_oid;
              st.Interp.next_oid <- st.Interp.next_oid + k
          end
          else fun env -> env.slots.(i) <- cz env.st)
  | Csrc.Ast.If (c, t, f) -> (
      let cc = compile_expr ctx c in
      let ct = compile_block ctx t in
      match f with
      | Some f ->
          let cf = compile_block ctx f in
          fun env -> if truthy (cc env) then ct env else cf env
      | None -> fun env -> if truthy (cc env) then ct env)
  | Csrc.Ast.Switch (scrut, cases) ->
      let cscrut = compile_expr ctx scrut in
      let cbodies =
        Array.of_list (List.map (fun c -> compile_block ctx c.Csrc.Ast.case_body) cases)
      in
      let default_idx =
        let rec find i = function
          | [] -> None
          | c :: rest ->
              if List.mem Csrc.Ast.Default c.Csrc.Ast.labels then Some i
              else find (i + 1) rest
        in
        find 0 cases
      in
      let ncases = Array.length cbodies in
      (* case labels are C constant expressions; when the index folds
         every one the dispatch becomes a scan of a static int64 table
         instead of a per-execution closure evaluation per label *)
      let static_labels =
        let exception Dynamic in
        try
          Some
            (Array.of_list
               (List.map
                  (fun c ->
                    Array.of_list
                      (List.filter_map
                         (function
                           | Csrc.Ast.Case e -> (
                               match Csrc.Index.eval_opt ctx.eng.index e with
                               | Some v -> Some v
                               | None -> raise Dynamic)
                           | Csrc.Ast.Default -> None)
                         c.Csrc.Ast.labels))
                  cases))
        with Dynamic -> None
      in
      let run_from start env =
        match start with
        | None -> ()
        | Some i -> (
            try
              for j = i to ncases - 1 do
                cbodies.(j) env
              done
            with Interp.Break_exc -> ())
      in
      (match static_labels with
      | Some slabels ->
          fun env ->
            let key = Interp.as_int (cscrut env) in
            let start =
              let rec find i =
                if i >= ncases then default_idx
                else if Array.exists (Int64.equal key) slabels.(i) then Some i
                else find (i + 1)
              in
              find 0
            in
            run_from start env
      | None ->
          let clabels =
            Array.of_list
              (List.map
                 (fun c ->
                   List.filter_map
                     (function
                       | Csrc.Ast.Case e -> Some (compile_expr ctx e)
                       | Csrc.Ast.Default -> None)
                     c.Csrc.Ast.labels)
                 cases)
          in
          fun env ->
            let key = Interp.as_int (cscrut env) in
            let start =
              let rec find i =
                if i >= ncases then default_idx
                else if
                  List.exists
                    (fun ce -> Int64.equal (Interp.as_int (ce env)) key)
                    clabels.(i)
                then Some i
                else find (i + 1)
              in
              find 0
            in
            run_from start env)
  | Csrc.Ast.While (c, body) ->
      let cc = compile_expr ctx c in
      let cb = compile_block ctx body in
      fun env -> (
        try
          while truthy (cc env) do
            Interp.step_state env.st;
            try cb env with Interp.Continue_exc -> ()
          done
        with Interp.Break_exc -> ())
  | Csrc.Ast.Do_while (body, c) ->
      let cb = compile_block ctx body in
      let cc = compile_expr ctx c in
      fun env -> (
        try
          let continue_loop = ref true in
          while !continue_loop do
            Interp.step_state env.st;
            (try cb env with Interp.Continue_exc -> ());
            continue_loop := truthy (cc env)
          done
        with Interp.Break_exc -> ())
  | Csrc.Ast.For (init, cond, upd, body) ->
      let cinit = Option.map (compile_expr ctx) init in
      let ccond = Option.map (compile_expr ctx) cond in
      let cupd = Option.map (compile_expr ctx) upd in
      let cb = compile_block ctx body in
      fun env ->
        (match cinit with Some c -> ignore (c env) | None -> ());
        (try
           let check () = match ccond with Some c -> truthy (c env) | None -> true in
           while check () do
             Interp.step_state env.st;
             (try cb env with Interp.Continue_exc -> ());
             match cupd with Some u -> ignore (u env) | None -> ()
           done
         with Interp.Break_exc -> ())
  | Csrc.Ast.Return e -> (
      match e with
      | Some e ->
          let ce = compile_expr ctx e in
          fun env -> raise (Interp.Return_exc (ce env))
      | None -> fun _ -> raise (Interp.Return_exc vunit))
  | Csrc.Ast.Break -> fun _ -> raise Interp.Break_exc
  | Csrc.Ast.Continue -> fun _ -> raise Interp.Continue_exc
  | Csrc.Ast.Goto l -> (
      (* resolved against the top-level label table at compile time;
         unknown labels keep the interpreter's exact error *)
      match List.assoc_opt l ctx.clabels with
      | Some j ->
          let exn = Goto_idx j in
          fun _ -> raise exn
      | None ->
          let exn =
            Interp.Exec_error (Printf.sprintf "%s: unknown label %s" ctx.cfn l)
          in
          fun _ -> raise exn)
  | Csrc.Ast.Label _ -> fun _ -> ()
  | Csrc.Ast.Block b -> compile_block ctx b

and compile_block (ctx : ctx) (b : Csrc.Ast.block) : jenv -> unit =
  (* children of any nested block are not "top of the function body":
     declarations inside them don't qualify for deferral *)
  let saved = ctx.ctop in
  ctx.ctop <- false;
  let r =
    match b with
    | [] -> fun _ -> ()
    | [ s ] -> compile_stmt ctx s
    | _ ->
        let arr = Array.of_list (List.map (compile_stmt ctx) b) in
        fun env -> Array.iter (fun f -> f env) arr
  in
  ctx.ctop <- saved;
  r

(* ------------------------------------------------------------------ *)
(* Whole-index compilation                                             *)
(* ------------------------------------------------------------------ *)

let compile_fun (eng : t) (name : string) (fd : Csrc.Ast.func_def) : fun_code =
  let labels =
    List.rev
      (snd
         (List.fold_left
            (fun (i, acc) (s : Csrc.Ast.stmt) ->
              match s.Csrc.Ast.node with
              | Csrc.Ast.Label l when not (List.mem_assoc l acc) -> (i + 1, (l, i) :: acc)
              | _ -> (i + 1, acc))
            (0, []) fd.Csrc.Ast.fun_body))
  in
  let ctx =
    {
      eng;
      cfn = name;
      clabels = labels;
      cslots = Stbl.create 16;
      cnslots = 0;
      ctop = true;
      cdefer = [];
    }
  in
  let params = Array.of_list (List.map (fun (_, p) -> slot_of ctx p) fd.Csrc.Ast.fun_params) in
  let body = Array.of_list (List.map (compile_stmt ctx) fd.Csrc.Ast.fun_body) in
  { fc_name = name; fc_nslots = ctx.cnslots; fc_params = params; fc_body = body }

(** Compile every global initializer and every function with a body,
    once. The index is frozen after {!Machine.boot}, so both tables are
    read-only afterwards. *)
let of_index (index : Csrc.Index.t) : t =
  let dummy_env =
    { st = Interp.create ~index (); slots = [||]; fn = "__never_run" }
  in
  let eng = { index; funs = Stbl.create 256; ginits = Stbl.create 256; dummy_env } in
  List.iter
    (fun (g : Csrc.Ast.global_def) ->
      Stbl.replace eng.ginits g.global_name (compile_ginit eng g))
    (Csrc.Index.all_globals index);
  List.iter
    (fun (fd : Csrc.Ast.func_def) ->
      if fd.fun_body <> [] then Stbl.replace eng.funs fd.fun_name (compile_fun eng fd.fun_name fd))
    (Csrc.Index.all_functions index);
  eng
