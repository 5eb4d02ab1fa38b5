(* Differential tests for the compiled spec/execution pipeline, each
   against a reference implementation kept as its oracle: the generator's
   walk over {!Fuzzer.Compiled} plans against the per-call walk over the
   syzlang types it replaced (same values, RNG stream and working
   string), and the {!Vkernel.Jit} closures and coverage sink against
   the {!Vkernel.Interp} tree walker (same return values, crashes and
   coverage) — plus regressions for the generator range, bytesize, and
   push-order bugfixes that shipped with them. *)

let dm_ctx =
  lazy
    (let entry = Corpus.Registry.find_exn "dm" in
     let machine = Vkernel.Machine.boot [ entry ] in
     let kernel = machine.Vkernel.Machine.index in
     let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
     let spec = Option.get (Kernelgpt.Pipeline.run ~oracle ~kernel entry).o_spec in
     let spec = Syzlang.Validate.resolve_spec ~kernel spec in
     (machine, spec))

(* a random generated driver with a validating KernelGPT spec, or None
   when the pipeline declines this seed *)
let ctx_of_seed seed =
  let entry =
    List.hd
      (Corpus.Gen.population ~seed ~n_drivers:1 ~loaded_drivers:1 ~n_sockets:0
         ~loaded_sockets:0 ())
  in
  let machine = Vkernel.Machine.boot [ entry ] in
  let kernel = machine.Vkernel.Machine.index in
  let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
  match Kernelgpt.Pipeline.run ~oracle ~kernel entry with
  | { o_valid = true; o_spec = Some spec; _ } ->
      Some (machine, Syzlang.Validate.resolve_spec ~kernel spec)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Reference generator: per-call walks over the syzlang types          *)
(* ------------------------------------------------------------------ *)

(* The generator that {!Fuzzer.Compiled} plans replaced: every draw
   re-searches the spec's types and flag sets. It is the oracle for the
   compiled walk's draw sequence, and shares only the working string
   ([Proggen.program_string], which is generator state) and the sizing
   helpers with the code under test. *)
module Reference = struct
  open Syzlang.Ast
  module Rng = Fuzzer.Rng

  let const_value = Fuzzer.Compiled.const_value

  let find_type (spec : spec) name = List.find_opt (fun c -> c.comp_name = name) spec.types

  let rec uval_of_typ (spec : spec) (t : Fuzzer.Proggen.t) (r : Rng.t) ~(depth : int)
      (ty : typ) : Vkernel.Value.uval =
    let open Vkernel.Value in
    if depth > 6 then U_int 0L
    else
      match ty with
      | Int (w, None) -> U_int (Rng.fuzz_int r ~bits:(8 * width_bytes w))
      | Int (_, Some { lo; hi }) -> U_int (Rng.int64_in_range r ~lo ~hi)
      | Const (c, _) -> U_int (const_value c)
      | Flags (set, w) -> (
          match List.find_opt (fun fs -> fs.set_name = set) spec.flag_sets with
          | Some fs when fs.set_values <> [] && not (Rng.pct r 25) ->
              U_int (const_value (Rng.pick r fs.set_values))
          | _ -> U_int (Rng.fuzz_int r ~bits:(8 * width_bytes w)))
      | Ptr (_, String (Some s)) -> U_str s
      | Ptr (_, inner) -> uval_of_typ spec t r ~depth:(depth + 1) inner
      | Buffer _ -> U_str (Rng.fuzz_string r ~max_len:32)
      | String (Some s) -> U_str s
      | String None -> U_str (Fuzzer.Proggen.program_string t r ~max_len:32)
      | Array (Int (I8, _), len) ->
          let n = match len with Some n -> min n 64 | None -> Rng.int r 32 in
          if Rng.pct r 40 then U_str (Fuzzer.Proggen.program_string t r ~max_len:(max 1 n))
          else U_str (Rng.fuzz_string r ~max_len:(max 1 n))
      | Array (elem, len) ->
          let n = match len with Some n -> min n 8 | None -> 1 + Rng.int r 4 in
          U_arr (List.init n (fun _ -> uval_of_typ spec t r ~depth:(depth + 1) elem))
      | Len _ | Bytesize _ -> U_int 0L (* fixed up afterwards *)
      | Resource_ref _ | Fd -> U_int (Int64.of_int (Rng.int r 8))
      | Struct_ref name -> (
          match find_type spec name with
          | Some cd -> uval_of_comp spec t r ~depth cd
          | None -> U_int 0L)
      | Union_ref name -> (
          match find_type spec name with
          | Some cd when cd.comp_fields <> [] ->
              let f = Rng.pick r cd.comp_fields in
              U_struct (name, [ (f.fname, uval_of_typ spec t r ~depth:(depth + 1) f.ftyp) ])
          | _ -> U_int 0L)
      | Void -> U_int 0L

  and uval_of_comp spec t r ~depth (cd : comp_def) : Vkernel.Value.uval =
    let open Vkernel.Value in
    let fields =
      List.map (fun f -> (f.fname, uval_of_typ spec t r ~depth:(depth + 1) f.ftyp)) cd.comp_fields
    in
    (* second pass: compute len/bytesize fields from their targets *)
    let elem_count = function
      | U_str s -> Int64.of_int (String.length s)
      | U_arr xs -> Int64.of_int (List.length xs)
      | U_struct _ | U_int _ | U_null -> 1L
    in
    let target_scale target ~bytes =
      if not bytes then 1L
      else
        match List.find_opt (fun f -> f.fname = target) cd.comp_fields with
        | Some f -> Int64.of_int (Fuzzer.Compiled.bytesize_scale ~types:spec.types f.ftyp)
        | None -> 1L
    in
    let fields =
      List.map
        (fun (fname, v) ->
          let fixed target ~bytes =
            match List.assoc_opt target fields with
            | Some tv -> (fname, U_int (Int64.mul (elem_count tv) (target_scale target ~bytes)))
            | None -> (fname, v)
          in
          match List.find_opt (fun f -> f.fname = fname) cd.comp_fields with
          | Some { ftyp = Len (target, _); _ } -> fixed target ~bytes:false
          | Some { ftyp = Bytesize (target, _); _ } -> fixed target ~bytes:true
          | _ -> (fname, v))
        fields
    in
    U_struct (cd.comp_name, fields)

  let args_of_call spec t r ~(resource_at : (string * int) list) (c : syscall) :
      Vkernel.Machine.parg list =
    let open Vkernel.Machine in
    List.map
      (fun (f : field) ->
        match f.ftyp with
        | Resource_ref res -> (
            match List.assoc_opt res resource_at with
            | Some i -> P_result i
            | None -> P_int (-1L))
        | Fd -> P_int (Int64.of_int (Rng.int r 8))
        | Const (cr, _) -> P_int (const_value cr)
        | Int (w, None) -> P_int (Rng.fuzz_int r ~bits:(8 * width_bytes w))
        | Int (_, Some { lo; hi }) -> P_int (Rng.int64_in_range r ~lo ~hi)
        | Flags (_, w) -> P_int (Rng.fuzz_int r ~bits:(8 * width_bytes w))
        | Ptr (_, String (Some s)) | String (Some s) -> P_str s
        | String None -> P_str (Rng.fuzz_string r ~max_len:32)
        | Ptr (_, inner) ->
            if Rng.pct r 4 then P_null else P_data (uval_of_typ spec t r ~depth:0 inner)
        | Buffer _ -> P_data (Vkernel.Value.U_str (Rng.fuzz_string r ~max_len:32))
        | Array _ | Struct_ref _ | Union_ref _ -> P_data (uval_of_typ spec t r ~depth:0 f.ftyp)
        | Len _ | Bytesize _ -> P_int (Rng.fuzz_int r ~bits:32)
        | Void -> P_int 0L)
      c.args

  (* the payload of the first pointer argument of the first syscall with
     this call name *)
  let retype_payload (spec : spec) t r (c_name : string) : Vkernel.Value.uval =
    let fuzzed () = Vkernel.Value.U_str (Rng.fuzz_string r ~max_len:16) in
    match List.find_opt (fun sc -> sc.call_name = c_name) spec.syscalls with
    | Some sc -> (
        match List.find_opt (fun f -> match f.ftyp with Ptr _ -> true | _ -> false) sc.args with
        | Some { ftyp = Ptr (_, inner); _ } -> uval_of_typ spec t r ~depth:0 inner
        | _ -> fuzzed ())
    | None -> fuzzed ()
end

(* ------------------------------------------------------------------ *)
(* Generation: compiled plans vs the reference walk                    *)
(* ------------------------------------------------------------------ *)

(* One call's arguments and its retyped payload, drawn both ways from
   the same RNG and working string: the values, the RNG state afterwards
   and the working string must all agree. About half of the call's
   resources are wired to earlier calls, so both the P_result and the
   missing-producer arms are drawn. *)
let same_call_draws (spec : Syzlang.Ast.spec) (t : Fuzzer.Proggen.t) ~seed idx =
  let c = t.syscalls.(idx) in
  let resource_at =
    List.filteri
      (fun k _ -> (seed lsr (1 + (k mod 20))) land 1 = 0)
      (List.mapi (fun k id -> (t.res_names.(id), k)) (Array.to_list t.required.(idx)))
  in
  let start = if seed land 1 = 0 then None else Some "dm-0" in
  let draw f =
    t.cur_str <- start;
    let r = Fuzzer.Rng.make (seed + idx) in
    let out = f r in
    (out, Fuzzer.Rng.state r, t.cur_str)
  in
  draw (fun r -> Fuzzer.Proggen.args_of_index t r ~resource_at idx)
  = draw (fun r -> Reference.args_of_call spec t r ~resource_at c)
  && draw (fun r -> Fuzzer.Proggen.retype_payload t r c.call_name)
     = draw (fun r -> Reference.retype_payload spec t r c.call_name)

let prepared spec = (spec, Fuzzer.Proggen.prepare spec)

(* a property input that does not depend on the case's seed *)
let fixed input _seed = Some (Lazy.force input)

(* the whole kernel's merged KernelGPT suite (3228 syscalls), resolved *)
let kernel_suite =
  lazy
    (let ctx = Report.Suites.build () in
     let machine = ctx.Report.Suites.machine in
     prepared
       (Syzlang.Validate.resolve_spec ~kernel:machine.Vkernel.Machine.index
          (Report.Suites.kernelgpt_suite ctx)))

(* Every syzlang type constructor, at the top level and in data:
   ranges, flag sets (which the generated suites almost never use),
   len/bytesize fixups (one with a missing target), unions, a
   self-referential struct, byte arrays, strings and resources; and a
   call name whose first syscall has no pointer to retype. *)
let every_type_suite =
  lazy
    (prepared
       (Syzlang.Parser.parse_spec ~name:"every-type"
          {|resource fd_t[fd]
resource sub_t[fd]
vals = 224, 1, 7
leaf {
	a int32[0:100]
	b int64
	c int8[-5:5]
	f flags[vals, int16]
	k const[42, int32]
	r sub_t
	d fd
	v void
}
choice [
	l leaf
	s string
	n int16
]
node {
	val flags[vals, int32]
	next ptr[in, node]
}
outer {
	nbytes bytesize[items, int32]
	nelems len[items, int32]
	items array[leaf]
	name array[int8, 12]
	raw array[int8]
	tag string["t"]
	pick choice
	fixed array[int64, 20]
	buf buffer[in]
	p ptr[inout, leaf]
	strp ptr[in, string["/dev/x"]]
	ws string
	tail node
	blen bytesize[name, int16]
	plen len[missing, int32]
}
openat$x(fd const[-100], file ptr[in, string["/dev/x"]], flags const[2], mode const[0]) fd_t
ioctl$MK(fd fd_t, cmd const[1], arg ptr[out, int32]) sub_t
ioctl$ALL(fd fd_t, cmd const[2], arg ptr[in, outer])
ioctl$TOP(fd fd_t, sub sub_t, a int32[3:9], b int64, f flags[vals, int32], s string, l len[arg, int32], z bytesize[arg, int64], arg ptr[in, choice], arr array[int16, 3], u choice, buf buffer[in], v void, d fd, st outer)
ioctl$PF(fd fd_t, cmd const[3], arg ptr[in, flags[vals, int32]])
mmap$a(fd fd_t, n int32)
mmap$b(fd fd_t, p ptr[in, leaf])
|}))

(* Every syscall index of the suite [suite_of seed] (None when the
   pipeline declines a random seed). The reference re-searches the
   suite's types per draw, hence the smaller count on the kernel. *)
let qcheck_call_draws ~name ~count suite_of =
  QCheck.Test.make
    ~name:(name ^ ": compiled call draws = type-walk reference")
    ~count
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match suite_of seed with
      | None -> true
      | Some (spec, t) ->
          let ok = ref true in
          for idx = 0 to Array.length t.Fuzzer.Proggen.syscalls - 1 do
            if not (same_call_draws spec t ~seed idx) then ok := false
          done;
          !ok)

(* ------------------------------------------------------------------ *)
(* Execution: JIT closures vs AST interpreter, sink vs hashtable       *)
(* ------------------------------------------------------------------ *)

let sorted_result (r : Vkernel.Machine.exec_result) =
  (r.retvals, r.crash, List.sort compare r.coverage, r.timed_out)

(* A generated program and every operator's mutant of it execute
   identically on both engines. *)
let same_execution machine (t : Fuzzer.Proggen.t) ~seed =
  let r = Fuzzer.Rng.make seed in
  let partner = Fuzzer.Proggen.generate t r () in
  let prog = Fuzzer.Proggen.generate t r () in
  let same p =
    sorted_result (Vkernel.Machine.exec_prog ~engine:`Jit machine p)
    = sorted_result (Vkernel.Machine.exec_prog ~engine:`Interp machine p)
  in
  same prog
  && Array.for_all
       (fun op -> same (Fuzzer.Mutator.apply t r op ~partner:(fun () -> partner) prog))
       Fuzzer.Mutator.all

(* programs of the machine and prepared suite [ctx_of seed] (None when
   the pipeline declines a random seed) *)
let qcheck_exec_differential ?(on = "") ~count ctx_of =
  QCheck.Test.make ~name:(on ^ "JIT and interpreter execute programs identically") ~count
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match ctx_of seed with None -> true | Some (machine, t) -> same_execution machine t ~seed)

let with_gen (machine, spec) = (machine, Fuzzer.Proggen.prepare spec)

(* The stress corpus module (goto loops over top-level labels, a
   six-parameter helper called with 2 and 9 arguments, a parameter
   shadowing a global, implicit locals, high-arity builtins) lives
   outside the population and is reachable only by name. *)
let stress_ctx =
  lazy
    (let entry = Corpus.Registry.find_exn "stress" in
     let machine = Vkernel.Machine.boot [ entry ] in
     let kernel = machine.Vkernel.Machine.index in
     let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
     let spec = Option.get (Kernelgpt.Pipeline.run ~oracle ~kernel entry).o_spec in
     with_gen (machine, Syzlang.Validate.resolve_spec ~kernel spec))

let test_sink_matches_coverage () =
  let machine, spec = Lazy.force dm_ctx in
  let t = Fuzzer.Proggen.prepare spec in
  let r = Fuzzer.Rng.make 17 in
  let sink = Vkernel.Machine.new_sink machine in
  for _ = 1 to 50 do
    let prog = Fuzzer.Proggen.generate t r () in
    let plain = Vkernel.Machine.exec_prog machine prog in
    let sunk = Vkernel.Machine.exec_prog_sink ~sink machine prog in
    let buf =
      List.sort compare
        (List.init sink.Vkernel.Machine.cs_n (fun i -> sink.Vkernel.Machine.cs_buf.(i)))
    in
    Vkernel.Machine.sink_reset sink;
    Alcotest.(check (list int)) "sink sids = coverage sids"
      (List.sort_uniq compare plain.coverage)
      buf;
    Alcotest.(check (list int)) "sink result carries no coverage list" [] sunk.coverage;
    Alcotest.(check bool) "rest of the result agrees" true
      ( sunk.retvals = plain.retvals && sunk.crash = plain.crash
      && sunk.timed_out = plain.timed_out )
  done

(* ------------------------------------------------------------------ *)
(* Bugfix regressions                                                  *)
(* ------------------------------------------------------------------ *)

let test_range_wide_no_collapse () =
  (* the old draw computed [Int64.to_int (hi - lo) + 1], which wraps
     negative for wide ranges; [Rng.int n] with n <= 0 returns 0, so
     every draw collapsed to [lo] *)
  let r = Fuzzer.Rng.make 2 in
  let distinct lo hi =
    let seen = Hashtbl.create 16 in
    for _ = 1 to 64 do
      let v = Fuzzer.Rng.int64_in_range r ~lo ~hi in
      Alcotest.(check bool) "within range" true
        (Int64.compare v lo >= 0 && Int64.compare v hi <= 0);
      Hashtbl.replace seen v ()
    done;
    Hashtbl.length seen
  in
  Alcotest.(check bool) "full 64-bit range varies" true
    (distinct Int64.min_int Int64.max_int > 1);
  Alcotest.(check bool) "positive wide range varies" true (distinct 0L Int64.max_int > 1);
  Alcotest.(check bool) "signed wide range varies" true
    (distinct (-4611686018427387904L) 4611686018427387904L > 1)

let test_range_narrow_parity () =
  (* narrow ranges must keep the historical bit-for-bit draw so campaign
     stdout is unchanged where the old code was correct *)
  let a = Fuzzer.Rng.make 3 and b = Fuzzer.Rng.make 3 in
  for _ = 1 to 500 do
    let lo = -37L and hi = 4096L in
    let v = Fuzzer.Rng.int64_in_range a ~lo ~hi in
    let old = Int64.add lo (Int64.of_int (Fuzzer.Rng.int b (Int64.to_int (Int64.sub hi lo) + 1))) in
    Alcotest.(check int64) "matches the historical formula" old v
  done;
  Alcotest.(check int64) "streams in lockstep" (Fuzzer.Rng.next_int64 a)
    (Fuzzer.Rng.next_int64 b)

let test_range_one_draw_always () =
  (* every range shape consumes exactly one word, including hi < lo *)
  let draws lo hi =
    let a = Fuzzer.Rng.make 7 and b = Fuzzer.Rng.make 7 in
    ignore (Fuzzer.Rng.int64_in_range a ~lo ~hi);
    ignore (Fuzzer.Rng.next_int64 b);
    Fuzzer.Rng.next_int64 a = Fuzzer.Rng.next_int64 b
  in
  Alcotest.(check bool) "narrow" true (draws 0L 10L);
  Alcotest.(check bool) "wide" true (draws Int64.min_int Int64.max_int);
  Alcotest.(check bool) "empty (hi < lo)" true (draws 10L 0L)

let test_bytesize_counts_bytes () =
  (* bytesize fields were computed as element counts; a 4-element int32
     array is 16 bytes, not 4 *)
  let spec =
    Syzlang.Parser.parse_spec ~name:"t"
      {|resource fd_t[fd]
t_struct {
	nbytes bytesize[items, int32]
	nelems len[items, int32]
	items array[int32, 4]
}
ioctl$X(fd fd_t, cmd const[1], arg ptr[in, t_struct])
|}
  in
  let t = Fuzzer.Proggen.prepare spec in
  let r = Fuzzer.Rng.make 5 in
  for _ = 1 to 50 do
    match Fuzzer.Proggen.args_of_index t r ~resource_at:[] 0 with
    | [ _; _; Vkernel.Machine.P_null ] -> ()
    | [ _; _; Vkernel.Machine.P_data (Vkernel.Value.U_struct (_, fields)) ] ->
        Alcotest.(check bool) "bytesize = 4 * len" true
          (List.assoc "nbytes" fields = Vkernel.Value.U_int 16L
          && List.assoc "nelems" fields = Vkernel.Value.U_int 4L)
    | _ -> Alcotest.fail "expected a struct payload"
  done

let test_push_call_linear_order () =
  (* push_call accumulates reversed with an explicit count; pushing the
     whole spec must keep spec order (with producers inserted before
     their consumers) and the count in step with the program length *)
  let _, spec = Lazy.force dm_ctx in
  let t = Fuzzer.Proggen.prepare spec in
  let r = Fuzzer.Rng.make 11 in
  let rev_prog = ref [] and count = ref 0 and resource_at = ref [] in
  let n = Array.length t.Fuzzer.Proggen.syscalls in
  Alcotest.(check bool) "dm spec is non-trivial" true (n > 1);
  for i = 0 to n - 1 do
    Fuzzer.Proggen.push_call t r ~rev_prog ~count ~resource_at ~depth:0 i
  done;
  let names = List.rev_map fst !rev_prog in
  Alcotest.(check int) "count tracks program length" (List.length names) !count;
  (* the directly-pushed sequence is a subsequence of the emitted one *)
  let pushed =
    Array.to_list (Array.map Syzlang.Ast.syscall_full_name t.Fuzzer.Proggen.syscalls)
  in
  let rec subseq want have =
    match (want, have) with
    | [], _ -> true
    | _, [] -> false
    | w :: ws, h :: hs -> if w = h then subseq ws hs else subseq want hs
  in
  Alcotest.(check bool) "spec order preserved" true (subseq pushed names);
  (* and every result reference points backwards *)
  List.iteri
    (fun i (c : Vkernel.Machine.call) ->
      List.iter
        (function
          | Vkernel.Machine.P_result j ->
              Alcotest.(check bool) "P_result refers backwards" true (j < i)
          | _ -> ())
        c.c_args)
    (List.rev_map snd !rev_prog)

(* ------------------------------------------------------------------ *)
(* Fast paths: slot-allocated locals, value-level builtins, compiled   *)
(* global init — dual-engine parity at the function-call level         *)
(* ------------------------------------------------------------------ *)

(* one index, one state per engine: the tree walker and the closure
   compiler each lower the same source independently *)
let dual_of src =
  let sid = ref 0 in
  let idx = Csrc.Index.of_files (Corpus.Headers.parse_with_header ~sid ~file:"t.c" src) in
  let sti = Vkernel.Interp.create ~index:idx () in
  let stj = Vkernel.Interp.create ~index:idx () in
  let eng = Vkernel.Jit.of_index idx in
  let interp ?(args = []) fn = Vkernel.Interp.call sti fn args in
  let jit ?(args = []) fn = Vkernel.Jit.call eng stj fn args in
  (interp, jit)

type runner = ?args:Vkernel.Value.value list -> string -> Vkernel.Value.value

let check_both name expect (interp : runner) (jit : runner) fn args =
  let args = List.map Vkernel.Value.vint args in
  Alcotest.(check int64) (name ^ " (interp)") expect
    (Vkernel.Value.to_int (interp ~args fn));
  Alcotest.(check int64) (name ^ " (jit)") expect
    (Vkernel.Value.to_int (jit ~args fn))

let test_arity_mismatch () =
  (* regression for the O(arity^2) nth-based binding: a six-parameter
     function called with 2 and 9 arguments. Missing parameters read as
     zero; extra arguments still evaluate left-to-right for their side
     effects and are dropped. *)
  let interp, jit =
    dual_of
      {|
static long _log;

static long mix6(long a, long b, long c, long d, long e, long f)
{
  return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6;
}

static long bump(long v)
{
  _log = _log * 10 + v;
  return v;
}

static long call2(void)
{
  return mix6(7, 9);
}

static long call9(void)
{
  _log = 0;
  return mix6(1, 2, 3, 4, 5, 6, bump(7), bump(8), bump(9));
}

static long get_log(void)
{
  return _log;
}
|}
  in
  check_both "2 args: c..f read as zero" 25L interp jit "call2" [];
  check_both "9 args: 1+4+9+16+25+36" 91L interp jit "call9" [];
  (* 7, 8, 9 evaluated in order even though dropped *)
  check_both "extras evaluated left to right" 789L interp jit "get_log" []

let test_unknown_label_error_parity () =
  (* the jit resolves gotos at compile time but must defer the unknown-
     label failure to execution, with the interpreter's exact message *)
  let interp, jit =
    dual_of
      {|
static long f(long x)
{
  if (x)
    goto missing;
  return 1;
}
|}
  in
  let msg (run : runner) =
    match run ~args:[ Vkernel.Value.vint 1L ] "f" with
    | _ -> Alcotest.fail "expected Exec_error"
    | exception Vkernel.Interp.Exec_error m -> m
  in
  let mi = msg interp and mj = msg jit in
  Alcotest.(check string) "same error text" mi mj;
  Alcotest.(check string) "expected message" "f: unknown label missing" mi;
  (* the goto is dead when x = 0: neither engine fails early *)
  check_both "unreached goto is not an error" 1L interp jit "f" [ 0L ]

let test_slot_edge_cases () =
  let interp, jit =
    dual_of
      {|
static long _g = 5;

static long shadow(long _g)
{
  _g = _g + 100;
  return _g;
}

static long get_g(void)
{
  return _g;
}

static long skip(long flag)
{
  long tmp;
  if (flag)
    goto after;
  tmp = 40;
after:
  return tmp + 2;
}

static long implicit(long x)
{
  counter = x * 2;
  counter = counter + shadow(counter);
  return counter;
}
|}
  in
  (* a parameter shadows the global for the whole body *)
  check_both "shadowing parameter" 101L interp jit "shadow" [ 1L ];
  check_both "global untouched by shadow" 5L interp jit "get_g" [];
  (* goto jumps over tmp's first write: the declared zero survives *)
  check_both "goto over first write" 2L interp jit "skip" [ 1L ];
  check_both "fallthrough writes tmp" 42L interp jit "skip" [ 0L ];
  (* implicit declaration: counter = 12, then + shadow(12) = 112 -> 124 *)
  check_both "implicit local" 124L interp jit "implicit" [ 6L ]

let test_global_init_parity () =
  (* compiled global initializers: scalars, partial array init,
     designated struct init with a nested array, and an address-of
     chain. Oids must come out identical because both engines must
     allocate the same objects in the same order. *)
  let src =
    {|
struct cfg { int mode; int depth; int tab[3]; };

static int g_scalar = 42;
static int g_arr[4] = {1, 2, 3};
static struct cfg g_cfg = { .depth = 9, .tab = {7, 8}, .mode = 3 };
static int *g_ptr = &g_scalar;

static long probe(void)
{
  return g_cfg.mode + g_cfg.depth * 10 + g_cfg.tab[1] * 100 + g_arr[0] * 1000
         + g_arr[2] * 10000 + g_scalar;
}
|}
  in
  let interp, jit = dual_of src in
  (* 3 + 9*10 + 8*100 + 1*1000 + 3*10000 + 42 *)
  check_both "initialized state agrees" 31935L interp jit "probe" [];
  (* and the raw global views line up, including object identity *)
  let sid = ref 0 in
  let idx = Csrc.Index.of_files (Corpus.Headers.parse_with_header ~sid ~file:"t.c" src) in
  let sti = Vkernel.Interp.create ~index:idx () in
  let stj = Vkernel.Interp.create ~index:idx () in
  let eng = Vkernel.Jit.of_index idx in
  List.iter
    (fun g ->
      let vi = Option.get (Vkernel.Interp.get_global sti g) in
      let vj = Option.get (Vkernel.Jit.get_global eng stj g) in
      Alcotest.(check string)
        (g ^ " prints identically (oids included)")
        (Vkernel.Value.to_string vi) (Vkernel.Value.to_string vj))
    [ "g_scalar"; "g_arr"; "g_cfg"; "g_ptr" ]

let qcheck_builtin_value_core_parity =
  (* the interpreter reaches builtins through the expression-level
     wrapper, the jit through per-callsite argument closures over the
     value-level core: both must see the same argument views, stores
     and results *)
  let interp, jit =
    dual_of
      {|
static long f(long a, long b)
{
  char buf[32];
  long lo;
  long hi;
  lo = min_t(long, a, b);
  hi = max_t(long, a, b);
  memset(buf, 0, 32);
  snprintf(buf, 32, "v-%d", lo);
  if (strncmp(buf, "v-0", 3) == 0)
    return hi - lo;
  return hi * 2 + strlen(buf);
}
|}
  in
  QCheck.Test.make ~name:"builtin core and wrapper agree" ~count:200
    QCheck.(pair (int_bound 2000) (int_bound 2000))
    (fun (a, b) ->
      let args = [ Vkernel.Value.vint (Int64.of_int (a - 1000)); Vkernel.Value.vint (Int64.of_int b) ] in
      interp ~args "f" = jit ~args "f")

let test_integer_edge_semantics () =
  (* pins for the tagged value representation: every arithmetic edge
     where a result or operand crosses the fixnum/boxed boundary must
     keep exact 64-bit two's-complement semantics, identically in both
     engines *)
  let interp, jit =
    dual_of
      {|
static long div2(long a, long b) { return a / b; }
static long rem2(long a, long b) { return a % b; }
static long shl2(long a, long b) { return a << b; }
static long shr2(long a, long b) { return a >> b; }
static long band2(long a, long b) { return a & b; }
static long add2(long a, long b) { return a + b; }
static long sub2(long a, long b) { return a - b; }
static long mul2(long a, long b) { return a * b; }
static long eq2(long a, long b) { return a == b; }
static long lt2(long a, long b) { return a < b; }
static long neg1(long a) { return -a; }
static long not1(long a) { return ~a; }
|}
  in
  let min64 = Int64.min_int and max64 = Int64.max_int in
  (* Int64.min_int / -1 wraps to itself; % -1 is 0 (no trap) *)
  check_both "min_int / -1" min64 interp jit "div2" [ min64; -1L ];
  check_both "min_int % -1" 0L interp jit "rem2" [ min64; -1L ];
  check_both "min_int / 1" min64 interp jit "div2" [ min64; 1L ];
  check_both "min_int % 7" (-1L) interp jit "rem2" [ min64; 7L ];
  (* shifts by 63 and by-64 wraparound; >> is logical *)
  check_both "1 << 63" min64 interp jit "shl2" [ 1L; 63L ];
  check_both "-1 << 63" min64 interp jit "shl2" [ -1L; 63L ];
  check_both "1 << 64 wraps the count" 1L interp jit "shl2" [ 1L; 64L ];
  check_both "-1 >> 63" 1L interp jit "shr2" [ -1L; 63L ];
  check_both "min_int >> 63" 1L interp jit "shr2" [ min64; 63L ];
  check_both "-1 >> 1" max64 interp jit "shr2" [ -1L; 1L ];
  (* full-width masks *)
  check_both "min_int & -1" min64 interp jit "band2" [ min64; -1L ];
  check_both "0x1234 & -1" 0x1234L interp jit "band2" [ 0x1234L; -1L ];
  (* results crossing the 63-bit boundary in either direction *)
  check_both "fixnum max + 1 boxes" 0x4000_0000_0000_0000L interp jit "add2"
    [ 0x3fff_ffff_ffff_ffffL; 1L ];
  check_both "boxed - 1 re-normalizes" 0x3fff_ffff_ffff_ffffL interp jit "sub2"
    [ 0x4000_0000_0000_0000L; 1L ];
  check_both "2^32 * 2^32 wraps to 0" 0L interp jit "mul2"
    [ 0x1_0000_0000L; 0x1_0000_0000L ];
  check_both "max64 + 1 wraps to min" min64 interp jit "add2" [ max64; 1L ];
  (* comparisons across the fixnum/boxed boundary *)
  check_both "fixnum max < first boxed" 1L interp jit "lt2"
    [ 0x3fff_ffff_ffff_ffffL; 0x4000_0000_0000_0000L ];
  check_both "equal boxed values" 1L interp jit "eq2" [ min64; min64 ];
  check_both "boxed != fixnum" 0L interp jit "eq2" [ 0x4000_0000_0000_0000L; 1L ];
  check_both "min_int < 0" 1L interp jit "lt2" [ min64; 0L ];
  (* unary edges *)
  check_both "-min_int wraps to itself" min64 interp jit "neg1" [ min64 ];
  check_both "-(first boxed) is fixnum min" (-0x4000_0000_0000_0000L) interp jit "neg1"
    [ 0x4000_0000_0000_0000L ];
  check_both "~min_int" max64 interp jit "not1" [ min64 ];
  (* divide-by-zero still crashes identically *)
  let crash_title (run : runner) =
    match run ~args:[ Vkernel.Value.vint 1L; Vkernel.Value.vint 0L ] "div2" with
    | _ -> Alcotest.fail "expected a crash"
    | exception Vkernel.Crash.Crash cr -> Vkernel.Crash.title cr
  in
  let ti = crash_title interp and tj = crash_title jit in
  Alcotest.(check string) "same crash title" ti tj;
  Alcotest.(check string) "divide error title" "divide error in div2" ti

let test_builtin_names_cover_ids () =
  (* every published builtin name resolves through the id table to the
     value-level core; unknown names fall through to None in both the
     name-keyed face and the expression wrapper *)
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " has a dense id") true
        (Vkernel.Value.Stbl.find_opt Vkernel.Interp.builtin_ids name <> None))
    Vkernel.Interp.builtin_names;
  Alcotest.(check bool) "unknown name has no id" true
    (Vkernel.Value.Stbl.find_opt Vkernel.Interp.builtin_ids "not_a_builtin" = None)

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "compiled"
    [
      ( "generation",
        [
          QCheck_alcotest.to_alcotest
            (qcheck_call_draws ~name:"dm" ~count:100
               (fixed (lazy (prepared (snd (Lazy.force dm_ctx))))));
          QCheck_alcotest.to_alcotest
            (qcheck_call_draws ~name:"kernel" ~count:5 (fixed kernel_suite));
          QCheck_alcotest.to_alcotest
            (qcheck_call_draws ~name:"every type" ~count:300 (fixed every_type_suite));
          QCheck_alcotest.to_alcotest
            (qcheck_call_draws ~name:"random pipeline specs" ~count:8 (fun seed ->
                 Option.map (fun (_, spec) -> prepared spec) (ctx_of_seed seed)));
        ] );
      ( "execution",
        [
          QCheck_alcotest.to_alcotest
            (qcheck_exec_differential ~count:60 (fixed (lazy (with_gen (Lazy.force dm_ctx)))));
          QCheck_alcotest.to_alcotest
            (qcheck_exec_differential ~on:"stress module: " ~count:60 (fixed stress_ctx));
          QCheck_alcotest.to_alcotest
            (qcheck_exec_differential ~on:"random pipeline specs: " ~count:8 (fun seed ->
                 Option.map with_gen (ctx_of_seed seed)));
          t "sink matches coverage" test_sink_matches_coverage;
        ] );
      ( "fast-paths",
        [
          t "arity mismatch binds once" test_arity_mismatch;
          t "unknown label error parity" test_unknown_label_error_parity;
          t "slot edge cases" test_slot_edge_cases;
          t "global init parity" test_global_init_parity;
          QCheck_alcotest.to_alcotest qcheck_builtin_value_core_parity;
          t "builtin ids dense" test_builtin_names_cover_ids;
          t "integer edge semantics" test_integer_edge_semantics;
        ] );
      ( "bugfixes",
        [
          t "wide ranges vary" test_range_wide_no_collapse;
          t "narrow ranges bit-identical" test_range_narrow_parity;
          t "ranges draw once" test_range_one_draw_always;
          t "bytesize counts bytes" test_bytesize_counts_bytes;
          t "push_call linear and ordered" test_push_call_linear_order;
        ] );
    ]
