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
(* Drawn values obey their declared types                              *)
(* ------------------------------------------------------------------ *)

(* Whether payload [v], drawn at depth [depth] for declared type [ty],
   obeys it: an [int[lo:hi]] with lo <= hi lies in [lo, hi], a [const]
   equals its value and a fixed [string["..."]] carries its text, through
   pointers, array elements, struct fields and union arms (each matched
   by name). Flags, unranged ints, byte arrays (drawn as strings),
   len/bytesize fields and resources are unconstrained, and so is
   anything past the generator's depth cap, where it draws 0. *)
let rec obeys (spec : Syzlang.Ast.spec) ~depth (ty : Syzlang.Ast.typ) (v : Vkernel.Value.uval)
    =
  let open Syzlang.Ast in
  let open Vkernel.Value in
  let inner = obeys spec ~depth:(depth + 1) in
  depth > 6
  ||
  match (ty, v) with
  | Int (_, Some { lo; hi }), _ when Int64.compare lo hi <= 0 -> (
      match v with
      | U_int x -> Int64.compare lo x <= 0 && Int64.compare x hi <= 0
      | _ -> false)
  | Const (c, _), _ -> v = U_int (Fuzzer.Compiled.const_value c)
  | (String (Some s) | Ptr (_, String (Some s))), _ -> v = U_str s
  | Ptr (_, t), _ -> inner t v
  | Array (Int (I8, _), _), _ -> true
  | Array (elem, _), U_arr xs -> List.for_all (inner elem) xs
  | Array _, _ -> false
  | (Struct_ref name | Union_ref name), _ -> (
      match (Reference.find_type spec name, v) with
      | None, _ -> true
      | Some cd, U_struct (n, fields) ->
          n = name
          && List.for_all
               (fun (fname, fv) ->
                 List.exists (fun f -> f.fname = fname && inner f.ftyp fv) cd.comp_fields)
               fields
      | Some cd, _ -> cd.comp_fields = [])
  | _ -> true

(* The same for one call's top-level arguments, paired with the
   syscall's declared arguments. *)
let args_obey (spec : Syzlang.Ast.spec) (c : Syzlang.Ast.syscall)
    (args : Vkernel.Machine.parg list) =
  let open Syzlang.Ast in
  let open Vkernel.Machine in
  List.compare_lengths c.args args = 0
  && List.for_all2
       (fun (f : field) a ->
         match (f.ftyp, a) with
         | Int (_, Some { lo; hi }), _ when Int64.compare lo hi <= 0 -> (
             match a with
             | P_int x -> Int64.compare lo x <= 0 && Int64.compare x hi <= 0
             | _ -> false)
         | Const (cr, _), _ -> a = P_int (Fuzzer.Compiled.const_value cr)
         | (String (Some s) | Ptr (_, String (Some s))), _ -> a = P_str s
         | Ptr (_, inner), P_data v -> obeys spec ~depth:0 inner v
         | Ptr _, _ -> a = P_null
         | (Array _ | Struct_ref _ | Union_ref _), P_data v -> obeys spec ~depth:0 f.ftyp v
         | (Array _ | Struct_ref _ | Union_ref _), _ -> false
         | _ -> true)
       c.args args

(* Every syscall index of the suite, its arguments drawn from a fresh
   RNG seeded by the case and the index, about half of its resources
   wired to earlier calls as in {!same_call_draws}. *)
let qcheck_draws_obey_types ~name ~count suite_of =
  QCheck.Test.make ~name:(name ^ ": drawn values obey their declared types") ~count
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match suite_of seed with
      | None -> true
      | Some ((spec : Syzlang.Ast.spec), (t : Fuzzer.Proggen.t)) ->
          let ok = ref true in
          Array.iteri
            (fun idx (c : Syzlang.Ast.syscall) ->
              let resource_at =
                List.filteri
                  (fun k _ -> (seed lsr (1 + (k mod 20))) land 1 = 0)
                  (List.mapi (fun k id -> (t.res_names.(id), k)) (Array.to_list t.required.(idx)))
              in
              let r = Fuzzer.Rng.make (seed + idx) in
              let args = Fuzzer.Proggen.args_of_index t r ~resource_at idx in
              if not (args_obey spec c args) then ok := false)
            t.syscalls;
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
  (* each directly pushed call goes last, after the producers it needed,
     so the calls of the spec's syscalls sit in spec order *)
  let pushed = ref [] in
  for i = 0 to n - 1 do
    Fuzzer.Proggen.push_call t r ~rev_prog ~count ~resource_at ~depth:0 i;
    match !rev_prog with
    | (c : Vkernel.Machine.call) :: _ ->
        Alcotest.(check string) "the pushed call is last"
          t.Fuzzer.Proggen.syscalls.(i).Syzlang.Ast.call_name c.c_name;
        pushed := (!count - 1, c) :: !pushed
    | [] -> Alcotest.fail "push_call pushed nothing"
  done;
  let prog = List.rev !rev_prog in
  Alcotest.(check int) "count tracks program length" (List.length prog) !count;
  List.iter
    (fun (at, c) -> Alcotest.(check bool) "spec order preserved" true (List.nth prog at == c))
    !pushed;
  (* and every result reference points backwards *)
  List.iteri
    (fun i (c : Vkernel.Machine.call) ->
      List.iter
        (function
          | Vkernel.Machine.P_result j ->
              Alcotest.(check bool) "P_result refers backwards" true (j < i)
          | _ -> ())
        c.c_args)
    prog

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

let test_switch_labels () =
  (* case labels folded at compile time: negative, 2^62 and 2^63 (which
     need a boxed int64), macro and enum labels, a default in the middle
     that falls through, and scrutinees that are not integers *)
  let interp, jit =
    dual_of
      {|
#define SW_MAGIC 'S'
#define SW_CMD _IOW(SW_MAGIC, 3, int)
enum sw_mode { SW_OFF, SW_ON = 5, SW_AUTO };

struct sw_cfg { int mode; };
static struct sw_cfg g_sw;

static long sw(long x)
{
  long r;
  r = 0;
  switch (x) {
  case -7:
    r = r + 1;
  case 3:
    r = r + 10;
    break;
  default:
    r = r + 100;
  case 0x4000000000000000:
    r = r + 1000;
    break;
  case 0x8000000000000000:
    r = r + 10000;
    break;
  case SW_CMD:
  case SW_ON:
    r = r + 100000;
    break;
  case SW_AUTO:
    return r + 1000000;
  case SW_OFF:
    r = r + 3;
    break;
  case -0x4000000000000000:
    r = r + 7;
    break;
  case 'S':
    r = r + 8;
  }
  return r;
}

static long sw_str(void)
{
  switch ("abc") {
  case 0:
    return 10;
  case 1:
    return 11;
  default:
    return 12;
  }
}

static long sw_ptr(void)
{
  switch (&g_sw) {
  case 0:
    return 20;
  case 1:
    return 21;
  }
  return 22;
}

static long sw_fn(void)
{
  switch (sw_str) {
  case 1:
    return 31;
  default:
    return 32;
  }
}
|}
  in
  List.iter
    (fun (x, want) -> check_both (Printf.sprintf "switch %Ld" x) want interp jit "sw" [ x ])
    [
      (-7L, 11L);
      (3L, 10L);
      (0x4000_0000_0000_0000L, 1000L);
      (Int64.min_int, 10000L);
      (0x4004_5303L, 100000L);
      (5L, 100000L);
      (6L, 1000000L);
      (0L, 3L);
      (-0x4000_0000_0000_0000L, 7L);
      (83L, 8L);
      (* no label: the default, then its fallthrough into 2^62's case *)
      (2L, 1100L);
      (1L, 1100L);
      (0x4000_0000_0000_0001L, 1100L);
      (0x3fff_ffff_ffff_ffffL, 1100L);
      (-0x4000_0000_0000_0001L, 1100L);
      (Int64.max_int, 1100L);
      (0x8000_0000_0000_0001L, 1100L);
      (-1L, 1100L);
    ];
  check_both "string scrutinee reads as 1" 11L interp jit "sw_str" [];
  check_both "pointer scrutinee reads as 1" 21L interp jit "sw_ptr" [];
  check_both "function scrutinee reads as 1" 31L interp jit "sw_fn" []

(* A value with everything reachable from it: object ids, each object's
   shape (a typed layout or name-keyed fields) and its field values,
   every object rendered once. *)
let render_deep (v : Vkernel.Value.value) =
  let open Vkernel.Value in
  let seen = Hashtbl.create 16 in
  let rec go v =
    match view v with
    | Ptr o when Hashtbl.mem seen o.oid -> Printf.sprintf "#%d" o.oid
    | Ptr o ->
        Hashtbl.replace seen o.oid ();
        let body =
          match o.data with
          | Typed tf ->
              "typed{"
              ^ String.concat ";"
                  (Array.to_list (Array.mapi (fun i n -> n ^ "=" ^ go tf.tcells.(i)) tf.tnames))
              ^ "}"
          | Fields tbl ->
              let kvs = ref [] in
              Stbl.iter (fun k v -> kvs := (k, v) :: !kvs) tbl;
              "fields{"
              ^ String.concat ";"
                  (List.map
                     (fun (k, v) -> k ^ "=" ^ go v)
                     (List.sort (fun (a, _) (b, _) -> compare a b) !kvs))
              ^ "}"
          | Cells cells -> "cells[" ^ String.concat ";" (Array.to_list (Array.map go cells)) ^ "]"
          | Opaque -> "opaque"
        in
        Printf.sprintf "#%d%s@%s:%s" o.oid (if o.freed then " freed" else "") o.alloc_fn body
    | _ -> to_string v
  in
  go v

let const_globals_src =
  {|
struct ops {
  long (*get)(long);
  long (*put)(long);
  int mode;
  int flags;
  const char *name;
};
struct inner { int a; int b; };
struct outer { int x; struct inner in; };
struct linked { int x; struct ops *link; };

#define OPS_MODE 7
#define OPS_NAME "late"
enum ops_flag { OPS_FLAG_NONE, OPS_FLAG_A = 3 };

static long op_get(long v) { return v + 1; }
static long op_put(long v) { return v * 2; }

static struct ops g_ops = { .get = op_get, .put = op_put, .mode = OPS_MODE,
                            .flags = OPS_FLAG_A, .name = "ops" };
static struct ops g_rep = { .mode = 1, .get = op_get, .mode = 9 };
static struct ops g_out = { .mode = 4, .extra = 11 };
static struct outer g_nest = { .x = 5 };
static struct linked g_link = { .x = 2, .link = &g_ops };
static struct ops g_late = { .flags = (OPS_MODE + 1) * 2, .name = OPS_NAME };
static struct ops g_bare;

static long probe_ops(void) { return g_ops.mode * 10 + g_ops.flags; }
static long probe_rep(void) { return g_rep.mode; }
static long probe_out(void) { return g_out.mode + g_out.extra; }
static long probe_nest(void) { return g_nest.x * 10 + g_nest.in.a; }
static long probe_link(void) { return g_link.link->mode + g_link.x; }
static long probe_late(void) { return g_late.flags + strlen(g_late.name); }

static long set_mode(long m)
{
  long old;
  old = g_ops.mode;
  g_ops.mode = m;
  return old;
}
|}

let test_const_global_init () =
  (* struct globals initialized by constants (function names, folded
     integers and macros, strings), one with a repeated designator, one
     with a designator outside its layout (the object migrates to
     name-keyed fields), one whose layout holds a nested struct and one
     holding &another_global *)
  let interp, jit = dual_of const_globals_src in
  check_both "constants" 73L interp jit "probe_ops" [];
  check_both "the last designator wins" 9L interp jit "probe_rep" [];
  check_both "a field outside the layout" 15L interp jit "probe_out" [];
  check_both "a nested struct field" 50L interp jit "probe_nest" [];
  check_both "&other_global" 9L interp jit "probe_link" [];
  check_both "folded and string macros" 20L interp jit "probe_late" [];
  (* first touches in one order on both engines: ids, shapes, values *)
  let sid = ref 0 in
  let idx =
    Csrc.Index.of_files (Corpus.Headers.parse_with_header ~sid ~file:"t.c" const_globals_src)
  in
  let sti = Vkernel.Interp.create ~index:idx () in
  let stj = Vkernel.Interp.create ~index:idx () in
  let eng = Vkernel.Jit.of_index idx in
  List.iter
    (fun g ->
      let vi = Option.get (Vkernel.Interp.get_global sti g) in
      let vj = Option.get (Vkernel.Jit.get_global eng stj g) in
      Alcotest.(check string) (g ^ " is the same object graph") (render_deep vi) (render_deep vj))
    [ "g_link"; "g_rep"; "g_out"; "g_nest"; "g_late"; "g_bare"; "g_ops" ];
  Alcotest.(check string) "g_ops holds its constants"
    "#2@__init:typed{get=<fn op_get>;put=<fn op_put>;mode=7;flags=3;name=\"ops\"}"
    (render_deep (Option.get (Vkernel.Jit.get_global eng stj "g_ops")));
  Alcotest.(check bool) "g_out migrated to fields" true
    (String.starts_with ~prefix:"#4@__init:fields{"
       (render_deep (Option.get (Vkernel.Jit.get_global eng stj "g_out"))))

let test_const_global_fresh_per_state () =
  (* a write to an initialized global stays in its own state: the next
     state (the next execution) sees the initializer's value again *)
  let sid = ref 0 in
  let idx =
    Csrc.Index.of_files (Corpus.Headers.parse_with_header ~sid ~file:"t.c" const_globals_src)
  in
  let eng = Vkernel.Jit.of_index idx in
  let set (call : Vkernel.Interp.state -> string -> Vkernel.Value.value list -> Vkernel.Value.value) st m =
    Vkernel.Value.to_int (call st "set_mode" [ Vkernel.Value.vint m ])
  in
  List.iter
    (fun (engine, call) ->
      let st1 = Vkernel.Interp.create ~index:idx () in
      Alcotest.(check int64) (engine ^ ": first write sees the initializer") 7L (set call st1 99L);
      Alcotest.(check int64) (engine ^ ": the same state sees the write") 99L (set call st1 5L);
      let st2 = Vkernel.Interp.create ~index:idx () in
      Alcotest.(check int64) (engine ^ ": a fresh state does not") 7L (set call st2 1L);
      Alcotest.(check int64) (engine ^ ": nor is the first state's value shared") 5L
        (set call st1 0L))
    [ ("interp", Vkernel.Interp.call); ("jit", Vkernel.Jit.call eng) ]

(* ------------------------------------------------------------------ *)
(* Machine-level parity: fds and the recursion depth                   *)
(* ------------------------------------------------------------------ *)

(* posix_clock's registration (/dev/ptp0 and its fops global name) over
   another source *)
let custom_machine source =
  let e = Corpus.Registry.find_exn "posix_clock" in
  Vkernel.Machine.boot [ { e with source } ]

let engines : Vkernel.Machine.engine list = [ `Jit; `Interp ]

let engine_name = function `Jit -> "jit" | `Interp -> "interp"

let fd_src =
  {|
#define TFD_GET_ID 1
#define TFD_SET_MODE 2
#define TFD_RESET 3

struct tfd_state { int id; };
struct tfd_conf { int mode; int limit; };

static int _tfd_opened;
static int _tfd_last_released;
static struct tfd_conf tfd_conf = { .mode = 7, .limit = 3 };

static int tfd_open(struct inode *inode, struct file *fp)
{
  struct tfd_state *s;
  s = kzalloc(sizeof(struct tfd_state), GFP_KERNEL);
  _tfd_opened = _tfd_opened + 1;
  s->id = _tfd_opened;
  fp->private_data = s;
  return 0;
}

static int tfd_release(struct inode *inode, struct file *fp)
{
  struct tfd_state *s;
  s = fp->private_data;
  BUG_ON(s->id <= _tfd_last_released);
  _tfd_last_released = s->id;
  kfree(s);
  return 0;
}

static long tfd_ioctl(struct file *fp, unsigned int cmd, unsigned long arg)
{
  struct tfd_state *s;
  long old;
  s = fp->private_data;
  switch (cmd) {
  case TFD_GET_ID:
    return s->id;
  case TFD_SET_MODE:
    old = tfd_conf.mode;
    tfd_conf.mode = arg;
    return old;
  case TFD_RESET:
    _tfd_last_released = 0;
    return 0;
  }
  return -ENOTTY;
}

static const struct file_operations posix_clock_file_operations = {
  .open = tfd_open,
  .release = tfd_release,
  .unlocked_ioctl = tfd_ioctl,
  .owner = THIS_MODULE,
};
|}

let open_ptp = { Vkernel.Machine.c_name = "openat"; c_args = [ P_int 0L; P_str "/dev/ptp0" ] }

let ioctl fd cmd = { Vkernel.Machine.c_name = "ioctl"; c_args = [ fd; P_int cmd; P_int 0L ] }

let test_fd_numbers () =
  (* twelve fds open at once (fds 3..14, ids 1..12); reads through
     valid, closed, never-opened, negative and out-of-range numbers; the
     release handler BUGs unless exit releases in ascending fd order *)
  let machine = custom_machine fd_src in
  let open Vkernel.Machine in
  let prog =
    List.init 12 (fun _ -> open_ptp)
    @ [
        ioctl (P_result 11) 1L;
        ioctl (P_int 3L) 1L;
        ioctl (P_int 14L) 1L;
        { c_name = "close"; c_args = [ P_result 5 ] };
        ioctl (P_result 5) 1L;
        { c_name = "close"; c_args = [ P_result 5 ] };
        ioctl (P_int 15L) 1L;
        ioctl (P_int 2L) 1L;
        ioctl (P_int (-1L)) 1L;
        ioctl (P_int Int64.min_int) 1L;
        ioctl (P_int Int64.max_int) 1L;
        ioctl (P_int 0x1_0000_0000L) 1L;
        (* an fd number is taken modulo 2^63, as Int64.to_int does *)
        ioctl (P_int 0x8000_0000_0000_0004L) 1L;
        ioctl (P_result 99) 1L;
        ioctl (P_result 16) 1L;
        ioctl (P_int 3L) 3L;
      ]
  in
  let want =
    Array.of_list
      (List.init 12 (fun i -> Int64.of_int (i + 3))
      @ [ 12L; 1L; 12L; 0L; -9L; -9L; -9L; -9L; -9L; -9L; -9L; -9L; 2L; -9L; -9L; 0L ])
  in
  List.iter
    (fun engine ->
      let r = exec_prog ~engine machine prog in
      let name = engine_name engine in
      Alcotest.(check (array int64)) (name ^ ": retvals") want r.retvals;
      Alcotest.(check (option string)) (name ^ ": released in ascending order, nothing leaked")
        None (Option.map (fun c -> c.cr_title) r.crash))
    engines

let test_fd_fresh_per_execution () =
  (* fd numbers restart at 3, and a global written by one execution is
     back to its initializer in the next *)
  let machine = custom_machine fd_src in
  let prog = [ open_ptp; ioctl (P_result 0) 2L; ioctl (P_result 0) 2L ] in
  List.iter
    (fun engine ->
      for run = 1 to 2 do
        let r = Vkernel.Machine.exec_prog ~engine machine prog in
        Alcotest.(check (array int64))
          (Printf.sprintf "%s run %d" (engine_name engine) run)
          [| 3L; 7L; 0L |] r.retvals
      done)
    engines

(* [tdp_deep(63)] under a handler makes 65 frames, the most the depth
   check allows. Each error below is raised two frames deep, where both
   engines leave the depth counter as it was at the raise. *)
let depth_src ~open_fails_first =
  Printf.sprintf
    {|
struct tdp_box { long v; char buf[8]; };

static int _tdp_opens;
static int _tdp_picks;
static struct tdp_box tdp_box;

static long tdp_deep(long n)
{
  if (n <= 0)
    return 0;
  return tdp_deep(n - 1) + 1;
}

static struct tdp_box *tdp_broken(long n)
{
  if (n > 0)
    goto missing;
  return &tdp_box;
}

static struct tdp_box *tdp_pick(void)
{
  _tdp_picks = _tdp_picks + 1;
  if (_tdp_picks == 2)
    goto missing;
  return &tdp_box;
}

static int tdp_open(struct inode *inode, struct file *fp)
{
  _tdp_opens = _tdp_opens + 1;
  if (%s && _tdp_opens == 1)
    return tdp_broken(1)->v;
  return tdp_deep(63) - 63;
}

static long tdp_ioctl(struct file *fp, unsigned int cmd, unsigned long arg)
{
  if (cmd == 1) {
    strscpy(tdp_broken(1)->buf, "x", 4);
    return tdp_deep(63);
  }
  if (cmd == 2) {
    copy_from_user(&tdp_pick()->v, (void *)arg, 8);
    return tdp_deep(63);
  }
  return tdp_deep(arg);
}

static const struct file_operations posix_clock_file_operations = {
  .open = tdp_open,
  .unlocked_ioctl = tdp_ioctl,
};
|}
    (if open_fails_first then "1" else "0")

let test_depth_restored_after_error () =
  let failing = custom_machine (depth_src ~open_fails_first:true) in
  let plain = custom_machine (depth_src ~open_fails_first:false) in
  let open Vkernel.Machine in
  let cases =
    [
      (* a call that fails in a nested frame, then one at the limit *)
      (failing, "call loop", [ open_ptp; open_ptp ], [| -22L; 3L |]);
      (* one frame more than the limit allows *)
      ( plain,
        "limit",
        [
          open_ptp;
          { c_name = "ioctl"; c_args = [ P_result 0; P_int 0L; P_int 63L ] };
          { c_name = "ioctl"; c_args = [ P_result 0; P_int 0L; P_int 64L ] };
        ],
        [| 3L; 63L; -22L |] );
      (* a builtin's store whose lvalue fails in a nested frame, the
         handler carrying on to the limit *)
      (plain, "bstore", [ open_ptp; ioctl (P_result 0) 1L ], [| 3L; 63L |]);
      ( plain,
        "bsstore",
        [
          open_ptp;
          { c_name = "ioctl"; c_args = [ P_result 0; P_int 2L; P_data (Vkernel.Value.U_int 5L) ] };
        ],
        [| 3L; 63L |] );
    ]
  in
  List.iter
    (fun (machine, what, prog, want) ->
      List.iter
        (fun engine ->
          let r = exec_prog ~engine machine prog in
          Alcotest.(check (array int64)) (what ^ " on " ^ engine_name engine) want r.retvals)
        engines)
    cases

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
      ( "types",
        [
          QCheck_alcotest.to_alcotest
            (qcheck_draws_obey_types ~name:"dm" ~count:200
               (fixed (lazy (prepared (snd (Lazy.force dm_ctx))))));
          QCheck_alcotest.to_alcotest
            (qcheck_draws_obey_types ~name:"every type" ~count:500 (fixed every_type_suite));
          QCheck_alcotest.to_alcotest
            (qcheck_draws_obey_types ~name:"random pipeline specs" ~count:8 (fun seed ->
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
          t "switch labels" test_switch_labels;
          t "constant globals" test_const_global_init;
          t "globals fresh per state" test_const_global_fresh_per_state;
        ] );
      ( "machine",
        [
          t "fd numbers" test_fd_numbers;
          t "fds fresh per execution" test_fd_fresh_per_execution;
          t "depth restored after an error" test_depth_restored_after_error;
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
