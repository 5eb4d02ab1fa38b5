(* Tests for the fuzzer: RNG determinism, program generation invariants,
   mutation, and campaign behavior. *)

let dm_ctx =
  lazy
    (let entry = Corpus.Registry.find_exn "dm" in
     let machine = Vkernel.Machine.boot [ entry ] in
     let kernel = machine.Vkernel.Machine.index in
     let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
     let spec = Option.get (Kernelgpt.Pipeline.run ~oracle ~kernel entry).o_spec in
     let spec = Syzlang.Validate.resolve_spec ~kernel spec in
     (machine, spec))

let test_rng_deterministic () =
  let a = Fuzzer.Rng.make 42 and b = Fuzzer.Rng.make 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Fuzzer.Rng.next_int64 a) (Fuzzer.Rng.next_int64 b)
  done

let test_rng_int_bounds () =
  let r = Fuzzer.Rng.make 7 in
  for _ = 1 to 1000 do
    let v = Fuzzer.Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_fuzz_int_width () =
  let r = Fuzzer.Rng.make 9 in
  for _ = 1 to 1000 do
    let v = Fuzzer.Rng.fuzz_int r ~bits:8 in
    Alcotest.(check bool) "fits width" true (Int64.compare v 0L >= 0 && Int64.compare v 255L <= 0)
  done

let test_generate_satisfies_resources () =
  let _, spec = Lazy.force dm_ctx in
  let t = Fuzzer.Proggen.prepare spec in
  let r = Fuzzer.Rng.make 3 in
  for _ = 1 to 200 do
    let prog = Fuzzer.Proggen.generate t r () in
    (* every P_result index must point to an earlier call *)
    List.iteri
      (fun i (c : Vkernel.Machine.call) ->
        List.iter
          (function
            | Vkernel.Machine.P_result j ->
                Alcotest.(check bool) "result refers backwards" true (j < i)
            | _ -> ())
          c.c_args)
      prog
  done

let test_generate_nonempty () =
  let _, spec = Lazy.force dm_ctx in
  let t = Fuzzer.Proggen.prepare spec in
  let r = Fuzzer.Rng.make 4 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "non-empty" true (Fuzzer.Proggen.generate t r () <> [])
  done

let test_len_fields_computed () =
  let spec =
    Syzlang.Parser.parse_spec ~name:"t"
      {|resource fd_t[fd]
t_struct {
	count len[items, int32]
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
    | [ _; _; Vkernel.Machine.P_data (Vkernel.Value.U_struct (_, fields)) ] -> (
        match (List.assoc "count" fields, List.assoc "items" fields) with
        | Vkernel.Value.U_int n, Vkernel.Value.U_arr xs ->
            Alcotest.(check int64) "count matches items" (Int64.of_int (List.length xs)) n
        | _ -> Alcotest.fail "unexpected field shapes")
    | _ -> Alcotest.fail "expected a struct payload"
  done

let test_flags_use_set_values () =
  let spec =
    Syzlang.Parser.parse_spec ~name:"t"
      {|resource fd_t[fd]
vals = 224, 1
ioctl$X(fd fd_t, cmd const[1], arg ptr[in, flags[vals, int32]])
|}
  in
  let t = Fuzzer.Proggen.prepare spec in
  let r = Fuzzer.Rng.make 6 in
  let draws = ref 0 and hits = ref 0 in
  while !draws < 200 do
    match Fuzzer.Proggen.args_of_index t r ~resource_at:[] 0 with
    | [ _; _; Vkernel.Machine.P_null ] -> ()
    | [ _; _; Vkernel.Machine.P_data (Vkernel.Value.U_int v) ] ->
        incr draws;
        if v = 224L || v = 1L then incr hits
    | _ -> Alcotest.fail "expected an integer payload"
  done;
  Alcotest.(check bool) "mostly the valid values" true (!hits > 100)

let test_mutation_preserves_wellformedness () =
  let _, spec = Lazy.force dm_ctx in
  let t = Fuzzer.Proggen.prepare spec in
  let r = Fuzzer.Rng.make 8 in
  let prog = ref (Fuzzer.Proggen.generate t r ()) in
  for _ = 1 to 300 do
    prog := Fuzzer.Mutator.mutate t r !prog;
    Alcotest.(check bool) "non-empty after mutation" true (!prog <> [])
  done

(* ------------------------------------------------------------------ *)
(* Mutation-operator ensemble                                          *)
(* ------------------------------------------------------------------ *)

(* the ensemble's contract: every [P_result] points strictly backward at
   a call that can produce a resource (its spec entry carries
   [ret = Some _]) *)
let dependency_invariant ~producer_names (prog : Vkernel.Machine.prog) : bool =
  let arr = Array.of_list prog in
  let ok = ref true in
  Array.iteri
    (fun i (c : Vkernel.Machine.call) ->
      List.iter
        (function
          | Vkernel.Machine.P_result j ->
              if
                not
                  (j >= 0 && j < i
                  && List.mem arr.(j).Vkernel.Machine.c_name producer_names)
              then ok := false
          | _ -> ())
        c.Vkernel.Machine.c_args)
    arr;
  !ok

let qcheck_mutation_dependency_invariant =
  let _, spec = Lazy.force dm_ctx in
  let producer_names =
    List.filter_map
      (fun (c : Syzlang.Ast.syscall) ->
        match c.Syzlang.Ast.ret with Some _ -> Some c.Syzlang.Ast.call_name | None -> None)
      spec.Syzlang.Ast.syscalls
  in
  let t = Fuzzer.Proggen.prepare spec in
  QCheck.Test.make ~name:"mutation chains keep P_result at a backward producer" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Fuzzer.Rng.make seed in
      let partner = Fuzzer.Proggen.generate t r () in
      let prog = ref (Fuzzer.Proggen.generate t r ()) in
      let ok =
        ref
          (dependency_invariant ~producer_names partner
          && dependency_invariant ~producer_names !prog)
      in
      let n_ops = Array.length Fuzzer.Mutator.all in
      (* round-robin over the ensemble so every operator — splice and
         insert-dependent included — is exercised on every run *)
      for i = 0 to (4 * n_ops) - 1 do
        let op = Fuzzer.Mutator.all.(i mod n_ops) in
        prog := Fuzzer.Mutator.apply t r op ~partner:(fun () -> partner) !prog;
        if not (dependency_invariant ~producer_names !prog) then ok := false
      done;
      !ok)

let mk name args = { Vkernel.Machine.c_name = name; c_args = args }

(* (consumer name, referent name) for every P_result in the program;
   dangling references surface as "!dangling" *)
let referent_names (prog : Vkernel.Machine.prog) : (string * string) list =
  let arr = Array.of_list prog in
  List.concat
    (List.mapi
       (fun i (c : Vkernel.Machine.call) ->
         List.filter_map
           (function
             | Vkernel.Machine.P_result j ->
                 Some
                   ( c.Vkernel.Machine.c_name,
                     if j >= 0 && j < i then arr.(j).Vkernel.Machine.c_name
                     else "!dangling" )
             | _ -> None)
           c.Vkernel.Machine.c_args)
       prog)

let test_duplicate_shifts_refs () =
  (* duplicating the first call inserts at index 1, so the refs in the
     calls after it must shift by one; the historical operator left them
     pointing one call too early (n2's ref would land on n0) *)
  let prog =
    [
      mk "n0" [];
      mk "n1" [ Vkernel.Machine.P_result 0 ];
      mk "n2" [ Vkernel.Machine.P_result 1 ];
    ]
  in
  for seed = 0 to 49 do
    let out = Fuzzer.Mutator.duplicate_call (Fuzzer.Rng.make seed) prog in
    Alcotest.(check int) "one call longer" 4 (List.length out);
    List.iter
      (fun (consumer, referent) ->
        let expected =
          match consumer with
          | "n1" -> "n0"
          | "n2" -> "n1"
          | c -> Alcotest.fail ("unexpected consumer " ^ c)
        in
        Alcotest.(check string) (consumer ^ " still points at its producer") expected referent)
      (referent_names out)
  done

let test_swap_refuses_dependent () =
  (* swapping would move the producer after its consumer: the operator
     must refuse, and the refusal must consume exactly the index draw so
     the RNG stream is identical whether or not the swap lands *)
  let prog = [ mk "p" []; mk "c" [ Vkernel.Machine.P_result 0 ] ] in
  for seed = 0 to 19 do
    let r = Fuzzer.Rng.make seed in
    let out = Fuzzer.Mutator.swap_adjacent r prog in
    Alcotest.(check bool) "refused: program unchanged" true (out = prog);
    let ctrl = Fuzzer.Rng.make seed in
    ignore (Fuzzer.Rng.int ctrl 1);
    Alcotest.(check int64) "exactly one draw consumed" (Fuzzer.Rng.next_int64 ctrl)
      (Fuzzer.Rng.next_int64 r)
  done

let test_swap_remaps_later_refs () =
  (* an accepted swap of calls 0/1 must remap later references so they
     follow the call that moved; the other candidate (swapping 1/2) is
     refused because c consumes b's result *)
  let prog = [ mk "a" []; mk "b" []; mk "c" [ Vkernel.Machine.P_result 1 ] ] in
  for seed = 0 to 49 do
    let out = Fuzzer.Mutator.swap_adjacent (Fuzzer.Rng.make seed) prog in
    Alcotest.(check int) "length preserved" 3 (List.length out);
    List.iter
      (fun (_, referent) -> Alcotest.(check string) "c still points at b" "b" referent)
      (referent_names out)
  done

let test_empty_union_degrades () =
  (* a degenerate spec with a fieldless union must degrade to a zero
     value, without a draw, instead of raising *)
  let open Syzlang.Ast in
  let spec =
    {
      (empty_spec "t") with
      types = [ { comp_name = "u"; comp_kind = Union; comp_fields = [] } ];
      syscalls =
        [
          {
            call_name = "ioctl";
            variant = Some "X";
            args =
              [
                { fname = "cmd"; ftyp = Const (const_of_value 1L, I32) };
                { fname = "arg"; ftyp = Ptr (In, Union_ref "u") };
              ];
            ret = None;
          };
        ];
    }
  in
  let t = Fuzzer.Proggen.prepare spec in
  (* the plan walk's own guard, for a union plan without fields *)
  let r = Fuzzer.Rng.make 7 in
  Alcotest.(check bool) "union plan degrades to zero" true
    (Fuzzer.Proggen.uval_of_gen t r ~depth:0 (Fuzzer.Compiled.G_union 0) = Vkernel.Value.U_int 0L);
  Alcotest.(check int64) "no draw consumed"
    (Fuzzer.Rng.next_int64 (Fuzzer.Rng.make 7))
    (Fuzzer.Rng.next_int64 r);
  (* drawn through the spec, the pointer's NULL roll is the only draw *)
  let zero_payload (c : Vkernel.Machine.call) =
    match c.c_args with
    | [ P_int 1L; (P_null | P_data (Vkernel.Value.U_int 0L)) ] -> ()
    | _ -> Alcotest.fail "expected a zero or NULL payload"
  in
  for seed = 0 to 19 do
    let r = Fuzzer.Rng.make seed in
    zero_payload { c_name = "ioctl"; c_args = Fuzzer.Proggen.args_of_index t r ~resource_at:[] 0 };
    let ctrl = Fuzzer.Rng.make seed in
    ignore (Fuzzer.Rng.pct ctrl 4);
    Alcotest.(check int64) "one draw per call" (Fuzzer.Rng.next_int64 ctrl)
      (Fuzzer.Rng.next_int64 r)
  done;
  let r = Fuzzer.Rng.make 3 in
  for _ = 1 to 20 do
    List.iter zero_payload (Fuzzer.Proggen.generate t r ())
  done

(* The association-list [insert_dependent] that the dense-id operator
   replaced, kept as the reference oracle: the latest producer of each
   resource by machine call name over every (resource, producer) pair of
   the suite, candidates in ascending spec order, one draw among them,
   no draw without a candidate. The (resource, producer) list and the
   per-syscall requirements are rebuilt from the spec, as the generator
   used to precompute them. *)
let reference_insert_dependent (t : Fuzzer.Proggen.t) (r : Fuzzer.Rng.t)
    (prog : Vkernel.Machine.prog) : Vkernel.Machine.prog =
  let open Syzlang.Ast in
  let open Vkernel.Machine in
  let syscalls = t.Fuzzer.Proggen.syscalls in
  let producer_idx =
    List.concat
      (List.mapi
         (fun i c -> match c.ret with Some res -> [ (res, i) ] | None -> [])
         (Array.to_list syscalls))
  in
  let required =
    Array.map (fun c -> List.concat_map (fun f -> referenced_resources f.ftyp) c.args) syscalls
  in
  let rev_prog = List.rev prog in
  let resource_at =
    let rec scan i acc = function
      | [] -> acc
      | (c : call) :: earlier ->
          let acc =
            List.fold_left
              (fun acc (res, pidx) ->
                if syscalls.(pidx).call_name = c.c_name && not (List.mem_assoc res acc) then
                  (res, i) :: acc
                else acc)
              acc producer_idx
          in
          scan (i - 1) acc earlier
    in
    scan (List.length rev_prog - 1) [] rev_prog
  in
  let cand = ref [] in
  let ncand = ref 0 in
  Array.iteri
    (fun idx req ->
      if req <> [] && List.for_all (fun res -> List.mem_assoc res resource_at) req then begin
        cand := idx :: !cand;
        incr ncand
      end)
    required;
  if !ncand = 0 then prog
  else begin
    let arr = Array.of_list (List.rev !cand) in
    let idx = arr.(Fuzzer.Rng.int r !ncand) in
    let args = Fuzzer.Proggen.args_of_index t r ~resource_at idx in
    List.rev ({ c_name = syscalls.(idx).call_name; c_args = args } :: rev_prog)
  end

let suites_ctx = lazy (Report.Suites.build ())

(* the whole kernel with Table 3's merged suite, as campaigns receive it *)
let kernel_ctx =
  lazy
    (let ctx = Lazy.force suites_ctx in
     ( ctx.Report.Suites.machine,
       Report.Suites.kernelgpt_suite ctx,
       Report.Suites.syzkaller_suite ctx ))

let kernel_suite =
  lazy
    (let machine, merged, _ = Lazy.force kernel_ctx in
     Syzlang.Validate.resolve_spec ~kernel:machine.Vkernel.Machine.index merged)

(* The operator under test and the oracle must see the same generator
   state: drawing a call's arguments reads and writes the program's
   working string. *)
let same_as_reference t seed prog =
  let saved = t.Fuzzer.Proggen.cur_str in
  let run f =
    t.Fuzzer.Proggen.cur_str <- saved;
    let r = Fuzzer.Rng.make seed in
    let out = f t r prog in
    (out, Fuzzer.Rng.state r, t.Fuzzer.Proggen.cur_str)
  in
  run Fuzzer.Mutator.insert_dependent = run reference_insert_dependent

(* the oracle costs milliseconds per call on the merged suite, hence the
   per-suite count *)
let qcheck_insert_dependent_matches_reference ~name ~count suite =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: insert-dependent = assoc-list oracle" name)
    ~count
    QCheck.(pair (int_bound 1_000_000) (int_bound 8))
    (fun (seed, steps) ->
      let t = Fuzzer.Proggen.prepare (Lazy.force suite) in
      let r = Fuzzer.Rng.make seed in
      (* generated programs, grown by a few random mutations so longer
         chains and repeated producers are covered too *)
      let prog = ref (Fuzzer.Proggen.generate t r ()) in
      let ok = ref (same_as_reference t seed !prog) in
      for i = 1 to steps do
        prog := Fuzzer.Mutator.mutate t r !prog;
        if not (same_as_reference t (seed + i) !prog) then ok := false
      done;
      !ok)

let test_insert_dependent_call_name_overapprox () =
  (* the program's one ioctl came from ioctl$MKA, but the machine call
     name cannot tell the spec variants apart: every ioctl-returned
     resource counts as produced, so close$B (needing fd_b, which only
     ioctl$MKB returns) is a candidate alongside close$A *)
  let spec =
    Syzlang.Parser.parse_spec ~name:"t"
      {|resource fd_c[fd]
resource fd_a[fd]
resource fd_b[fd]
openat$c(fd const[-100], file ptr[in, string["/dev/c"]], flags const[2], mode const[0]) fd_c
ioctl$MKA(fd fd_c, cmd const[1]) fd_a
ioctl$MKB(fd fd_c, cmd const[2]) fd_b
close$A(fd fd_a, tag const[10])
close$B(fd fd_b, tag const[20])
|}
  in
  let t = Fuzzer.Proggen.prepare spec in
  let prog = [ mk "ioctl" [ Vkernel.Machine.P_int (-1L); Vkernel.Machine.P_int 1L ] ] in
  let tags = ref [] in
  for seed = 0 to 39 do
    match Fuzzer.Mutator.insert_dependent t (Fuzzer.Rng.make seed) prog with
    | [ _; { Vkernel.Machine.c_name = "close"; c_args = [ Vkernel.Machine.P_result 0; P_int tag ] } ]
      ->
        if not (List.mem tag !tags) then tags := tag :: !tags
    | _ -> Alcotest.fail "expected one close consuming the ioctl's result"
  done;
  Alcotest.(check (list int64)) "both ioctl-returned resources available" [ 10L; 20L ]
    (List.sort compare !tags)

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let test_ucb_unvisited_first_then_argmax () =
  let s = Fuzzer.Schedule.create ~mode:Fuzzer.Schedule.Ucb ~max_corpus:4 ~n_ops:3 in
  let r = Fuzzer.Rng.make 1 in
  (* unvisited slots are scheduled first, in index order, without
     touching the RNG *)
  for expect = 0 to 3 do
    let slot = Fuzzer.Schedule.pick_seed s r ~n:4 in
    Alcotest.(check int) "unvisited in index order" expect slot;
    Fuzzer.Schedule.record s ~slot ~op:0 ~reward:0
  done;
  (* equalize the visit counts so the exploration bonus cancels, then
     reward one slot: the argmax must move there *)
  for _ = 1 to 9 do
    for slot = 0 to 3 do
      Fuzzer.Schedule.record s ~slot ~op:0 ~reward:0
    done
  done;
  Fuzzer.Schedule.record s ~slot:2 ~op:1 ~reward:1;
  Alcotest.(check int) "argmax follows reward" 2 (Fuzzer.Schedule.pick_seed s r ~n:4);
  Alcotest.(check int64) "ucb picks consume no RNG words"
    (Fuzzer.Rng.next_int64 (Fuzzer.Rng.make 1))
    (Fuzzer.Rng.next_int64 r)

let test_campaign_ucb_deterministic () =
  let machine, spec = Lazy.force dm_ctx in
  let run () =
    let res =
      Fuzzer.Campaign.run ~seed:5 ~budget:800 ~sched:Fuzzer.Schedule.Ucb ~machine spec
    in
    (Fuzzer.Campaign.total_coverage res, Fuzzer.Campaign.crash_titles res)
  in
  let c1, t1 = run () and c2, t2 = run () in
  Alcotest.(check int) "ucb coverage deterministic" c1 c2;
  Alcotest.(check (list string)) "ucb crashes deterministic" t1 t2

let test_first_crash_exec_recorded () =
  let machine, spec = Lazy.force dm_ctx in
  let res = Fuzzer.Campaign.run ~seed:1 ~budget:4000 ~machine spec in
  (* one first-sighting mark per crash title, all within budget, and
     the any-crash mark is their minimum *)
  Alcotest.(check (list string))
    "one mark per title"
    (Fuzzer.Campaign.crash_titles res)
    (List.map fst res.Fuzzer.Campaign.first_crash_execs);
  List.iter
    (fun (_, e) ->
      Alcotest.(check bool) "within budget" true (e >= 1 && e <= res.executions))
    res.Fuzzer.Campaign.first_crash_execs;
  match (res.Fuzzer.Campaign.first_crash_execs, res.Fuzzer.Campaign.first_crash_exec) with
  | [], None -> ()
  | [], Some _ -> Alcotest.fail "first_crash_exec set without a crash"
  | marks, Some e ->
      Alcotest.(check int) "any-crash mark is the minimum"
        (List.fold_left (fun acc (_, x) -> min acc x) max_int marks)
        e
  | _ :: _, None -> Alcotest.fail "crash found but first_crash_exec unset"

let test_campaign_deterministic () =
  let machine, spec = Lazy.force dm_ctx in
  let run () =
    let res = Fuzzer.Campaign.run ~seed:5 ~budget:500 ~machine spec in
    (Fuzzer.Campaign.total_coverage res, Fuzzer.Campaign.crash_titles res)
  in
  let c1, t1 = run () and c2, t2 = run () in
  Alcotest.(check int) "coverage deterministic" c1 c2;
  Alcotest.(check (list string)) "crashes deterministic" t1 t2

let test_campaign_coverage_monotone_in_budget () =
  let machine, spec = Lazy.force dm_ctx in
  let cov b = Fuzzer.Campaign.total_coverage (Fuzzer.Campaign.run ~seed:5 ~budget:b ~machine spec) in
  Alcotest.(check bool) "more budget, at least as much coverage" true (cov 2000 >= cov 100)

let test_campaign_empty_spec () =
  let machine, _ = Lazy.force dm_ctx in
  let res = Fuzzer.Campaign.run ~seed:1 ~budget:100 ~machine (Syzlang.Ast.empty_spec "none") in
  Alcotest.(check int) "no coverage from empty spec" 0 (Fuzzer.Campaign.total_coverage res)

let test_module_coverage_subset () =
  let machine, spec = Lazy.force dm_ctx in
  let res = Fuzzer.Campaign.run ~seed:2 ~budget:1000 ~machine spec in
  let m = Fuzzer.Campaign.module_coverage machine res "dm" in
  Alcotest.(check bool) "module coverage <= total" true (m <= Fuzzer.Campaign.total_coverage res);
  Alcotest.(check bool) "dm coverage positive" true (m > 0)

let test_campaign_eviction_on_saturation () =
  (* a tiny ring saturates quickly; fresh-coverage programs must then
     evict instead of being silently dropped *)
  let machine, spec = Lazy.force dm_ctx in
  let res = Fuzzer.Campaign.run ~seed:5 ~budget:2000 ~max_corpus:4 ~machine spec in
  Alcotest.(check int) "ring capped" 4 res.Fuzzer.Campaign.corpus_size;
  Alcotest.(check bool) "saturated ring evicts" true (res.corpus_evictions > 0)

let test_campaign_no_eviction_unsaturated () =
  (* the default 512-slot ring never fills at this budget, so the
     eviction path (and its extra RNG draw) must stay untouched and the
     results must match a run with an even larger ring *)
  let machine, spec = Lazy.force dm_ctx in
  let a = Fuzzer.Campaign.run ~seed:5 ~budget:500 ~machine spec in
  let b = Fuzzer.Campaign.run ~seed:5 ~budget:500 ~max_corpus:100_000 ~machine spec in
  Alcotest.(check int) "no evictions below capacity" 0 a.Fuzzer.Campaign.corpus_evictions;
  Alcotest.(check int) "coverage unchanged by ring size"
    (Fuzzer.Campaign.total_coverage a) (Fuzzer.Campaign.total_coverage b);
  Alcotest.(check (list string)) "crashes unchanged by ring size"
    (Fuzzer.Campaign.crash_titles a) (Fuzzer.Campaign.crash_titles b)

let test_campaign_eviction_deterministic () =
  let machine, spec = Lazy.force dm_ctx in
  let run () =
    let res = Fuzzer.Campaign.run ~seed:9 ~budget:1500 ~max_corpus:4 ~machine spec in
    (Fuzzer.Campaign.total_coverage res, res.Fuzzer.Campaign.corpus_evictions)
  in
  let c1, e1 = run () and c2, e2 = run () in
  Alcotest.(check int) "coverage deterministic under eviction" c1 c2;
  Alcotest.(check int) "eviction count deterministic" e1 e2

(* the payloads of generated programs, on the dm spec and on a spec
   whose struct points at itself, which only the generator's depth cap
   stops *)
let qcheck_uval_depth_bounded =
  let _, dm = Lazy.force dm_ctx in
  let node =
    Syzlang.Parser.parse_spec ~name:"t"
      {|resource fd_t[fd]
node {
	val int32
	next ptr[in, node]
}
ioctl$X(fd fd_t, cmd const[1], arg ptr[in, node])
|}
  in
  let gens = List.map Fuzzer.Proggen.prepare [ dm; node ] in
  let rec depth = function
    | Vkernel.Value.U_struct (_, fs) -> 1 + List.fold_left (fun a (_, v) -> max a (depth v)) 0 fs
    | Vkernel.Value.U_arr xs -> 1 + List.fold_left (fun a v -> max a (depth v)) 0 xs
    | _ -> 0
  in
  QCheck.Test.make ~name:"generated user values have bounded depth" ~count:200
    QCheck.(int_bound 100000)
    (fun seed ->
      List.for_all
        (fun t ->
          let r = Fuzzer.Rng.make seed in
          List.for_all
            (fun (c : Vkernel.Machine.call) ->
              List.for_all
                (function Vkernel.Machine.P_data uv -> depth uv <= 10 | _ -> true)
                c.c_args)
            (Fuzzer.Proggen.generate t r ()))
        gens)

let test_repro_minimize () =
  let machine, spec = Lazy.force dm_ctx in
  let res = Fuzzer.Campaign.run ~seed:1 ~budget:4000 ~machine spec in
  match Fuzzer.Campaign.crash_titles res with
  | [] -> Alcotest.fail "expected at least one crash at this budget"
  | title :: _ ->
      let prog = Hashtbl.find res.crashes title in
      let small = Fuzzer.Repro.minimize ~machine ~title prog in
      Alcotest.(check bool) "minimized is no longer" true
        (List.length small <= List.length prog);
      (match (Vkernel.Machine.exec_prog machine small).crash with
      | Some c -> Alcotest.(check string) "still crashes the same way" title c.cr_title
      | None -> Alcotest.fail "minimized program no longer crashes");
      (* rendering produces one line per call *)
      let text = Fuzzer.Repro.program_str small in
      Alcotest.(check int) "one line per call" (List.length small)
        (List.length (String.split_on_char '\n' (String.trim text)))

(* Golden values from seed 42. These pin the exact stream: splitmix64
   constants, the 55-bit mask in [Rng.int] (see its doc comment), the
   one-word draw discipline of [int64_in_range], and the shape of
   [fuzz_int]'s interesting/small/raw split. Any intentional change to
   the generator must update these AND accept that every recorded
   campaign output, checkpoint and BENCH artifact is invalidated. *)
let test_rng_golden_int () =
  let r = Fuzzer.Rng.make 42 in
  Alcotest.(check (list int)) "int 100 stream"
    [ 8; 52; 50; 30; 52; 17; 3; 47 ]
    (List.init 8 (fun _ -> Fuzzer.Rng.int r 100))

let test_rng_golden_raw () =
  let r = Fuzzer.Rng.make 42 in
  Alcotest.(check (list int64)) "raw splitmix64 words"
    [ 0xf07105aaf9661724L; 0x363163b11f809144L; 0x964aa6581ccda2f2L; 0x347c37c01852ebb2L ]
    (List.init 4 (fun _ -> Fuzzer.Rng.next_int64 r))

let test_rng_golden_range () =
  let r = Fuzzer.Rng.make 42 in
  Alcotest.(check (list int64)) "narrow range [-1000, 1000]"
    [ -404L; 696L; -311L; 85L; -181L; 615L ]
    (List.init 6 (fun _ -> Fuzzer.Rng.int64_in_range r ~lo:(-1000L) ~hi:1000L));
  (* the full 64-bit range is the raw stream itself *)
  let a = Fuzzer.Rng.make 42 and b = Fuzzer.Rng.make 42 in
  for _ = 1 to 8 do
    Alcotest.(check int64) "full range = raw word" (Fuzzer.Rng.next_int64 b)
      (Fuzzer.Rng.int64_in_range a ~lo:Int64.min_int ~hi:Int64.max_int)
  done

(* ------------------------------------------------------------------ *)
(* Prepared-suite reuse                                                *)
(* ------------------------------------------------------------------ *)

(* Campaigns on suites A, A, B, A of one machine, initialised in that
   order (the second A reuses the first's preparation, B and the last A
   prepare again) and stepped round-robin, so two campaigns sharing a
   prepared suite interleave their generator scratch. Each must finish
   exactly as the same campaign run alone in a fresh domain, whose memo
   is empty. *)
let test_reuse_matches_fresh_domain () =
  let machine, a, b = Lazy.force kernel_ctx in
  let plan = [ (a, 11); (a, 12); (b, 13); (a, 14) ] in
  let budget = 250 in
  let ts =
    List.map (fun (spec, seed) -> Fuzzer.Campaign.init ~seed ~budget ~machine spec) plan
  in
  let rec round_robin () =
    if List.fold_left (fun stepped t -> Fuzzer.Campaign.step t || stepped) false ts then
      round_robin ()
  in
  round_robin ();
  List.iter2
    (fun t (spec, seed) ->
      let alone =
        Domain.join
          (Domain.spawn (fun () ->
               let t = Fuzzer.Campaign.init ~seed ~budget ~machine spec in
               ignore (Fuzzer.Campaign.drive t);
               Fuzzer.Campaign.snapshot t))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d matches a fresh domain" spec.Syzlang.Ast.spec_name seed)
        true
        (Fuzzer.Campaign.snapshot t = alone))
    ts plan

(* A repeat [Campaign.init] of the merged suite reuses the prepared
   suite: it allocates under 1% of the minor words of the first, which
   resolves, prepares and compiles 3228 syscalls. Measured in a fresh
   domain so the first call cannot hit a memo an earlier test filled. *)
let test_reuse_allocation_guard () =
  let machine, merged, _ = Lazy.force kernel_ctx in
  ignore (Lazy.force machine.Vkernel.Machine.jit);
  let first, again =
    Domain.join
      (Domain.spawn (fun () ->
           let words () =
             let w0 = Gc.minor_words () in
             ignore (Sys.opaque_identity (Fuzzer.Campaign.init ~seed:1 ~budget:10 ~machine merged));
             Gc.minor_words () -. w0
           in
           let first = words () in
           (first, words ())))
  in
  if again >= first /. 100.0 then
    Alcotest.failf "a repeat init allocated %.0f minor words, %.2f%% of the first's %.0f" again
      (100.0 *. again /. first) first

(* ------------------------------------------------------------------ *)
(* Campaign allocation pins                                            *)
(* ------------------------------------------------------------------ *)

(* Table 4's shape: a bug module booted alone with its module suite *)
let pin_module_campaign name ~bound () =
  let ctx = Lazy.force suites_ctx in
  let machine = Vkernel.Machine.boot [ Corpus.Registry.find_exn name ] in
  let spec = Report.Suites.module_suite ctx name in
  Alloc_pin.check ~bound
    (Alloc_pin.repeat_words (fun () ->
         Fuzzer.Campaign.run ~seed:1299721 ~budget:10_000 ~machine spec))

(* 37,264,567 words when pinned *)
let test_pin_module_campaign = pin_module_campaign "dm" ~bound:38_383_000.0

(* The other ten Table 4 bug modules, with the words when pinned *)
let other_module_campaign_pins =
  [
    ("btrfs_control", 19_788_800.0 (* 19,212,401 *));
    ("cec", 42_657_300.0 (* 41,414,846 *));
    ("dvb_demux", 26_355_900.0 (* 25,588,157 *));
    ("dvb_dvr", 11_657_500.0 (* 11,317,896 *));
    ("l2tp_ip6", 26_928_600.0 (* 26,144,185 *));
    ("nbd", 18_151_500.0 (* 17,622,765 *));
    ("posix_clock", 23_698_600.0 (* 23,008,329 *));
    ("rds", 30_609_500.0 (* 29,717,886 *));
    ("ubi", 13_959_500.0 (* 13,552,865 *));
    ("vgadget", 24_502_500.0 (* 23,788,744 *));
  ]

(* Table 3's shape: the merged suite on the whole kernel; 5,165,280
   words when pinned *)
let test_pin_kernel_campaign () =
  let machine, merged, _ = Lazy.force kernel_ctx in
  Alloc_pin.check ~bound:5_320_300.0
    (Alloc_pin.repeat_words (fun () -> Fuzzer.Campaign.run ~seed:7919 ~budget:1500 ~machine merged))

let test_rng_golden_fuzz_int () =
  let r = Fuzzer.Rng.make 42 in
  Alcotest.(check (list int64)) "fuzz_int 32-bit stream"
    [ 0x1f809144L; 0x4L; 0x100L; 0x1L; 0xabdaa345L; 0x10L; 0x8L; 0xfL ]
    (List.init 8 (fun _ -> Fuzzer.Rng.fuzz_int r ~bits:32));
  let r = Fuzzer.Rng.make 42 in
  Alcotest.(check (list int64)) "fuzz_int 8-bit stream masks, same draws"
    [ 0x44L; 0x4L; 0x0L; 0x1L; 0x45L; 0x10L; 0x8L; 0xfL ]
    (List.init 8 (fun _ -> Fuzzer.Rng.fuzz_int r ~bits:8))

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "fuzzer"
    [
      ( "rng",
        [
          t "deterministic" test_rng_deterministic;
          t "int bounds" test_rng_int_bounds;
          t "fuzz_int width" test_fuzz_int_width;
          t "golden int stream" test_rng_golden_int;
          t "golden raw words" test_rng_golden_raw;
          t "golden ranged draws" test_rng_golden_range;
          t "golden fuzz_int" test_rng_golden_fuzz_int;
        ] );
      ( "proggen",
        [
          t "resources satisfied" test_generate_satisfies_resources;
          t "non-empty" test_generate_nonempty;
          t "len computed" test_len_fields_computed;
          t "flags from sets" test_flags_use_set_values;
          t "mutation well-formed" test_mutation_preserves_wellformedness;
          QCheck_alcotest.to_alcotest qcheck_uval_depth_bounded;
        ] );
      ( "mutator",
        [
          t "duplicate shifts refs" test_duplicate_shifts_refs;
          t "swap refuses dependent" test_swap_refuses_dependent;
          t "swap remaps later refs" test_swap_remaps_later_refs;
          t "empty union degrades" test_empty_union_degrades;
          t "insert-dependent call-name over-approximation"
            test_insert_dependent_call_name_overapprox;
          QCheck_alcotest.to_alcotest qcheck_mutation_dependency_invariant;
          QCheck_alcotest.to_alcotest
            (qcheck_insert_dependent_matches_reference ~name:"dm" ~count:60
               (lazy (snd (Lazy.force dm_ctx))));
          QCheck_alcotest.to_alcotest
            (qcheck_insert_dependent_matches_reference ~name:"kernel" ~count:15
               kernel_suite);
        ] );
      ( "schedule",
        [
          t "ucb unvisited then argmax" test_ucb_unvisited_first_then_argmax;
          t "ucb campaign deterministic" test_campaign_ucb_deterministic;
          t "first crash exec recorded" test_first_crash_exec_recorded;
        ] );
      ( "campaign",
        [
          t "deterministic" test_campaign_deterministic;
          t "monotone budget" test_campaign_coverage_monotone_in_budget;
          t "empty spec" test_campaign_empty_spec;
          t "module coverage" test_module_coverage_subset;
          t "eviction on saturation" test_campaign_eviction_on_saturation;
          t "no eviction unsaturated" test_campaign_no_eviction_unsaturated;
          t "eviction deterministic" test_campaign_eviction_deterministic;
          t "repro minimization" test_repro_minimize;
          t "suite reuse matches a fresh domain" test_reuse_matches_fresh_domain;
          t "suite reuse allocation guard" test_reuse_allocation_guard;
          t "dm module campaign allocation pin" test_pin_module_campaign;
          t "merged kernel campaign allocation pin" test_pin_kernel_campaign;
        ]
        @ List.map
            (fun (name, bound) ->
              t (name ^ " module campaign allocation pin") (pin_module_campaign name ~bound))
            other_module_campaign_pins );
    ]
