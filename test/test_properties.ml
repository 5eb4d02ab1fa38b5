(* Cross-library property tests: the procedural corpus generator doubles
   as a QCheck generator of realistic driver modules, over which we check
   end-to-end invariants of parsing, analysis and execution. *)

let gen_driver_entry =
  QCheck.Gen.map
    (fun seed ->
      let entries =
        Corpus.Gen.population ~seed ~n_drivers:1 ~loaded_drivers:1 ~n_sockets:0
          ~loaded_sockets:0 ()
      in
      List.hd entries)
    QCheck.Gen.(int_bound 5000)

let gen_socket_entry =
  QCheck.Gen.map
    (fun seed ->
      let entries =
        Corpus.Gen.population ~seed ~n_drivers:0 ~loaded_drivers:0 ~n_sockets:1
          ~loaded_sockets:1 ()
      in
      List.hd entries)
    QCheck.Gen.(int_bound 5000)

let arbitrary_driver = QCheck.make ~print:(fun e -> e.Corpus.Types.name) gen_driver_entry
let arbitrary_socket = QCheck.make ~print:(fun e -> e.Corpus.Types.name) gen_socket_entry

(* 1. every generated module parses and pretty-print round-trips *)
let prop_parse_roundtrip =
  QCheck.Test.make ~name:"generated drivers parse and round-trip" ~count:60 arbitrary_driver
    (fun entry ->
      let sid = ref 0 in
      let f = Csrc.Parser.parse_file ~file:"m.c" ~sid entry.source in
      let printed = Csrc.Pretty.file_str f in
      let sid2 = ref 0 in
      let f2 = Csrc.Parser.parse_file ~file:"m.c" ~sid:sid2 printed in
      List.length f.decls = List.length f2.decls)

(* 2. the pipeline always terminates and, when valid, covers the ground
   truth commands *)
let prop_pipeline_sound =
  QCheck.Test.make ~name:"pipeline specs validate against the kernel" ~count:25
    arbitrary_driver (fun entry ->
      let machine = Vkernel.Machine.boot [ entry ] in
      let kernel = machine.Vkernel.Machine.index in
      let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
      let out = Kernelgpt.Pipeline.run ~oracle ~kernel entry in
      match out.o_spec with
      | None -> true
      | Some spec ->
          (not out.o_valid) || Syzlang.Validate.validate ~kernel spec = [])

(* 3. fuzzing a generated driver with its KernelGPT spec reaches at least
   the open handler (coverage > 0) whenever generation succeeded *)
let prop_fuzz_reaches_module =
  QCheck.Test.make ~name:"valid specs earn module coverage" ~count:15 arbitrary_driver
    (fun entry ->
      let machine = Vkernel.Machine.boot [ entry ] in
      let kernel = machine.Vkernel.Machine.index in
      let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
      match Kernelgpt.Pipeline.run ~oracle ~kernel entry with
      | { o_valid = true; o_spec = Some spec; _ } ->
          let res = Fuzzer.Campaign.run ~seed:1 ~budget:300 ~machine spec in
          Fuzzer.Campaign.module_coverage machine res entry.name > 0
      | _ -> true)

(* 4. execution never raises: crashes and errors are data, not exceptions *)
let prop_exec_total =
  QCheck.Test.make ~name:"program execution is total" ~count:40 arbitrary_driver
    (fun entry ->
      let machine = Vkernel.Machine.boot [ entry ] in
      let r = Fuzzer.Rng.make (Hashtbl.hash entry.Corpus.Types.name) in
      let path = List.hd entry.gt.gt_paths in
      let prog =
        [
          { Vkernel.Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str path ] };
          {
            Vkernel.Machine.c_name = "ioctl";
            c_args =
              [
                P_result 0;
                P_int (Fuzzer.Rng.fuzz_int r ~bits:32);
                P_data (Vkernel.Value.U_str "x");
              ];
          };
          { Vkernel.Machine.c_name = "close"; c_args = [ P_result 0 ] };
        ]
      in
      match Vkernel.Machine.exec_prog machine prog with _ -> true)

(* 5. socket pipeline: the generated socket spec's domain matches gt *)
let prop_socket_domain =
  QCheck.Test.make ~name:"socket specs carry the right domain" ~count:20 arbitrary_socket
    (fun entry ->
      let machine = Vkernel.Machine.boot [ entry ] in
      let kernel = machine.Vkernel.Machine.index in
      let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
      match Kernelgpt.Pipeline.run ~oracle ~kernel entry with
      | { o_spec = Some spec; _ } -> (
          match
            ( entry.gt.gt_socket,
              List.find_opt (fun c -> c.Syzlang.Ast.call_name = "socket") spec.syscalls )
          with
          | Some (d, _, _), Some call -> (
              match (List.hd call.args).ftyp with
              | Syzlang.Ast.Const (c, _) -> c.const_value = Some (Int64.of_int d)
              | _ -> false)
          | _ -> true)
      | _ -> true)

(* 6. SyzDescribe either fails or produces a validating spec *)
let prop_syzdescribe_validates =
  QCheck.Test.make ~name:"SyzDescribe output validates (even when wrong)" ~count:30
    arbitrary_driver (fun entry ->
      let machine = Vkernel.Machine.boot [ entry ] in
      let kernel = machine.Vkernel.Machine.index in
      match (Baseline.Syzdescribe.run entry).sd_spec with
      | None -> true
      | Some spec -> Syzlang.Validate.validate ~kernel spec = [])

(* 7. interpreter arithmetic sanity through a synthetic module *)
let prop_interp_arithmetic =
  QCheck.Test.make ~name:"interpreter arithmetic matches OCaml" ~count:80
    QCheck.(pair (int_bound 1000) (int_range 1 1000))
    (fun (a, b) ->
      let src =
        Printf.sprintf
          {|
static long arith_ioctl(struct file *f, unsigned int cmd, unsigned long arg)
{
  long x;
  x = %d;
  x = x * 3 + %d;
  x = x %% 97;
  if (x > 48)
    x = x - 48;
  return x;
}
static const struct file_operations arith_fops = {
  .unlocked_ioctl = arith_ioctl,
};
|}
          a b
      in
      let sid = ref 0 in
      let idx = Csrc.Index.of_files (Corpus.Headers.parse_with_header ~sid ~file:"a.c" src) in
      let st = Vkernel.Interp.create ~index:idx () in
      let v =
        Vkernel.Interp.call st "arith_ioctl"
          [ Vkernel.Value.vint 0L; Vkernel.Value.vint 0L; Vkernel.Value.vint 0L ]
      in
      let expected =
        let x = ((a * 3) + b) mod 97 in
        if x > 48 then x - 48 else x
      in
      Vkernel.Value.to_int v = Int64.of_int expected)

(* 8. the [--faults]-style flag specs: a spec mutated from a valid
   [RATE] or [RATE:SEED] comes back as an [Error], never an exception;
   an accepted plan's rate lies in 0-100, and its printed spec parses
   back to the same plan *)

(* Characters a flag spec is made of, or that [int_of_string] also
   reads: signs, digit separators and the hex prefix. *)
let spec_chars = ":+-0123456789_x "

(* Numbers past each range: rates out of 0-100, and 20 digits, past
   [max_int] *)
let out_of_range =
  [| "-1"; "101"; "1000"; "4611686018427387904"; "0x7fffffffffffffff"; "99999999999999999999";
     "-99999999999999999999" |]

(* One edit of [s]: drop, duplicate or insert a character, or splice in
   a number *)
let edit_spec s =
  let open QCheck.Gen in
  let n = String.length s in
  (* [s] with bytes [i, j) replaced by [r] *)
  let cut i j r = String.sub s 0 i ^ r ^ String.sub s j (n - j) in
  frequency
    ((if n = 0 then []
      else
        [
          (2, map (fun i -> cut i (i + 1) "") (int_bound (n - 1)));
          (2, map (fun i -> cut i i (String.make 1 s.[i])) (int_bound (n - 1)));
        ])
    @ [
        ( 3,
          map2
            (fun i c -> cut i i (String.make 1 c))
            (int_bound n)
            (oneofl (List.of_seq (String.to_seq spec_chars))) );
        ( 2,
          map3
            (fun i k r -> cut i (min n (i + k)) r)
            (int_bound n) (int_bound 3) (oneofa out_of_range) );
      ])

let gen_flag_spec =
  let open QCheck.Gen in
  let valid =
    oneof
      [
        map string_of_int (int_range 0 100);
        map2 (Printf.sprintf "%d:%d") (int_range 0 100) (int_range (-5) 1_000_000);
      ]
  in
  let* spec = valid in
  let* rounds = int_range 0 4 in
  let rec go k s = if k = 0 then return s else edit_spec s >>= go (k - 1) in
  go rounds spec

(* [parse] is total on [spec]; an [Ok] plan has a rate in 0-100 and
   round-trips through [to_string] *)
let flag_spec_holds ~name ~parse ~to_string ~rate spec =
  match parse spec with
  | Error _ -> true
  | Ok plan ->
      if rate plan < 0 || rate plan > 100 then
        QCheck.Test.fail_reportf "%s accepted %S with rate %d" name spec (rate plan)
      else if parse (to_string plan) <> Ok plan then
        QCheck.Test.fail_reportf "%s: %S prints as %S, which parses to another plan" name spec
          (to_string plan)
      else true
  | exception e -> QCheck.Test.fail_reportf "%s raised %s on %S" name (Printexc.to_string e) spec

let prop_flag_specs =
  QCheck.Test.make ~name:"flag specs parse totally and round-trip" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_flag_spec)
    (fun spec ->
      flag_spec_holds ~name:"Faults" ~parse:Faults.parse_spec ~to_string:Faults.spec_to_string
        ~rate:(fun (p : Faults.plan) -> p.rate_pct)
        spec
      && flag_spec_holds ~name:"Supervisor" ~parse:Fuzzer.Supervisor.parse_spec
           ~to_string:Fuzzer.Supervisor.spec_to_string
           ~rate:(fun (c : Fuzzer.Supervisor.config) -> c.fault_rate)
           spec
      && flag_spec_holds ~name:"Pool.Faults" ~parse:Kernelgpt.Pool.Faults.parse_spec
           ~to_string:Kernelgpt.Pool.Faults.spec_to_string
           ~rate:(fun (p : Kernelgpt.Pool.Faults.plan) -> p.rate_pct)
           spec)

let () =
  Alcotest.run "properties"
    [
      ( "end-to-end",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_parse_roundtrip;
            prop_pipeline_sound;
            prop_fuzz_reaches_module;
            prop_exec_total;
            prop_socket_domain;
            prop_syzdescribe_validates;
            prop_interp_arithmetic;
            prop_flag_specs;
          ] );
    ]
