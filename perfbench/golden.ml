(** Golden output digests.

    Every operation's output is reduced to an MD5 digest and compared
    with the committed table in [perfbench/golden/<file>.txt] (one
    [<key> <hex>] line per operation). An operation fails when it
    raises, or when its digest is missing from the table or differs
    from it. The tables are written by [perf.exe --regen-golden]. *)

let dir = Filename.concat "perfbench" "golden"

type table = (string, string) Hashtbl.t

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let spec_text = function Some s -> Syzlang.Printer.spec_str s | None -> "<none>"

(** One module's generation output: KernelGPT's printed spec and
    accounting, plus SyzDescribe's spec. *)
let module_digest (o : Kernelgpt.Pipeline.outcome) (sd : Baseline.Syzdescribe.outcome) =
  digest
    [
      spec_text o.o_spec;
      string_of_bool o.o_valid;
      string_of_bool o.o_usable;
      string_of_bool o.o_repaired;
      string_of_int o.o_queries;
      string_of_int o.o_tokens;
      string_of_int o.o_iterations;
      spec_text sd.Baseline.Syzdescribe.sd_spec;
    ]

(** One campaign's observable result. *)
let campaign_digest (r : Fuzzer.Campaign.result) =
  let cov =
    Hashtbl.fold (fun sid () acc -> sid :: acc) r.coverage []
    |> List.sort compare |> List.map string_of_int |> String.concat ","
  in
  digest
    [
      string_of_int r.executions;
      Digest.to_hex (Digest.string cov);
      String.concat ";" (Fuzzer.Campaign.crash_titles r);
      string_of_int r.corpus_size;
      string_of_int r.corpus_evictions;
      String.concat ";"
        (List.map (fun (t, e) -> Printf.sprintf "%s@%d" t e) r.first_crash_execs);
    ]

let path file = Filename.concat dir (file ^ ".txt")

let load file : table =
  let p = path file in
  let t = Hashtbl.create 256 in
  let ic =
    try open_in p with Sys_error e -> failwith ("golden table missing: " ^ e)
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      try
        while true do
          match String.split_on_char ' ' (input_line ic) with
          | [ k; v ] -> Hashtbl.replace t k v
          | [ "" ] -> ()
          | _ -> failwith (p ^ ": malformed line")
        done
      with End_of_file -> ());
  t

let save file (rows : (string * string) list) =
  let oc = open_out (path file) in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) (List.sort compare rows);
  close_out oc

(** Compare an operation's digest with its golden entry. *)
let check (t : table) key d =
  match Hashtbl.find_opt t key with
  | Some g when g = d -> Ok ()
  | Some g -> Error (Printf.sprintf "digest %s, golden %s" d g)
  | None -> Error ("no golden digest for " ^ key)
