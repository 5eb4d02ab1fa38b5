(** E1-E3: specification-generation statistics — the paper's Table 1,
    Figure 7 and Table 2. *)

type table1_row = {
  t1_total : int;
  t1_incomplete : int;
  t1_sd_valid : int option;  (** None = N/A (sockets) *)
  t1_kgpt_valid : int;
  t1_kgpt_fixed : int;  (** of the valid ones, how many needed repair *)
}

type table1 = { drivers : table1_row; sockets : table1_row }

let table1 (ctx : Suites.ctx) : table1 =
  let row kind =
    let entries = List.filter (fun (e : Corpus.Types.entry) -> e.kind = kind) ctx.entries in
    let incomplete = List.filter Baseline.Syzkaller_specs.is_incomplete entries in
    let kgpt_outcomes =
      List.filter_map (fun (e : Corpus.Types.entry) -> Suites.kgpt_outcome ctx e.name) incomplete
    in
    let valid = List.filter (fun o -> o.Kernelgpt.Pipeline.o_valid) kgpt_outcomes in
    let fixed = List.filter (fun o -> o.Kernelgpt.Pipeline.o_repaired) valid in
    (* a SyzDescribe spec counts as valid only when the device path it
       inferred actually exists in the booted kernel — the manual
       validation the paper's evaluation applies *)
    let sd_path_ok (spec : Syzlang.Ast.spec) =
      List.exists
        (fun (c : Syzlang.Ast.syscall) ->
          c.call_name = "openat"
          && List.exists
               (fun (f : Syzlang.Ast.field) ->
                 match f.ftyp with
                 | Syzlang.Ast.Ptr (_, Syzlang.Ast.String (Some p)) ->
                     Hashtbl.mem ctx.machine.Vkernel.Machine.devices p
                 | _ -> false)
               c.args)
        spec.syscalls
    in
    let sd_valid =
      if kind = Corpus.Types.Socket then None
      else
        Some
          (List.length
             (List.filter
                (fun (e : Corpus.Types.entry) ->
                  match Suites.sd_spec ctx e.name with
                  | Some spec -> sd_path_ok spec
                  | None -> false)
                incomplete))
    in
    {
      t1_total = List.length entries;
      t1_incomplete = List.length incomplete;
      t1_sd_valid = sd_valid;
      t1_kgpt_valid = List.length valid;
      t1_kgpt_fixed = List.length fixed;
    }
  in
  { drivers = row Corpus.Types.Driver; sockets = row Corpus.Types.Socket }

let print_table1 (t : table1) =
  Table.section "Table 1: Specifications for driver/socket handlers";
  let row name (r : table1_row) =
    [
      name;
      string_of_int r.t1_total;
      string_of_int r.t1_incomplete;
      (match r.t1_sd_valid with Some v -> string_of_int v | None -> "N/A");
      Printf.sprintf "%d (%d)" r.t1_kgpt_valid r.t1_kgpt_fixed;
    ]
  in
  let total =
    let a = t.drivers and b = t.sockets in
    [
      "Total";
      string_of_int (a.t1_total + b.t1_total);
      string_of_int (a.t1_incomplete + b.t1_incomplete);
      string_of_int (Option.value a.t1_sd_valid ~default:0);
      Printf.sprintf "%d (%d)" (a.t1_kgpt_valid + b.t1_kgpt_valid)
        (a.t1_kgpt_fixed + b.t1_kgpt_fixed);
    ]
  in
  Table.print
    ~align:[ Table.L; Table.R; Table.R; Table.R; Table.R ]
    ~header:[ ""; "# Total"; "# Incomplete"; "SyzDescribe # Valid"; "KernelGPT # Valid (Fixed)" ]
    [ row "Driver" t.drivers; row "Socket" t.sockets; total ]

(* ------------------------------------------------------------------ *)
(* Figure 7: missing-specification distribution                        *)
(* ------------------------------------------------------------------ *)

type histogram = { buckets : int array (* 10 deciles *); none_missing : int }

let fig7 (ctx : Suites.ctx) (kind : Corpus.Types.kind) : histogram =
  let buckets = Array.make 10 0 in
  let none_missing = ref 0 in
  List.iter
    (fun (e : Corpus.Types.entry) ->
      if e.kind = kind then begin
        let f = Baseline.Syzkaller_specs.missing_fraction e in
        if f <= 0.0 then incr none_missing
        else
          let b = min 9 (int_of_float (f *. 10.0)) in
          buckets.(b) <- buckets.(b) + 1
      end)
    ctx.entries;
  { buckets; none_missing = !none_missing }

let print_fig7 (ctx : Suites.ctx) =
  Table.section "Figure 7: Missing specification distribution (handlers per decile)";
  let render kind name =
    let h = fig7 ctx kind in
    let bar n = String.make (min 60 n) '#' in
    Printf.printf "%s (complete: %d handlers)\n" name h.none_missing;
    Array.iteri
      (fun i n ->
        Printf.printf "  %3d-%3d%% missing | %-4d %s\n" (i * 10) ((i + 1) * 10) n (bar n))
      h.buckets
  in
  render Corpus.Types.Driver "Drivers";
  render Corpus.Types.Socket "Sockets"

(* ------------------------------------------------------------------ *)
(* Table 2: newly generated syscall descriptions                       *)
(* ------------------------------------------------------------------ *)

type table2_row = { t2_syscalls : int; t2_types : int }

type table2 = {
  sd_driver : table2_row;
  kg_driver : table2_row;
  kg_socket : table2_row;
}

(** Syscalls/types in [spec] not already described by the module's manual
    spec. *)
let new_counts (e : Corpus.Types.entry) (spec : Syzlang.Ast.spec) : table2_row =
  let base =
    match Baseline.Syzkaller_specs.spec_of_entry e with
    | Some s -> s
    | None -> Syzlang.Ast.empty_spec e.name
  in
  {
    t2_syscalls = List.length (Syzlang.Merge.new_syscalls ~base spec);
    t2_types = List.length (Syzlang.Merge.new_types ~base spec);
  }

let table2 (ctx : Suites.ctx) : table2 =
  let sum rows =
    List.fold_left
      (fun acc r -> { t2_syscalls = acc.t2_syscalls + r.t2_syscalls; t2_types = acc.t2_types + r.t2_types })
      { t2_syscalls = 0; t2_types = 0 }
      rows
  in
  let incomplete kind =
    List.filter
      (fun (e : Corpus.Types.entry) ->
        e.kind = kind && Baseline.Syzkaller_specs.is_incomplete e)
      ctx.entries
  in
  let kgpt kind =
    sum
      (List.filter_map
         (fun (e : Corpus.Types.entry) ->
           Option.map (new_counts e) (Suites.kgpt_spec ctx e.name))
         (incomplete kind))
  in
  let sd =
    sum
      (List.filter_map
         (fun (e : Corpus.Types.entry) ->
           Option.map (new_counts e) (Suites.sd_spec ctx e.name))
         (incomplete Corpus.Types.Driver))
  in
  { sd_driver = sd; kg_driver = kgpt Corpus.Types.Driver; kg_socket = kgpt Corpus.Types.Socket }

let print_table2 (t : table2) =
  Table.section "Table 2: Newly generated syscall descriptions";
  Table.print
    ~align:[ Table.L; Table.R; Table.R; Table.R; Table.R ]
    ~header:[ ""; "SyzDescribe #Syscalls"; "#Types"; "KernelGPT #Syscalls"; "#Types" ]
    [
      [
        "Driver";
        string_of_int t.sd_driver.t2_syscalls;
        string_of_int t.sd_driver.t2_types;
        string_of_int t.kg_driver.t2_syscalls;
        string_of_int t.kg_driver.t2_types;
      ];
      [
        "Socket"; "N/A"; "N/A";
        string_of_int t.kg_socket.t2_syscalls;
        string_of_int t.kg_socket.t2_types;
      ];
      [
        "Total";
        string_of_int t.sd_driver.t2_syscalls;
        string_of_int t.sd_driver.t2_types;
        string_of_int (t.kg_driver.t2_syscalls + t.kg_socket.t2_syscalls);
        string_of_int (t.kg_driver.t2_types + t.kg_socket.t2_types);
      ];
    ]
