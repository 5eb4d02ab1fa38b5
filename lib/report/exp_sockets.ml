(** E7: per-socket comparison — the paper's Table 6 (Syzkaller vs
    KernelGPT; SyzDescribe cannot analyze sockets). *)

type cell = {
  c_sys : int;
  c_cov : float option;  (** mean over surviving reps; [None] if none survived *)
  c_crash : float;
  c_dropped : int;  (** repetitions quarantined by the pool *)
}

type row = { r_name : string; r_syzkaller : cell option; r_kernelgpt : cell option }

type table6 = {
  socket_rows : row list;
  t6_execs : int;  (** total program executions (feeds BENCH_*.json) *)
}

(* Sharded exactly like Table 5: one pool task per
   (socket, suite, repetition), machines cached per worker, cells merged
   in task-layout order (see Exp_drivers). *)

let table6 ?(reps = 3) ?(budget = 4000) ?(jobs = 1) ?sched (ctx : Suites.ctx) :
    table6 =
  let entries = Corpus.Registry.table6 () in
  let specs_of (e : Corpus.Types.entry) =
    [
      ("syz", Baseline.Syzkaller_specs.spec_of_entry e);
      ("kgpt", Suites.kgpt_spec ctx e.name);
    ]
  in
  let tasks =
    List.concat_map
      (fun (e : Corpus.Types.entry) ->
        List.concat_map
          (fun (tag, spec) ->
            match spec with
            | None -> []
            | Some spec ->
                List.init reps (fun r ->
                    {
                      Exp_drivers.tk_entry = e;
                      tk_suite = tag;
                      tk_spec = spec;
                      tk_rep = r + 1;
                      tk_seed_base = 7907;
                      tk_budget = budget;
                    }))
          (specs_of e))
      entries
  in
  let results =
    Kernelgpt.Pool.map_outcomes ~jobs
      ~label:(fun _ (tk : Exp_drivers.task) ->
        Printf.sprintf "table6:%s:%s:rep%d" tk.tk_entry.name tk.tk_suite tk.tk_rep)
      ~init:(fun () -> Hashtbl.create 8)
      ~f:(Exp_drivers.run_task ?sched) (Array.of_list tasks)
  in
  let cursor = ref 0 in
  let take spec =
    match spec with
    | None -> None
    | Some spec ->
        let per_rep = List.init reps (fun i -> results.(!cursor + i)) in
        cursor := !cursor + reps;
        let ok =
          List.filter_map
            (function Kernelgpt.Pool.Ok r -> Some r | Kernelgpt.Pool.Failed _ -> None)
            per_rep
        in
        let dropped = List.length per_rep - List.length ok in
        let covs = List.fold_left (fun acc (c, _, _) -> c :: acc) [] ok in
        let crashes = List.fold_left (fun acc (_, x, _) -> x :: acc) [] ok in
        let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs)) in
        Some
          {
            c_sys = Syzlang.Ast.count_syscalls spec;
            c_cov = (if ok = [] then None else Some (mean covs));
            c_crash = mean crashes;
            c_dropped = dropped;
          }
  in
  let rows =
    List.map
      (fun (e : Corpus.Types.entry) ->
        match specs_of e with
        | [ (_, manual); (_, kg) ] ->
            (* sequence the takes: the shared cursor makes evaluation
               order significant, and record fields evaluate in
               unspecified order *)
            let r_syzkaller = take manual in
            let r_kernelgpt = take kg in
            { r_name = e.display_name; r_syzkaller; r_kernelgpt }
        | suites ->
            failwith
              (Printf.sprintf
                 "Exp_sockets.table6: entry %s produced %d suites, expected 2 \
                  (syzkaller, kernelgpt)"
                 e.name (List.length suites)))
      entries
  in
  {
    socket_rows = List.sort (fun a b -> compare a.r_name b.r_name) rows;
    t6_execs =
      Array.fold_left
        (fun acc r ->
          match r with
          | Kernelgpt.Pool.Ok (_, _, e) -> acc + e
          | Kernelgpt.Pool.Failed _ -> acc)
        0 results;
  }

(* degraded markers: "123*" = mean over the surviving repetitions only,
   "?" = every repetition of the cell was quarantined *)
let cell_strings = function
  | Some c ->
      [
        string_of_int c.c_sys;
        (match (c.c_cov, c.c_dropped) with
        | Some f, 0 -> Printf.sprintf "%.0f" f
        | Some f, _ -> Printf.sprintf "%.0f*" f
        | None, _ -> "?");
        Table.fmt_float c.c_crash;
      ]
  | None -> [ "-"; "-"; "-" ]

let cell_dropped = function Some c -> c.c_dropped | None -> 0

let print_table6 (t : table6) =
  Table.section "Table 6: Socket specification comparison";
  let row_dropped r = cell_dropped r.r_syzkaller + cell_dropped r.r_kernelgpt in
  let rows =
    List.map
      (fun r ->
        if row_dropped r > 0 then Exp_resilience.note_degraded ();
        (r.r_name :: cell_strings r.r_syzkaller) @ cell_strings r.r_kernelgpt)
      t.socket_rows
  in
  let sum f =
    List.fold_left
      (fun (s, c, x) r ->
        match f r with
        | Some cell ->
            (s + cell.c_sys, c +. Option.value cell.c_cov ~default:0.0, x +. cell.c_crash)
        | None -> (s, c, x))
      (0, 0.0, 0.0) t.socket_rows
  in
  let s1, c1, x1 = sum (fun r -> r.r_syzkaller) in
  let s2, c2, x2 = sum (fun r -> r.r_kernelgpt) in
  let total =
    [
      "Total"; string_of_int s1; Printf.sprintf "%.0f" c1; Table.fmt_float x1;
      string_of_int s2; Printf.sprintf "%.0f" c2; Table.fmt_float x2;
    ]
  in
  Table.print
    ~align:[ Table.L; Table.R; Table.R; Table.R; Table.R; Table.R; Table.R ]
    ~header:[ ""; "Syz #Sys"; "Syz Cov"; "Syz Crash"; "KGPT #Sys"; "KGPT Cov"; "KGPT Crash" ]
    (rows @ [ total ]);
  if List.exists (fun r -> row_dropped r > 0) t.socket_rows then
    Printf.printf
      "* = mean over surviving reps; ? = all reps quarantined by the worker pool\n"
