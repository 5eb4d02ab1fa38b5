(** Resilience table (fault-injection runs): how much of the injected
    oracle-transport trouble the fault-tolerant client absorbed, per
    module and in total. Only printed when a fault plan or a query
    budget is active — un-faulted reports are byte-identical to runs
    that predate fault injection. *)

type row = {
  r_entry : string;
  r_faults : int;
  r_retries : int;
  r_recovered : int;
  r_degraded : int;
}

type t = {
  rows : row list;  (** fault-touched modules, in entry order *)
  modules : int;  (** modules generated (fault-touched or not) *)
  total_faults : int;
  total_retries : int;
  total_recovered : int;
  total_degraded : int;  (** degraded queries across the run *)
  degraded_modules : int;  (** modules with at least one degraded query *)
}

let collect (ctx : Suites.ctx) : t =
  let rows =
    List.filter_map
      (fun (e : Corpus.Types.entry) ->
        match Suites.kgpt_outcome ctx e.name with
        | Some (o : Kernelgpt.Pipeline.outcome)
          when o.o_faults > 0 || o.o_degraded > 0 ->
            Some
              {
                r_entry = e.name;
                r_faults = o.o_faults;
                r_retries = o.o_retries;
                r_recovered = o.o_recovered;
                r_degraded = o.o_degraded;
              }
        | _ -> None)
      (Suites.generation_targets ctx.entries)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  {
    rows;
    modules = Hashtbl.length ctx.kgpt;
    total_faults = sum (fun r -> r.r_faults);
    total_retries = sum (fun r -> r.r_retries);
    total_recovered = sum (fun r -> r.r_recovered);
    total_degraded = sum (fun r -> r.r_degraded);
    degraded_modules = List.length (List.filter (fun r -> r.r_degraded > 0) rows);
  }

(** Executor-side resilience (fuzzing under [--exec-faults]): what the
    {!Fuzzer.Supervisor} absorbed across every campaign of a report run.
    Campaigns shard over the pool in a fixed order, so the sums are
    deterministic across [--jobs] values. *)
type exec_totals = {
  e_campaigns : int;
  e_execs : int;  (** program executions performed (feeds BENCH_*.json) *)
  e_restarts : int;  (** executor instances rebooted after wedging *)
  e_lost : int;  (** executions lost to injected wedges *)
}

let exec_empty = { e_campaigns = 0; e_execs = 0; e_restarts = 0; e_lost = 0 }

let exec_add (t : exec_totals) (r : Fuzzer.Campaign.result) : exec_totals =
  {
    e_campaigns = t.e_campaigns + 1;
    e_execs = t.e_execs + r.Fuzzer.Campaign.executions;
    e_restarts = t.e_restarts + r.Fuzzer.Campaign.exec_restarts;
    e_lost = t.e_lost + r.Fuzzer.Campaign.exec_lost;
  }

let exec_sum (a : exec_totals) (b : exec_totals) : exec_totals =
  {
    e_campaigns = a.e_campaigns + b.e_campaigns;
    e_execs = a.e_execs + b.e_execs;
    e_restarts = a.e_restarts + b.e_restarts;
    e_lost = a.e_lost + b.e_lost;
  }

let print_exec (t : exec_totals) =
  Table.section "Resilience (executor fault injection)";
  Printf.printf
    "%d campaigns: %d executor reboots, %d executions lost to injected wedges.\n"
    t.e_campaigns t.e_restarts t.e_lost

(* --------------------------------------------------------------- *)
(* Worker-pool resilience (report runs under [--pool-faults])       *)
(* --------------------------------------------------------------- *)

(* Tables register the degraded rows they actually rendered, so the
   summary can report "quarantined tasks -> degraded rows" without
   re-deriving table layout here. *)
let degraded_row_count = ref 0

let reset_pool_notes () = degraded_row_count := 0
let note_degraded ?(rows = 1) () = degraded_row_count := !degraded_row_count + rows

type pool_totals = {
  p_injected : int;  (** injected worker faults (crashes + stalls) *)
  p_crashes : int;
  p_stalls : int;
  p_retries : int;  (** failed attempts that were retried *)
  p_quarantined : int;  (** tasks that exhausted their retry budget *)
  p_degraded_rows : int;  (** table rows rendered with degraded cells *)
}

(* Everything here is a pure function of the fault plan (hash of
   label/attempt), never of scheduling, so the section below is safe to
   print on stdout: byte-identical for any [--jobs]. Worker deaths,
   which depend on how many workers ran, stay on stderr
   ({!Pool.report}). *)
let pool_totals () : pool_totals =
  let s = Kernelgpt.Pool.stats () in
  {
    p_injected = s.s_faults_injected;
    p_crashes = s.s_faults_injected - s.s_stalls;
    p_stalls = s.s_stalls;
    p_retries = s.s_retries;
    p_quarantined = s.s_quarantined;
    p_degraded_rows = !degraded_row_count;
  }

let print_pool ?(degraded_modules = []) (t : pool_totals) =
  Table.section "Resilience (worker pool fault injection)";
  Printf.printf
    "%d injected worker faults (%d task crashes, %d stalls); %d retries, %d tasks \
     quarantined.\n"
    t.p_injected t.p_crashes t.p_stalls t.p_retries t.p_quarantined;
  if t.p_quarantined = 0 then
    Printf.printf
      "All injected pool faults recovered within the retry budget; every table is \
       complete.\n"
  else begin
    Printf.printf
      "%d quarantined task(s) left %d degraded table row(s); the run completed on the \
       survivors.\n"
      t.p_quarantined t.p_degraded_rows;
    List.iter
      (fun (name, why) -> Printf.printf "  degraded pipeline: %s (%s)\n" name why)
      degraded_modules
  end

let print (t : t) =
  Table.section "Resilience (oracle fault injection)";
  let row r =
    [
      r.r_entry;
      Table.fmt_int r.r_faults;
      Table.fmt_int r.r_retries;
      Table.fmt_int r.r_recovered;
      Table.fmt_int r.r_degraded;
    ]
  in
  let total =
    [
      "TOTAL";
      Table.fmt_int t.total_faults;
      Table.fmt_int t.total_retries;
      Table.fmt_int t.total_recovered;
      Table.fmt_int t.total_degraded;
    ]
  in
  Table.print
    ~align:[ Table.L; Table.R; Table.R; Table.R; Table.R ]
    ~header:[ "module"; "faults"; "retries"; "recovered"; "degraded" ]
    (List.map row t.rows @ [ total ]);
  if t.total_degraded = 0 then
    Printf.printf
      "All injected transient faults recovered (0 degraded modules out of %d).\n"
      t.modules
  else
    Printf.printf
      "%d degraded queries left %d of %d modules on partial results.\n"
      t.total_degraded t.degraded_modules t.modules
