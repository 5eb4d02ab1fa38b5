(** Executor supervisor: syz-manager's VM lifecycle for campaigns. See
    supervisor.mli for the contract.

    Design notes:
    - the injected-fault decision is a pure hash of
      [(fault_seed, execution index)] — no mutable draw state — so the
      plan is independent of scheduling and survives checkpoint/resume
      without being part of the snapshot;
    - instance assignment is round-robin on the execution counter, for
      the same reason;
    - the only mutable state is per-instance health plus four counters,
      all plain data for the checkpoint. *)

type config = {
  instances : int;
  wedge_threshold : int;
  fault_rate : int;
  fault_seed : int;
}

let default = { instances = 4; wedge_threshold = 3; fault_rate = 0; fault_seed = 0 }

let parse_spec s : (config, string) result =
  let rate_of txt =
    match int_of_string_opt txt with
    | Some r when r >= 0 && r <= 100 -> Ok r
    | _ -> Error (Printf.sprintf "bad rate %S (expected an integer percent in 0-100)" txt)
  in
  match String.index_opt s ':' with
  | None -> Result.map (fun r -> { default with fault_rate = r }) (rate_of s)
  | Some i -> (
      let rate = String.sub s 0 i in
      let seed = String.sub s (i + 1) (String.length s - i - 1) in
      match (rate_of rate, int_of_string_opt seed) with
      | Ok r, Some sd -> Ok { default with fault_rate = r; fault_seed = sd }
      | (Error _ as e), _ -> e
      | Ok _, None -> Error (Printf.sprintf "bad seed %S (expected an integer)" seed))

let spec_to_string c =
  if c.fault_seed = 0 then string_of_int c.fault_rate
  else Printf.sprintf "%d:%d" c.fault_rate c.fault_seed

type t = {
  cfg : config;
  health : int array;  (** consecutive timed-out executions, per instance *)
  mutable reboots : int;
  mutable lost : int;
  mutable injected : int;
  mutable timeouts : int;
}

let create cfg =
  { cfg; health = Array.make (max 1 cfg.instances) 0; reboots = 0; lost = 0;
    injected = 0; timeouts = 0 }

let config t = t.cfg

let instance_for t ~exec = (max 0 (exec - 1)) mod Array.length t.health

(* splitmix64 finalizer: decorrelates consecutive execution indices *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let inject t ~exec =
  t.cfg.fault_rate > 0
  &&
  let z =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int t.cfg.fault_seed) 0x9E3779B97F4A7C15L)
         (Int64.mul (Int64.of_int exec) 0xBF58476D1CE4E5B9L))
  in
  Int64.to_int (Int64.rem (Int64.logand z 0x7fffffffffffffL) 100L) < t.cfg.fault_rate

let record t ~instance ~timed_out ~lost =
  if lost then begin
    t.lost <- t.lost + 1;
    t.injected <- t.injected + 1;
    Obs.Metrics.incr "fuzz.supervisor.injected_faults";
    Obs.Metrics.incr "fuzz.supervisor.lost_execs"
  end;
  if timed_out then begin
    t.timeouts <- t.timeouts + 1;
    t.health.(instance) <- t.health.(instance) + 1;
    if t.health.(instance) >= t.cfg.wedge_threshold then begin
      (* wedged: reboot the instance. The machine state is per-execution
         already (every exec_prog boots fresh), so the reboot is the
         health reset plus accounting — the corpus survives on the
         campaign side, exactly as it does for syz-manager. *)
      t.health.(instance) <- 0;
      t.reboots <- t.reboots + 1;
      Obs.Metrics.incr "fuzz.supervisor.reboots";
      Obs.event
        ~attrs:(fun () ->
          [
            ("instance", Obs.Json.Int instance);
            ("reboots", Obs.Json.Int t.reboots);
            ("lost", Obs.Json.Int t.lost);
          ])
        ~kind:"fuzz.supervisor.reboot"
        ("instance-" ^ string_of_int instance);
      true
    end
    else false
  end
  else begin
    t.health.(instance) <- 0;
    false
  end

type stats = {
  s_instances : int;
  s_reboots : int;
  s_lost : int;
  s_injected : int;
  s_timeouts : int;
}

let stats t =
  {
    s_instances = Array.length t.health;
    s_reboots = t.reboots;
    s_lost = t.lost;
    s_injected = t.injected;
    s_timeouts = t.timeouts;
  }

let dump t = (Array.to_list t.health, (t.reboots, t.lost, t.injected, t.timeouts))

let restore cfg ~health ~counters:(reboots, lost, injected, timeouts) =
  (* compare before [create], so the file's own list bounds the
     allocation *)
  let n = List.length health in
  if n <> max 1 cfg.instances then
    Error
      (Printf.sprintf "supervisor health has %d instances, config expects %d" n
         (max 1 cfg.instances))
  else begin
    let t = create cfg in
    List.iteri (fun i h -> t.health.(i) <- h) health;
    t.reboots <- reboots;
    t.lost <- lost;
    t.injected <- injected;
    t.timeouts <- timeouts;
    Ok t
  end
