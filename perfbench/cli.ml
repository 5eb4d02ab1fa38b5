(** Strict command-line parsing: an unknown flag, a flag given twice, a
    missing value or a malformed value is an error naming the flag. *)

let workloads = [ "specgen-cold"; "specgen-warm"; "fuzz-kernel"; "fuzz-module" ]

type t = {
  workload : string option;
  seed : int;
  seconds : int;
  trace : bool;
  out : string option;
  regen_golden : bool;
}

let usage =
  "usage: perf.exe --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--out FILE]\n\
  \       perf.exe --regen-golden\n\
   workloads: " ^ String.concat ", " workloads

let nat flag v =
  match int_of_string_opt v with
  | Some n when n >= 0 && String.for_all (function '0' .. '9' -> true | _ -> false) v -> Ok n
  | _ -> Error (Printf.sprintf "%s %s: expected a non-negative integer" flag v)

let default = { workload = None; seed = 1; seconds = 10; trace = false; out = None; regen_golden = false }

let parse (args : string list) : (t, string) result =
  let ( let* ) = Result.bind in
  let rec go seen acc = function
    | [] -> Ok acc
    | "--regen-golden" :: _ -> Error "--regen-golden: takes no other argument"
    | flag :: _ when List.mem flag seen -> Error (flag ^ ": given twice")
    | (("--workload" | "--seed" | "--seconds" | "--trace" | "--out") as flag) :: rest -> (
        match rest with
        | [] -> Error (flag ^ ": missing value")
        | v :: _ when String.starts_with ~prefix:"--" v -> Error (flag ^ ": missing value")
        | v :: rest ->
            let* acc =
              match flag with
              | "--workload" ->
                  if List.mem v workloads then Ok { acc with workload = Some v }
                  else Error (Printf.sprintf "--workload %s: unknown workload" v)
              | "--seed" -> Result.map (fun n -> { acc with seed = n }) (nat flag v)
              | "--seconds" -> Result.map (fun n -> { acc with seconds = n }) (nat flag v)
              | "--trace" -> (
                  match v with
                  | "0" -> Ok { acc with trace = false }
                  | "1" -> Ok { acc with trace = true }
                  | _ -> Error (Printf.sprintf "--trace %s: expected 0 or 1" v))
              | _ -> Ok { acc with out = Some v }
            in
            go (flag :: seen) acc rest)
    | arg :: _ -> Error (arg ^ ": unknown argument")
  in
  match args with
  | [ "--regen-golden" ] -> Ok { default with regen_golden = true }
  | _ ->
      let* t = go [] default args in
      if t.workload = None then Error "--workload is required" else Ok t
