(** Machine-speed calibration.

    On a machine shared with other tenants, the whole machine slows down
    for seconds to minutes at a time: cache and core contention, not time
    slicing, so CPU-time clocks slow down too. The benchmark therefore
    samples a fixed probe through each set-up and each timed round, and
    scales that set-up's or round's times and rates by its own
    [window_slowdown]: the median probe time over the reference
    machine's. A probe next to the work tracks the work's slowdown much
    better than one run-wide factor does, because contention changes
    within a run.

    The probe sorts a preallocated array in place and updates a
    preallocated hashtable, using the standard library only. It
    allocates nothing, so neither the program's heap nor its garbage
    collector can move it: it moves only with the machine. (A probe that
    allocates tracked contention as well, but in some processes read up
    to 1.7x slow for the whole run, with the program's speed unchanged.
    A pointer chase over 32 MB tracked it no better than this one.) *)

(* the probe's median, in ms, on the reference machine (a 2-core x86-64
   VM when nothing else was running): it sets the unit of scaled values
   and cancels out when two commits are compared on one machine *)
let ref_ms = 4.2

let table = Hashtbl.create 512
let () = for i = 0 to 255 do Hashtbl.replace table i i done
let source = Array.init 4096 (fun i -> (i * 7919) land 65535)
let work = Array.make 4096 0

let kernel () =
  let acc = ref 0 in
  for r = 1 to 5 do
    Array.blit source 0 work 0 4096;
    Array.sort compare work;
    for i = 0 to 255 do
      Hashtbl.replace table i (Hashtbl.find table ((i + r) land 255) + 1)
    done;
    acc := !acc + work.(r)
  done;
  !acc

let all = ref [] (* every sample of the run, in ms *)
let window = ref [] (* the samples since [start] *)
let last_ns = ref 0

let sample () =
  let t0 = Timer.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = Timer.now_ns () in
  let ms = float_of_int (t1 - t0) /. 1e6 in
  all := ms :: !all;
  window := ms :: !window;
  last_ns := t1

(** Start a window: forget its samples and take three. *)
let start () =
  window := [];
  for _ = 1 to 3 do
    sample ()
  done

(** Take a sample if the last is 100 ms old. Call it between timed
    operations, so a window's samples are spread through its work. *)
let tick () = if Timer.now_ns () - !last_ns >= 100_000_000 then sample ()

let slowdown_of = function [] -> 1.0 | xs -> Metrics.median xs /. ref_ms

(** The window's median probe time over the reference's (1 before any
    sample). Above 1, the machine ran slower than the reference. *)
let window_slowdown () = slowdown_of !window

(** The same over the whole run. *)
let slowdown () = slowdown_of !all
