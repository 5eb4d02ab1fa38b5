(** Aggregate timers for one layer's public entry point: call count,
    monotonic nanoseconds and minor-heap words, summed over calls. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = { mutable calls : int; mutable ns : int; mutable words : float }

let create () = { calls = 0; ns = 0; words = 0.0 }

(** Run [f], charging its wall time and minor words to [t]. *)
let time t f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  t.calls <- t.calls + 1;
  t.ns <- t.ns + (t1 - t0);
  t.words <- t.words +. (w1 -. w0);
  r

(** Fold [u]'s totals into [t]. *)
let add t u =
  t.calls <- t.calls + u.calls;
  t.ns <- t.ns + u.ns;
  t.words <- t.words +. u.words

(** [time] inside a bench span, so the program's own spans nest under
    the layer call that caused them. *)
let layer t ~kind name f = Obs.with_span ~kind name (fun () -> time t f)

let per_call t x = if t.calls = 0 then 0.0 else x /. float_of_int t.calls
let mean_ns t = per_call t (float_of_int t.ns)
let mean_us t = per_call t (float_of_int t.ns /. 1e3)
let mean_ms t = per_call t (float_of_int t.ns /. 1e6)
let mean_words t = per_call t t.words
