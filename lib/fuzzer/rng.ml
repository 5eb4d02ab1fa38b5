(** Deterministic splitmix64 PRNG so campaigns are reproducible. *)

(* The whole generator is one int64, so checkpoints can freeze and
   resume the exact stream. It lives in 8 bytes rather than a mutable
   int64 field, which would box every state it stores. *)
type t = Bytes.t

let set_state r s = Bytes.set_int64_le r 0 s

let make seed =
  let r = Bytes.create 8 in
  set_state r (Int64.of_int ((seed * 2654435761) + 12345));
  r

let state r = Bytes.get_int64_le r 0

(* Inlined into each draw below, so the state and the word stay
   unboxed: a draw allocates nothing. *)
let[@inline] next r =
  let z = Int64.add (Bytes.get_int64_le r 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le r 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 r = next r

(** Uniform int in [0, n).

    The [0x7fffffffffffffL] mask (2^55 - 1) is load-bearing: it keeps
    the dividend non-negative (so [Int64.rem] returns a value in
    [0, n)) while staying well inside OCaml's 63-bit native [int], and
    every seeded campaign stream — checkpoints, golden outputs, the
    perfbench digests — is derived from draws reduced through
    it. Changing the mask width silently reseeds the whole corpus;
    see the golden-value tests in [test/test_fuzzer.ml]. *)
let int r n =
  if n <= 0 then 0
  else Int64.to_int (Int64.rem (Int64.logand (next r) 0x7fffffffffffffL) (Int64.of_int n))

(** Uniform int64 in [lo, hi], inclusive, without overflow on wide
    ranges. Always consumes exactly one stream word, like {!int} on a
    positive bound, so generators built on either draw identically.

    For narrow ranges (span representable as a positive [int]) this
    reproduces {!int}'s historical values bit-for-bit; wide ranges used
    to wrap negative in [Int64.to_int (hi - lo) + 1] and collapse every
    draw to [lo]. *)
let int64_in_range r ~lo ~hi =
  if Int64.compare hi lo < 0 then begin
    (* degenerate spec range: keep the draw so streams stay aligned *)
    ignore (next_int64 r);
    lo
  end
  else
    let span = Int64.sub hi lo in
    if Int64.compare span 0L >= 0 && Int64.compare span (Int64.of_int max_int) < 0 then
      Int64.add lo (Int64.of_int (int r (Int64.to_int span + 1)))
    else
      let n = Int64.add span 1L in
      if Int64.equal n 0L then next_int64 r (* full 64-bit range *)
      else Int64.add lo (Int64.unsigned_rem (next_int64 r) n)

let bool r = int r 2 = 0

let pct r p = int r 100 < p

let pick r = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int r (List.length xs))

(* Boundary values for [fuzz_int], hoisted to a static array: every
   draw used to rebuild this as a list and walk it twice (List.length +
   List.nth). The values and their order are frozen — the index drawn
   by [int r 26] below is part of every seeded campaign stream (see the
   golden pins in test/test_fuzzer.ml). *)
let interesting =
  [| 0L; 1L; 2L; 3L; 4L; 7L; 8L; 16L; 64L; 100L; 127L; 128L; 255L; 256L; 512L; 1024L;
     4096L; 65535L; 65536L; 0xffffL; 0x10000L; 0x7fffffffL; 0x80000000L; 0xfffffffeL;
     0xffffffffL; -1L |]

(** A fuzzing-friendly integer for the given bit width: mostly boundary
    and small values, sometimes fully random. *)
let fuzz_int r ~(bits : int) : int64 =
  let mask =
    if bits >= 64 then -1L else Int64.sub (Int64.shift_left 1L bits) 1L
  in
  let v =
    match int r 10 with
    | 0 | 1 | 2 | 3 -> interesting.(int r (Array.length interesting))
    | 4 | 5 | 6 -> Int64.of_int (int r 32)
    | _ -> next_int64 r
  in
  Int64.logand v mask

(** Short strings drawn from a small pool so that name-keyed kernel state
    (device tables, pid lists) sees collisions across calls. *)
let string_pool = [ "vol0"; "vol1"; "dev"; "test"; "a"; "x0"; "snap"; "data"; "" ]

let fuzz_string r ~(max_len : int) : string =
  match int r 10 with
  | 0 | 1 | 2 | 3 | 4 | 5 | 6 -> pick r string_pool
  | 7 -> String.make (min max_len (1 + int r 8)) (Char.chr (97 + int r 26))
  | _ ->
      let len = min max_len (int r 16) in
      String.init len (fun _ -> Char.chr (int r 256))
