(** Fixed log-bucket histogram of nanosecond latencies.

    Each octave [2^o, 2^(o+1)) is split into 64 equal buckets, so a
    reported percentile (the bucket midpoint) is within half a bucket,
    about 0.8%, of the true sample. The bucket array is allocated once;
    {!record} allocates nothing, which keeps the benchmark's own cost out
    of the per-operation word counts it reports. *)

let sub_bits = 6
let per_octave = 1 lsl sub_bits

(* 2^48 ns is about three days: no operation the benchmark times gets near *)
let octaves = 48
let n_buckets = octaves * per_octave

type t = { counts : int array; mutable n : int; mutable sum_ns : int }

let create () = { counts = Array.make n_buckets 0; n = 0; sum_ns = 0 }

(* index of the highest set bit of [v > 0] *)
let msb v =
  let v = ref v and r = ref 0 in
  if !v lsr 32 <> 0 then begin v := !v lsr 32; r := 32 end;
  if !v lsr 16 <> 0 then begin v := !v lsr 16; r := !r + 16 end;
  if !v lsr 8 <> 0 then begin v := !v lsr 8; r := !r + 8 end;
  if !v lsr 4 <> 0 then begin v := !v lsr 4; r := !r + 4 end;
  if !v lsr 2 <> 0 then begin v := !v lsr 2; r := !r + 2 end;
  if !v lsr 1 <> 0 then r := !r + 1;
  !r

let bucket ns =
  let v = if ns < 1 then 1 else ns in
  let o = msb v in
  let sub =
    if o >= sub_bits then (v lsr (o - sub_bits)) land (per_octave - 1)
    else (v lsl (sub_bits - o)) land (per_octave - 1)
  in
  min ((o * per_octave) + sub) (n_buckets - 1)

let record h ns =
  let i = bucket ns in
  h.counts.(i) <- h.counts.(i) + 1;
  h.n <- h.n + 1;
  h.sum_ns <- h.sum_ns + ns

(** Midpoint of bucket [i], in ns. *)
let value_of i =
  let o = i / per_octave and sub = i mod per_octave in
  ldexp (1.0 +. ((float_of_int sub +. 0.5) /. float_of_int per_octave)) o

(** The [q]-quantile (0 < q <= 1) in ns: the midpoint of the bucket
    holding the sample of rank [ceil (q * n)]. 0 when empty. *)
let percentile h q =
  if h.n = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.n))) in
    let rec go i acc =
      let acc = acc + h.counts.(i) in
      if acc >= rank || i = n_buckets - 1 then value_of i else go (i + 1) acc
    in
    go 0 0
  end
