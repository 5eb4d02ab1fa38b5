(* Allocation pins: deterministic minor-word counts that bound a layer's
   allocation in [dune runtest]. *)

(* Minor words of [f ()] run again after one warm-up run of itself, in a
   fresh domain: the warm-up fills the domain's memos and whatever the
   process builds lazily, so the repeat run counts only [f]'s own work,
   which is deterministic. *)
let repeat_words f =
  Domain.join
    (Domain.spawn (fun () ->
         ignore (Sys.opaque_identity (f ()));
         let w0 = Gc.minor_words () in
         ignore (Sys.opaque_identity (f ()));
         Gc.minor_words () -. w0))

(* Each bound sits about 3% above the count measured when the pin was
   set; a change that lowers a count tightens its pin. *)
let check ~bound words =
  if words > bound then
    Alcotest.failf "%.0f minor words, over the pin of %.0f (+%.1f%%)" words bound
      (100.0 *. (words -. bound) /. bound)
