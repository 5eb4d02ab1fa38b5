(* Allocation pins: deterministic minor-word counts that bound a layer's
   allocation in [dune runtest]. *)

(* Words of [f ()] run again after one warm-up run of itself, in a fresh
   domain: the warm-up fills the domain's memos and whatever the process
   builds lazily, so the repeat run counts only [f]'s own work, which is
   deterministic. [minor] counts the minor heap's words. [direct_major]
   counts [major_words - promoted_words]: blocks over 256 words, which
   OCaml allocates straight into the major heap, where [Gc.minor_words]
   cannot see them. It is read with [Gc.counters] inside the domain that
   allocates. [Gc.quick_stat] adds a domain's major words in only at a
   major slice: for 1,000 [Hashtbl.create 512] (513,000 words) it read
   475,551 in the main domain and 537,624 in a fresh one, on OCaml 5.1.1. *)
type words = { minor : float; direct_major : float }

let repeat f =
  Domain.join
    (Domain.spawn (fun () ->
         ignore (Sys.opaque_identity (f ()));
         let direct () =
           let _, promoted, major = Gc.counters () in
           major -. promoted
         in
         let w0 = Gc.minor_words () and d0 = direct () in
         ignore (Sys.opaque_identity (f ()));
         let minor = Gc.minor_words () -. w0 in
         { minor; direct_major = direct () -. d0 }))

let repeat_words f = (repeat f).minor

(* Each bound sits about 3% above the count measured when the pin was
   set; a change that lowers a count tightens its pin. *)
let check ?(what = "minor words") ~bound words =
  if words > bound then
    Alcotest.failf "%.0f %s, over the pin of %.0f (+%.1f%%)" words what bound
      (100.0 *. (words -. bound) /. bound)

(* Minor collections and minor words of [f ()], started on an empty
   minor heap. A run that collects more often than its allocation fills
   the heap is forcing collections: [Array.make] or [Array.of_list] of a
   major-heap-sized array whose first element is young empties the
   minor heap first, promoting everything live in it. Word pins cannot
   see that cost, since the words are the same. *)
let collections f =
  Gc.minor ();
  let c0 = (Gc.quick_stat ()).minor_collections and w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let c1 = (Gc.quick_stat ()).minor_collections in
  (c1 - c0, Gc.minor_words () -. w0)

(* How many minor collections allocating [words] needs at least. *)
let heaps_filled words = int_of_float (words /. float_of_int (Gc.get ()).minor_heap_size)
