(** The named mutation-operator ensemble (GPTFuzz's mutator split,
    applied to Syzkaller-style programs).

    Historically {!Proggen} owned one anonymous 5-way mutation switch;
    two of its structural arms silently corrupted the resource
    dependencies the generator builds ([P_result] indices that point at
    a producer call earlier in the program). Each operator now has a
    name, an explicit contract, and — the point — preserves the
    dependency invariant: {e every [P_result i] points strictly backward
    at a call produced from a [ret]-carrying spec entry}.

    All operators consume RNG words in a count that depends only on the
    input program (never on hidden state), so campaigns stay
    deterministic and checkpoint/resume exact. *)

open Vkernel.Machine

type op =
  | Append_calls  (** append a freshly generated block, shifting its refs *)
  | Drop_tail  (** drop the last call (no-op on 1-call programs) *)
  | Regen_payload  (** regenerate one call's pointer payloads *)
  | Duplicate_call  (** duplicate one call in place (double-ioctl bugs) *)
  | Swap_adjacent  (** swap two adjacent calls unless it breaks a dependency *)
  | Splice  (** cross over with a second corpus program *)
  | Insert_dependent  (** append a spec call whose resources the program produces *)

(* the first five are the historical switch (in its case order), the
   last two are new; the array index is the scheduler's operator id *)
let all = [| Append_calls; Drop_tail; Regen_payload; Duplicate_call; Swap_adjacent; Splice; Insert_dependent |]

let name = function
  | Append_calls -> "append-calls"
  | Drop_tail -> "drop-tail"
  | Regen_payload -> "regen-payload"
  | Duplicate_call -> "duplicate-call"
  | Swap_adjacent -> "swap-adjacent"
  | Splice -> "splice"
  | Insert_dependent -> "insert-dependent-call"

let shift_refs ~(by : int) (p : prog) : prog =
  List.map
    (fun (c : call) ->
      {
        c with
        c_args =
          List.map (function P_result i -> P_result (i + by) | a -> a) c.c_args;
      })
    p

let append_calls (t : Proggen.t) (r : Rng.t) (prog : prog) : prog =
  let extra = Proggen.generate t r ~max_len:2 () in
  (* the appended block's refs are self-contained: shifting them by the
     prefix length keeps them pointing inside the block *)
  prog @ shift_refs ~by:(List.length prog) extra

let drop_tail (prog : prog) : prog =
  let rec drop_last = function [] | [ _ ] -> [] | c :: rest -> c :: drop_last rest in
  match prog with [] | [ _ ] -> prog | _ -> drop_last prog

let regen_payload (t : Proggen.t) (r : Rng.t) (prog : prog) : prog =
  let victim = Rng.int r (List.length prog) in
  List.mapi
    (fun i (c : call) ->
      if i <> victim then c
      else
        {
          c with
          c_args =
            List.map
              (function
                | P_data _ -> P_data (Proggen.retype_payload t r c.c_name)
                (* P_int args are consts/lengths from the spec: Syzkaller
                   never mutates those *)
                | a -> a)
              c.c_args;
        })
    prog

(* Duplicating call [v] inserts one call at index v+1, so every
   reference at-or-after v in the calls that follow must shift by one —
   the historical operator skipped the shift and left later consumers
   pointing one call too early. The copies' own refs are strictly below
   v (the input is well-formed) and stay put. *)
let duplicate_call (r : Rng.t) (prog : prog) : prog =
  let v = Rng.int r (List.length prog) in
  let shift (c : call) =
    {
      c with
      c_args =
        List.map (function P_result j when j >= v -> P_result (j + 1) | a -> a) c.c_args;
    }
  in
  List.concat
    (List.mapi
       (fun i c -> if i = v then [ c; c ] else if i > v then [ shift c ] else [ c ])
       prog)

(* Swapping calls i-1 and i is refused when call i consumes call i-1's
   result (the swap would move the producer after its consumer); the
   refusing branch still consumed the index draw, so the RNG stream is
   identical whether or not the swap lands. An accepted swap remaps
   references in the calls after i: i-1 <-> i, because the two producers
   traded places. *)
let swap_adjacent (r : Rng.t) (prog : prog) : prog =
  let n = List.length prog in
  if n < 2 then prog
  else begin
    let i = 1 + Rng.int r (n - 1) in
    let arr = Array.of_list prog in
    let consumes_prev =
      List.exists (function P_result j -> j = i - 1 | _ -> false) arr.(i).c_args
    in
    if consumes_prev then prog
    else begin
      let tmp = arr.(i) in
      arr.(i) <- arr.(i - 1);
      arr.(i - 1) <- tmp;
      let remap (c : call) =
        {
          c with
          c_args =
            List.map
              (function
                | P_result j when j = i - 1 -> P_result i
                | P_result j when j = i -> P_result (i - 1)
                | a -> a)
              c.c_args;
        }
      in
      for k = i + 1 to n - 1 do
        arr.(k) <- remap arr.(k)
      done;
      Array.to_list arr
    end
  end

(* Keep a random prefix of the program and graft the whole partner onto
   it; the partner's refs are self-contained, so shifting them by the
   prefix length preserves the invariant on both sides of the seam. *)
let splice (r : Rng.t) ~(partner : unit -> prog) (prog : prog) : prog =
  let b = partner () in
  let k = 1 + Rng.int r (List.length prog) in
  List.filteri (fun i _ -> i < k) prog @ shift_refs ~by:k b

(* every resource of [req] from position [i] on has a producer *)
let rec all_produced (latest : int array) (req : int array) i =
  i >= Array.length req || (latest.(req.(i)) >= 0 && all_produced latest req (i + 1))

(* the [k]-th (0-based) candidate among the dependent syscalls from
   position [j] on *)
let rec nth_candidate (t : Proggen.t) k j =
  let idx = t.Proggen.dependents.(j) in
  if not (all_produced t.Proggen.latest t.Proggen.required.(idx) 0) then
    nth_candidate t k (j + 1)
  else if k = 0 then idx
  else nth_candidate t (k - 1) (j + 1)

(* Append one spec syscall whose every required resource is already
   produced by the program: the inserted call's P_result args point at
   the latest producer of each resource. The latest-producer map keys on
   the machine-level call name, which over-approximates across spec
   variants of one call — safe, because any call sharing a producer's
   name materializes from a ret-carrying spec entry. Candidates are the
   syscalls with requirements, in ascending spec order, and one draw
   picks among them. No candidate, no draw: the no-op depends only on
   the program, so replay is exact.

   The map is the generator's scratch array (resource id -> latest
   producer, -1 outside this function), so the operator costs a pass
   over the program plus an integer scan of the dependent syscalls,
   however many producers the suite has. *)
let insert_dependent (t : Proggen.t) (r : Rng.t) (prog : prog) : prog =
  let latest = t.Proggen.latest in
  let produced (c : call) =
    match Hashtbl.find_opt t.Proggen.produces c.c_name with Some ids -> ids | None -> [||]
  in
  List.iteri (fun i c -> Array.iter (fun id -> latest.(id) <- i) (produced c)) prog;
  let deps = t.Proggen.dependents in
  let ncand = ref 0 in
  for j = 0 to Array.length deps - 1 do
    if all_produced latest t.Proggen.required.(deps.(j)) 0 then incr ncand
  done;
  let chosen =
    if !ncand = 0 then None
    else begin
      let idx = nth_candidate t (Rng.int r !ncand) 0 in
      (* the chosen call's arguments only look up its own requirements *)
      let resource_at =
        Array.fold_right
          (fun id acc -> (t.Proggen.res_names.(id), latest.(id)) :: acc)
          t.Proggen.required.(idx) []
      in
      Some (idx, resource_at)
    end
  in
  List.iter (fun c -> Array.iter (fun id -> latest.(id) <- -1) (produced c)) prog;
  match chosen with
  | None -> prog
  | Some (idx, resource_at) ->
      let args = Proggen.args_of_index t r ~resource_at idx in
      prog @ [ { c_name = t.Proggen.syscalls.(idx).Syzlang.Ast.call_name; c_args = args } ]

(** Apply one operator. An empty program regenerates from scratch and an
    over-long one trims back to a window regardless of the operator
    (programs must not grow without bound); both pre-cases are functions
    of the program alone, so the scheduler's pick stays deterministic. *)
let apply (t : Proggen.t) (r : Rng.t) (op : op) ~(partner : unit -> prog) (prog : prog) :
    prog =
  match prog with
  | [] -> Proggen.generate t r ()
  | _ when List.length prog > 40 -> List.filteri (fun i _ -> i < 30) prog
  | _ -> (
      match op with
      | Append_calls -> append_calls t r prog
      | Drop_tail -> drop_tail prog
      | Regen_payload -> regen_payload t r prog
      | Duplicate_call -> duplicate_call r prog
      | Swap_adjacent -> swap_adjacent r prog
      | Splice -> splice r ~partner prog
      | Insert_dependent -> insert_dependent t r prog)

(** Uniform-random mutation: one draw picks the operator, then
    {!apply}. This is the historical [Proggen.mutate] entry point with
    the ensemble (and its bugfixes) underneath; self-splice stands in
    for the corpus partner. *)
let mutate (t : Proggen.t) (r : Rng.t) (prog : prog) : prog =
  match prog with
  | [] -> Proggen.generate t r ()
  | _ when List.length prog > 40 -> List.filteri (fun i _ -> i < 30) prog
  | _ -> apply t r all.(Rng.int r (Array.length all)) ~partner:(fun () -> prog) prog
