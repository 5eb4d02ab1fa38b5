(** Adaptive seed and mutation-operator scheduling (GPTFuzz's
    MCTS-explore policy, specialized to a flat corpus ring).

    [Uniform] reproduces the historical behavior: every corpus pick and
    operator pick is one RNG draw. [Ucb] replaces both with UCB1 argmax
    over the recorded statistics — unvisited slots first (in index
    order), then the slot maximizing [mean reward + sqrt(2 ln T / n)].
    UCB picks consume {e no} RNG words: selection is a pure function of
    the statistics, which are campaign state and round-trip through the
    checkpoint, so a resumed campaign schedules exactly like an
    uninterrupted one.

    Rewards are binary coverage-novelty integers (1 = the mutant reached
    a statement the campaign had never seen), so the statistics stay in
    exact integer arithmetic everywhere except the UCB score itself —
    and that score is recomputed from the integers on every pick, which
    keeps any [--jobs] value and any resume bit-identical. *)

type mode = Uniform | Ucb

let mode_to_string = function Uniform -> "uniform" | Ucb -> "ucb"

let mode_of_string = function
  | "uniform" -> Some Uniform
  | "ucb" -> Some Ucb
  | _ -> None

type t = {
  mode : mode;
  seed_visits : int array;  (** per corpus slot: times scheduled *)
  seed_reward : int array;  (** per corpus slot: novelty hits *)
  op_uses : int array;  (** per operator: times applied *)
  op_reward : int array;  (** per operator: novelty hits *)
  mutable seed_total : int;  (** all seed schedulings, monotone *)
  mutable op_total : int;  (** all operator applications, monotone *)
}

let create ~(mode : mode) ~(max_corpus : int) ~(n_ops : int) : t =
  {
    mode;
    seed_visits = Array.make (max 1 max_corpus) 0;
    seed_reward = Array.make (max 1 max_corpus) 0;
    op_uses = Array.make (max 1 n_ops) 0;
    op_reward = Array.make (max 1 n_ops) 0;
    seed_total = 0;
    op_total = 0;
  }

(* UCB1 over slots [0, n): unvisited slots first in index order (every
   fresh corpus entry gets scheduled at least once), then the classic
   exploration bound. Ties break to the lowest index, so the argmax is
   deterministic. *)
let ucb_argmax ~(visits : int array) ~(reward : int array) ~(total : int) (n : int) : int =
  let rec unvisited i = if i >= n then None else if visits.(i) = 0 then Some i else unvisited (i + 1) in
  match unvisited 0 with
  | Some i -> i
  | None ->
      let logt = log (float_of_int (max 1 total)) in
      let best = ref 0 and best_score = ref neg_infinity in
      for i = 0 to n - 1 do
        let v = float_of_int visits.(i) in
        let score = (float_of_int reward.(i) /. v) +. sqrt (2.0 *. logt /. v) in
        if score > !best_score then begin
          best := i;
          best_score := score
        end
      done;
      !best

(** Pick a corpus slot in [0, n). [Uniform] consumes one RNG word (the
    historical draw); [Ucb] consumes none. *)
let pick_seed (t : t) (r : Rng.t) ~(n : int) : int =
  match t.mode with
  | Uniform -> Rng.int r n
  | Ucb -> ucb_argmax ~visits:t.seed_visits ~reward:t.seed_reward ~total:t.seed_total (min n (Array.length t.seed_visits))

(** Pick a mutation operator index. Same draw contract as {!pick_seed}. *)
let pick_op (t : t) (r : Rng.t) : int =
  let n = Array.length t.op_uses in
  match t.mode with
  | Uniform -> Rng.int r n
  | Ucb -> ucb_argmax ~visits:t.op_uses ~reward:t.op_reward ~total:t.op_total n

(** Credit one mutation: the slot it drew from, the operator applied,
    and the binary coverage-novelty reward. *)
let record (t : t) ~(slot : int) ~(op : int) ~(reward : int) : unit =
  t.seed_visits.(slot) <- t.seed_visits.(slot) + 1;
  t.seed_reward.(slot) <- t.seed_reward.(slot) + reward;
  t.op_uses.(op) <- t.op_uses.(op) + 1;
  t.op_reward.(op) <- t.op_reward.(op) + reward;
  t.seed_total <- t.seed_total + 1;
  t.op_total <- t.op_total + 1

(** A corpus eviction replaced the program in [slot]: its statistics
    belong to the evicted program, so they reset (the totals stay
    monotone — they count schedulings, not live slots). *)
let reset_seed (t : t) (slot : int) : unit =
  t.seed_visits.(slot) <- 0;
  t.seed_reward.(slot) <- 0
