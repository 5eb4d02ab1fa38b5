(** End-to-end KernelGPT pipeline (§3): extraction → iterative stages →
    specification synthesis → validation and repair. *)

type mode =
  | Iterative  (** the paper's multi-stage Algorithm 1 *)
  | All_in_one  (** the §5.2.3 ablation: everything in one prompt *)

type outcome = {
  o_entry : string;  (** registry key of the module *)
  o_spec : Syzlang.Ast.spec option;
  o_valid : bool;  (** passed validation intact (possibly after repair) *)
  o_usable : bool;
      (** the final spec validates, possibly after pruning unrepairable
          descriptions — usable for fuzzing even when not "valid" *)
  o_direct_valid : bool;  (** passed validation before any repair *)
  o_repaired : bool;  (** repair changed the spec *)
  o_errors : Syzlang.Validate.error list;  (** errors that remain *)
  o_queries : int;  (** oracle queries spent on this module *)
  o_tokens : int;  (** prompt tokens spent on this module *)
  o_iterations : int;  (** Algorithm 1 rounds across all stages *)
  o_faults : int;  (** transport faults injected into this module's queries *)
  o_retries : int;  (** attempts retried after a fault *)
  o_recovered : int;  (** queries that succeeded after ≥ 1 fault *)
  o_degraded : int;
      (** queries that never succeeded — the module was built from
          partial results (zero whenever fault injection is off) *)
}

val failed_outcome : string -> outcome

(** Validate a spec against the kernel index and repair it by consulting
    the oracle with the error messages, up to three rounds. Returns the
    (possibly fixed) spec, whether it now validates, whether any repair
    was applied, and the remaining errors. Repair queries go through
    [client] when given (defaults to a pass-through around [oracle]). A
    round in which every query degraded (the fault-tolerant client gave
    up) is refunded rather than spent — it does not count against the
    three rounds, and up to three such skips are tolerated before the
    loop gives up; a round the oracle answered without improving
    anything ends the loop early. *)
val validate_and_repair :
  ?client:Client.t ->
  oracle:Oracle.t ->
  kernel:Csrc.Index.t ->
  Syzlang.Ast.spec ->
  Syzlang.Ast.spec * bool * bool * Syzlang.Validate.error list

(** Drop the descriptions validation still rejects, iterating to a
    fixpoint: an unrepairable resource takes the syscalls returning it
    with it, and a dropped type orphans its users in later rounds. *)
val prune :
  kernel:Csrc.Index.t ->
  Syzlang.Ast.spec ->
  Syzlang.Ast.spec * Syzlang.Validate.error list

(** Generate a specification for one corpus module (driver or socket).
    The module's definitions come from [kernel]'s own parse of it
    ({!Extractor.kernel_module_index}); its source is not parsed again.
    [kernel] must therefore be the index of a machine booted with
    [entry] ([Vkernel.Machine.boot]); otherwise [Invalid_argument]
    naming the module and its file is raised. All oracle traffic goes
    through [client] when given — fault injection, retries, budgets
    (defaults to a pass-through around [oracle], which leaves behavior
    and output bit-for-bit unchanged). *)
val run :
  ?mode:mode ->
  ?client:Client.t ->
  oracle:Oracle.t ->
  kernel:Csrc.Index.t ->
  Corpus.Types.entry ->
  outcome
