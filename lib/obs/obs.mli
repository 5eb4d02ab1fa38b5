(** Structured tracing and metrics for the whole pipeline.

    Zero-overhead when disabled: every recording entry point first reads
    one atomic flag and returns (no allocation, no I/O, no formatting)
    when the corresponding subsystem is off, so instrumented hot paths
    cost one branch in a production run.

    {b Tracing} emits one JSONL record per span (or point event) to a
    caller-provided sink, the [--trace FILE] flag of the CLI and bench
    harness. Spans nest: each domain keeps its own span stack, a child's
    id is [<parent-id>.<child-index>], and pool tasks are rooted at
    [<pool-span>.<task-index>] — ids derive from submission order, never
    from wall clock or worker identity, so the {e span set} of a traced
    run is byte-identical for any [--jobs] value once the volatile ["t"]
    (timing) field is stripped.

    Record schema (one JSON object per line):
    {v
    {"id":"s0.3.1","parent":"s0.3","kind":"oracle.query","name":"identifier",
     "attrs":{...},"t":{"start":1.2,"dur_ms":0.8}}
    v}
    [id], [parent] (null for roots), [kind], [name], and [attrs] are
    deterministic; [t] carries wall-clock data ([start]/[dur_ms] for
    spans, [at] for events, plus [worker] for pool tasks) and is the
    only nondeterministic part.

    {b Metrics} is a process-wide registry of counters, gauges, and
    summary histograms, rendered on stderr at exit (the [--metrics]
    flag). Neither subsystem ever writes to stdout, preserving the
    byte-identical-stdout determinism contract of parallel runs. *)

(** Minimal JSON: just enough to emit and to re-parse/validate traces,
    with [parse (to_string v) = Ok v]. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  (** Parse one JSON value; trailing garbage is an error. *)
  val parse : string -> (t, string) result

  (** [member k (Obj kvs)] is the value bound to [k], if any. *)
  val member : string -> t -> t option
end

(** Durable record files: the one on-disk format of campaign checkpoints
    ([Fuzzer.Checkpoint]) and the oracle answer cache ([Cache]).

    A file is JSONL, one {!Json} value per line:
    {v
    {"format":"kernelgpt-checkpoint","version":2,...}   // header
    {...}                                                // one line per record
    {"checksum":"fnv1a64:0123456789abcdef"}
    v}
    The header names the format and its version (callers may add fields,
    such as the cache's ["schema"]). The trailer is an FNV-1a 64 digest
    of every byte before it. {!save} writes [FILE.tmp] and renames it
    over [FILE], so a crash mid-write never corrupts an existing file.
    Int64 payloads ride as decimal strings ({!j_int64}), so no value is
    squeezed through a 63-bit OCaml [int].

    {!load} refuses a path that is not a regular file (it never opens a
    FIFO), an unreadable, empty, unterminated, trailer-less or
    checksum-mismatched file, a foreign format tag and another version,
    each with a descriptive [Error] naming the file; only then does the
    caller's decoder see the header and the numbered record lines. *)
module Record_file : sig
  (** FNV-1a 64 of a string: the trailer's digest, also used by the
      oracle cache as its key digest. *)
  val fnv1a64 : string -> int64

  (** The FNV-1a 64 step over a running digest: [fnv1a64_add h s]
      continues [h] over the bytes of [s], so [fnv1a64 (a ^ b)] is
      [fnv1a64_add (fnv1a64 a) b] and [fnv1a64 ""] is the start. *)
  val fnv1a64_add : int64 -> string -> int64

  (** Write [contents] to [file ^ ".tmp"] and rename it over [file].
      Raises [Sys_error] on I/O failure, leaving no temp file behind, and
      on an existing [file] that is not a regular file, which it leaves
      as it is. *)
  val write_atomic : string -> string -> unit

  (** Write [header], one line per record and the checksum trailer,
      atomically. Returns the number of bytes before the trailer.
      Raises [Sys_error] on I/O failure. *)
  val save : file:string -> header:Json.t -> Json.t list -> int

  (** Refuse a record from inside a decoder: {!load} turns the message
      into [Error "FILE: msg"]. *)
  val bad : ('a, unit, string, 'b) format4 -> 'a

  (** An int64 payload as a decimal string, and back (refused with
      {!bad} if it is anything else). *)
  val j_int64 : int64 -> Json.t

  val int64_of : Json.t -> int64

  (** Parse a numbered record line, refusing it with ["line N: ..."]
      if it is not JSON. *)
  val parse : int * string -> Json.t

  (** [load ~what ~format ~version file decode] verifies the framing
      (errors say [what], e.g. ["checkpoint"]) and returns
      [decode header records], where [records] are the lines after the
      header, numbered from 2 and not yet parsed. *)
  val load :
    what:string ->
    format:string ->
    version:int ->
    string ->
    (Json.t -> (int * string) list -> 'a) ->
    ('a, string) result
end

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

(** Route trace records to [oc]. The channel stays owned by the caller
    (it is flushed, never closed, by {!finalize}/{!reset}). *)
val enable_trace : out_channel -> unit

(** Open [file] (truncating) and route trace records to it; the file is
    closed by {!finalize} or {!reset}. *)
val enable_trace_file : string -> unit

(** Turn the metrics registry on; {!finalize} renders it to stderr. *)
val enable_metrics : unit -> unit

val tracing : unit -> bool
val metrics_on : unit -> bool

(** Flush the trace sink (a no-op when tracing is off). *)
val flush : unit -> unit

(** Render metrics to stderr (if enabled), flush and close the trace
    sink, and disable both subsystems. Idempotent; also registered via
    [at_exit] by the [enable_*] calls, so a CLI run needs no explicit
    teardown. *)
val finalize : unit -> unit

(** Disable everything, close an owned sink {e without} rendering
    metrics, clear the registry, and reset span-id counters — test
    isolation. *)
val reset : unit -> unit

(* ------------------------------------------------------------------ *)
(* Spans and events                                                    *)
(* ------------------------------------------------------------------ *)

(** [with_span ~kind name f] runs [f] inside a new span. The span is a
    child of the innermost span open on the calling domain (a root
    otherwise — roots are numbered ["s0"], ["s1"], ... in creation
    order). [attrs] is evaluated once, when the span closes, so it can
    report results computed inside [f]; keep its contents deterministic.
    When tracing is off this is exactly [f ()]. If [f] raises, the span
    is emitted with an ["error": true] attribute and the exception is
    re-raised. *)
val with_span :
  ?attrs:(unit -> (string * Json.t) list) ->
  kind:string ->
  string ->
  (unit -> 'a) ->
  'a

(** A capture of the innermost open span, used to root spans on another
    domain (the pool hands one to its workers). *)
type ctx

val current_ctx : unit -> ctx

(** [with_task_span ~ctx ~index ~kind name f] opens a span with the
    deterministic id [<ctx-id>.<index>] and parent [ctx], regardless of
    which domain (or how many) executes it — this is how pool tasks get
    stable ids from submission order. [name] is only evaluated when
    tracing is on; [worker] lands in the volatile ["t"] field. *)
val with_task_span :
  ?attrs:(unit -> (string * Json.t) list) ->
  ?worker:int ->
  ctx:ctx ->
  index:int ->
  kind:string ->
  (unit -> string) ->
  (unit -> 'a) ->
  'a

(** A point record (duration-less) as a child of the current span. *)
val event : ?attrs:(unit -> (string * Json.t) list) -> kind:string -> string -> unit

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

module Metrics : sig
  (** All recorders are no-ops (one atomic read, no allocation) unless
      {!enable_metrics} ran. Thread/domain-safe. *)

  val incr : ?by:int -> string -> unit

  val gauge : string -> float -> unit

  (** Add one observation to the named summary histogram
      (count/sum/min/max/mean). *)
  val observe : string -> float -> unit

  (** Current counter value (0 if absent) — works even when recording is
      disabled, for tests and reports. *)
  val counter_value : string -> int

  (** Print every metric, sorted by name, one ["[metrics] ..."] line
      each. *)
  val render : out_channel -> unit

  val clear : unit -> unit
end

(* ------------------------------------------------------------------ *)
(* Trace validation                                                    *)
(* ------------------------------------------------------------------ *)

type trace_stats = {
  ts_records : int;
  ts_kinds : (string * int) list;  (** kind -> record count, sorted *)
}

(** Parse a JSONL trace file and check every record's schema ([id],
    [kind], [name] strings; [parent] string or null). Returns per-kind
    record counts, or a message naming the first offending line. *)
val validate_trace_file : string -> (trace_stats, string) result
