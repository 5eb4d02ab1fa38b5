(** Content-addressed oracle answer cache.

    The dominant cost of a KernelGPT run is LLM queries, and repeated
    runs — report suites, bench sweeps, resumed campaigns, ablations —
    keep re-asking the oracle about the same handlers and types. This
    cache makes a warm run stop paying for oracle work a previous run
    already did, without changing a single byte of its stdout.

    {b Keying.} Entries are addressed by a stable FNV-1a-64 digest of
    [(profile name, task name, subject, rendered post-truncation prompt,
    schema version)]. The prompt is rendered {e after} the profile's
    context window is applied ({!Oracle.truncate}), so the key captures
    exactly the text the model would see: two prompts that differ only
    in snippets the window drops anyway share an entry, and any change
    to the visible prompt, the profile, or the response schema misses.

    {b Accounting replay.} A hit replays the recorded accounting deltas
    — oracle queries consumed, prompt tokens, truncated snippets,
    injected errors — into the oracle's counters, not just the response
    ({!replay}). Cost tables are therefore byte-identical between cold
    and warm runs. What a hit does {e not} do: no {!Oracle.query} call,
    no [oracle.*] metrics, no fault-plan decision, no retry/backoff, no
    [--query-budget] consumption — the cache sits above the
    fault-tolerant {!Client} machinery, so a warm run under [--faults]
    is a full recovery by construction.

    {b Tiers.} The in-memory store is mutex-protected and shared by
    every worker domain of a [--jobs] run: one worker's answer serves
    all. An optional backing file ([--oracle-cache FILE]) persists it
    across runs as an {!Obs.Record_file} (versioned JSONL, checksum
    trailer, atomic tmp+rename write); {!open_file} rejects corruption,
    truncation, and version skew with descriptive errors, and a
    read-only mode serves shared warm caches without ever writing.

    {b Records.} The header is
    [{"format":"kernelgpt-oracle-cache","version":1,"schema":1}]; each
    record after it is one entry, in key order:
    [{"key":K,"queries":Q,"tokens":T,"truncations":U,"errors":E,
    "response":{...}}]. Int64 constants in a response are decimal
    strings.

    Metrics: [oracle.cache.hits/misses/stale/flushes]. Trace events:
    [oracle.cache] (hit/miss/load/flush). *)

(** One cached answer: the response plus the accounting deltas its cold
    query charged to the oracle. Under a fault plan a recovered query
    may have consumed more than one backend call (malformed/truncated
    payloads burn a call); the deltas record whatever the cold run
    actually paid, so the warm run reports identical costs. *)
type entry = {
  e_response : Prompt.response;
  e_queries : int;  (** [Oracle.queries] delta (>= 1) *)
  e_tokens : int;  (** [Oracle.prompt_tokens] delta *)
  e_truncations : int;  (** [Oracle.truncations] delta *)
  e_errors : int;  (** [Oracle.injected_errors] delta *)
}

type t

(** Bumped whenever {!entry} serialization (or response semantics)
    changes; part of every key, so entries from another schema can never
    be replayed. *)
val schema_version : int

(** File format version of the JSONL container. *)
val version : int

(** A memory-only cache (no backing file; {!flush} is a no-op). *)
val in_memory : unit -> t

(** Bind a cache to [file] and load it. A missing file is a cold cache
    (created on the first {!flush}); an unreadable, truncated, corrupted
    (checksum mismatch) or version-skewed file is a descriptive
    [Error]. Entries recorded under another {!schema_version} are
    dropped and counted as stale rather than rejecting the file.
    [readonly] serves a shared warm cache: lookups and in-memory stores
    work normally, but {!flush} never writes. *)
val open_file : ?readonly:bool -> string -> (t, string) result

val readonly : t -> bool
val file : t -> string option

(** The content address of [p] for [profile]: a 16-hex-digit FNV-1a-64
    digest of (profile name, task name, subject, rendered
    post-truncation prompt, schema version). Pure. *)
val key : profile:Profile.t -> Prompt.t -> string

(** Look up a key. Counts a hit or a miss (stats, metrics, and an
    [oracle.cache] trace event naming [subject]). Domain-safe. *)
val find : t -> subject:string -> string -> entry option

(** Record the answer of a cache miss. First writer wins (answers are
    deterministic, so concurrent writers agree); marks the cache dirty.
    Stores are accepted in read-only mode too — they serve later
    lookups of this run — but will never reach the file. *)
val store : t -> key:string -> subject:string -> entry -> unit

(** Replay a hit: add the entry's accounting deltas to the oracle's
    counters and return the recorded response. Touches no [oracle.*]
    metrics and never calls {!Oracle.query} — a warm run's metrics show
    cache hits, not oracle queries. *)
val replay : Oracle.t -> entry -> Prompt.response

(** Persist the store to its backing file ({!Obs.Record_file.save},
    entries in key order). A no-op (and [Ok]) when the cache is
    memory-only, read-only, or clean; [Error] when the write fails. *)
val flush : t -> (unit, string) result

type stats = {
  st_entries : int;  (** entries currently in memory *)
  st_loaded : int;  (** entries accepted from the backing file *)
  st_hits : int;
  st_misses : int;
  st_stale : int;  (** loaded entries dropped for schema skew *)
}

val stats : t -> stats

(** One-line human summary ("N entries, H hits / M misses (P% hit
    rate), ..."), for the stderr reports. *)
val summary : t -> string
