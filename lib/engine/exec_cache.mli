(** Execution memoization: a lock-striped, LRU-bounded, domain-safe cache
    from job fingerprints to results, with single-flight deduplication.

    Keys are {!Fingerprint.key}s whose descriptors fully describe the
    computation (see {!Job.describe}); lookups compare descriptors
    structurally, so fingerprint collisions cannot return a wrong entry, and
    a key built separately from an equal descriptor finds the same entry.

    Concurrency: the cache is sharded into independent stripes keyed by
    fingerprint bits, each with its own mutex, recency list, and share of the
    capacity — worker domains touching different keys rarely contend.
    Eviction is least-recently-used {e per stripe} (fingerprints are uniform,
    so stripes load-balance; pass [~stripes:1] for exact global LRU order).

    [find_or_run] deduplicates concurrent misses (single flight): the first
    domain to miss on a key computes it {e outside} the lock while later
    arrivals for the same key block on the stripe's condvar and share the
    leader's result — the thunk runs once per cold key, not once per domain.
    A leader that raises wakes its followers to retry rather than sharing the
    failure; errors are never cached. *)

type 'v t

val create : ?capacity:int -> ?stripes:int -> ?metrics:Metrics.t -> unit -> 'v t
(** Default capacity 4096 entries (total, across stripes), default 16
    stripes (clamped to [capacity]).  Raises
    [Flm_error.Error (Invalid_input _)] if either is below 1.  When [metrics] is given, every LRU eviction is counted
    ({!Metrics.record_eviction}) — evictions are otherwise invisible to
    callers. *)

val capacity : 'v t -> int

val find_opt : 'v t -> Fingerprint.key -> 'v option
(** A hit refreshes the entry's recency. *)

val mem : 'v t -> Fingerprint.key -> bool
(** Peek without touching recency (used by eviction tests). *)

val insert : 'v t -> Fingerprint.key -> 'v -> unit
(** Inserts (or refreshes) and evicts the stripe's least-recently-used
    entries until its share of the size bound holds. *)

val find_or_run : 'v t -> ?metrics:Metrics.t -> Fingerprint.key -> (unit -> 'v) -> 'v
(** [find_or_run t ~metrics key run] returns the cached value for [key] or
    evaluates [run ()] and caches it, recording a hit or miss on [metrics].
    Joining another domain's in-flight computation counts as a hit and a
    dedup ({!Metrics.record_dedup}). *)

val length : 'v t -> int
