(** Execution memoization: an LRU-bounded, domain-safe cache from job
    fingerprints to results, with single-flight deduplication.

    Keys are {!Fingerprint.key}s whose descriptors fully describe the
    computation (see {!Job.describe}); lookups compare descriptors
    structurally, so fingerprint collisions cannot return a wrong entry, and
    a key built separately from an equal descriptor finds the same entry.

    Concurrency: one mutex guards the table and its recency list, and
    eviction is exact least-recently-used order.  The lock is held only for
    table and list updates, never while a value is computed; a cold grid
    sweep makes one lookup per cell (20 for the default n<=12 f<=2 grid).

    [find_or_run] deduplicates concurrent misses (single flight): the first
    domain to miss on a key computes it {e outside} the lock while later
    arrivals for the same key block on the cache's condvar and share the
    leader's result — the thunk runs once per cold key, not once per domain.
    A leader that raises wakes its followers to retry rather than sharing the
    failure; errors are never cached. *)

type 'v t

val create : ?capacity:int -> ?metrics:Metrics.t -> unit -> 'v t
(** Default capacity 4096 entries.  Raises
    [Flm_error.Error (Invalid_input _)] if it is below 1.  When [metrics] is
    given, {!find_or_run} records each hit, miss and dedup on it, and every
    LRU eviction is counted ({!Metrics.record_eviction}) — evictions are
    otherwise invisible to callers. *)

val capacity : 'v t -> int

val find_opt : 'v t -> Fingerprint.key -> 'v option
(** A hit refreshes the entry's recency. *)

val mem : 'v t -> Fingerprint.key -> bool
(** Peek without touching recency (used by eviction tests). *)

val insert : 'v t -> Fingerprint.key -> 'v -> unit
(** Inserts (or refreshes) and evicts the least-recently-used entry when
    the size bound is exceeded. *)

val find_or_run : 'v t -> Fingerprint.key -> (unit -> 'v) -> 'v
(** [find_or_run t key run] returns the cached value for [key] or evaluates
    [run ()] and caches it, recording a hit or miss on the cache's metrics.
    Joining another domain's in-flight computation counts as a hit and a
    dedup ({!Metrics.record_dedup}). *)

val length : 'v t -> int
