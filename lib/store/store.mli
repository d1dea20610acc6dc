(** The crash-safe, content-addressed certificate and result store.

    A store is a directory holding one append-only {!Journal}
    ([journal.flm]).  Records are [(key, payload)] pairs of {!Value.t}s,
    content-addressed by the {e canonical encoded bytes} of the key
    ({!Store_codec.encode} is deterministic, so byte equality is structural
    equality — a 64-bit fingerprint collision can never alias two keys).
    The engine keys records by job descriptors ({!Fingerprint} descriptors /
    [Job.describe]); the store itself is agnostic.

    {b Durability contract.}  {!put} returns once the record is framed
    (length + CRC-32) and written to the journal, so it survives [kill -9]
    of the process.  {!sync} makes every record put since the last sync
    durable against an OS crash or power loss with one [fsync]; the engine
    calls it once per batch, after the batch drains and before it returns
    a verdict, and {!close} and {!merge_from} call it at their ends.  A
    crash before the sync can lose at most the unsynced suffix of the
    journal, which reopens as a torn tail.  {!open_dir} scans the journal
    and {e skips} — never deserializes — any record it cannot verify (torn
    tail, CRC mismatch, unknown codec version), reporting each as a typed
    {!Flm_error.Store_corrupt} in {!corruptions}; a resumed sweep simply
    recomputes what was lost.  Duplicate keys are last-writer-wins on scan;
    {!put} of an already-stored equal payload is a no-op (no journal
    growth), so re-running a fully-checkpointed sweep does not write.

    All operations are serialized by an internal mutex: engine worker
    domains checkpoint concurrently. *)

type t

type stats = {
  path : string;  (** the journal file *)
  live : int;  (** distinct keys *)
  records : int;  (** verified frames in the journal (incl. superseded) *)
  corrupt : int;  (** corruption reports from the open scan *)
  bytes : int;  (** journal file size *)
}

val open_dir : string -> (t, Flm_error.t) result
(** Open (creating if needed) the store directory and scan its journal.
    Corrupt {e records} are skipped and reported via {!corruptions} — the
    store still opens.  [Error _] only when the directory cannot be used or
    the journal is not a journal at all (bad magic): nothing in it can be
    trusted. *)

val find : t -> Value.t -> Value.t option
val mem : t -> Value.t -> bool

val put : t -> key:Value.t -> Value.t -> unit
(** Written to the journal once returned (it survives [kill -9]); durable
    against power loss after the next {!sync}.  Overwriting a key with a
    different payload appends a superseding record ({!gc} drops the old
    one); overwriting with an equal payload is a no-op. *)

val sync : t -> (bool, Flm_error.t) result
(** One [fsync] of the journal, only if a record was put since the last
    sync: [Ok true] when it flushed, [Ok false] when there was nothing to
    flush.  A failed flush is a typed [Store_corrupt], and it stays failed
    (see {!Journal.sync}): no later sync of this store reports durability
    it cannot vouch for. *)

val length : t -> int
(** Distinct live keys. *)

val corruptions : t -> Flm_error.t list
(** Typed reports for every record skipped when the store was opened. *)

val iter : t -> (key:Value.t -> payload:Value.t -> unit) -> unit
(** In first-insertion order (scan order, then put order) — deterministic,
    for [flm store export]. *)

val stat : t -> stats

val gc : ?canonical:bool -> t -> int
(** Compact: atomically rewrite the journal with exactly the live records
    (temp + fsync + rename, see {!Journal.rewrite}), dropping superseded and
    corrupt regions.  Returns the number of frames dropped.  Clears
    {!corruptions}.

    With [~canonical:true], live records are rewritten sorted by canonical
    encoded key bytes instead of first-insertion order.  Insertion order is
    a scheduling artifact (which worker finished first); canonical order
    erases it, so two stores holding the same records — e.g. a sharded
    campaign's merged store and a single-process run — compact to
    byte-identical journals.  Subsequent {!iter} follows the new order. *)

val merge_from : t -> string -> (int, Flm_error.t) result
(** [merge_from t dir] folds the journal of the foreign store directory
    [dir] into [t] with last-writer-wins semantics: the foreign journal is
    collapsed LWW on its own (exactly as {!open_dir} would), then each live
    foreign record is {!put} in foreign first-insertion order — foreign
    records supersede conflicting keys already in [t], and equal payloads
    are no-ops (no journal growth).  Returns the number of live foreign
    records folded.  Corrupt foreign records are skipped, their typed
    reports appended to {!corruptions}; [Error _] only when [dir]'s journal
    cannot be trusted at all (bad magic / unreadable), in which case [t] is
    untouched.  Merging is crash-safe: every fold step is a {!put}, so a
    merge killed midway leaves [t] a valid prefix of the merge, and the
    merge ends with one {!sync}, whose failure is its [Error _]. *)

val close : t -> unit
(** {!sync}, then release the journal.  Raises [Flm_error.Error
    (Store_corrupt _)] when that final sync fails; the file is closed
    either way. *)

val verify : string -> (int * Flm_error.t list, Flm_error.t) result
(** [verify dir] re-scans the journal from disk without opening a store:
    [Ok (verified_records, corruptions)] where [corruptions] includes both
    framing-level damage and records whose payload fails to decode. *)
