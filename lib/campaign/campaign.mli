(** The campaign driver: fan a declarative cube out over forked, journaled
    workers, merge, and mine the failures.

    {b Execution model.}  The cube ({!Campaign_spec.enumerate}) is sharded
    round-robin over [spec.workers] forked worker processes.  Each worker
    opens its own journaled store under [<dir>/shards/<w>], builds its own
    engine (domain pool, caches, per-job deadline supervision) with
    [resume = true], runs its shard, and exits — every completed trial is an
    fsync'd journal record before the worker moves on, so a worker killed at
    any point loses only its in-flight trials.  The parent never spawns a
    domain in forked mode: all forks happen while the process is still
    single-domain, the one hard rule of mixing [Unix.fork] with the OCaml 5
    runtime.  With [spec.workers = 1] the cube runs in-process instead
    (same store layout, no fork) — the reference path sharded runs are
    byte-compared against.

    {b Supervision.}  Each shard gets a wall-clock deadline
    ([shard_timeout_ms]) and a retry budget ([shard_retries]): a worker that
    dies abnormally is classified [Worker_crashed] (the one retryable class)
    and re-forked — it resumes from its own journal, so completed trials are
    never re-run; a shard that blows its deadline is killed and reported
    [Job_timeout], permanently.  SIGTERM/SIGINT to the parent forwards to
    the workers, reaps them, and still runs the merge — the interrupted
    campaign's journals are a checkpoint, and a re-run resumes from them.

    {b Merge.}  Shard journals fold into the primary store at [<dir>] via
    {!Store.merge_from} (last-writer-wins; equal payloads are no-ops), then
    the primary is compacted canonically ({!Store.gc} [~canonical:true]) —
    insertion order is a scheduling artifact, canonical order erases it, so
    a sharded run's journal is byte-identical to the in-process run's.

    {b Corpus.}  Every violated trial in the merged store becomes a
    {!Campaign_corpus} entry; with [shrink = true] each new entry is
    immediately minimized ({!Campaign_shrink.minimize}) and the minimized
    scenario persisted back onto the entry. *)

type config = {
  jobs : int option;  (** worker-engine domains; [None] = engine default *)
  timeout_ms : int option;  (** per-job deadline inside workers *)
  shard_timeout_ms : int option;  (** per-shard wall-clock deadline *)
  shard_retries : int;  (** re-forks for crashed shards *)
  shrink : bool;  (** minimize new corpus entries after the merge *)
}

val default_config : config
(** No deadlines, 1 shard retry, shrinking on. *)

type shard_report = {
  shard : int;
  cells : int;  (** jobs assigned to this shard *)
  attempts : int;  (** 1 + re-forks *)
  result : (unit, Flm_error.t) result;
}

type summary = {
  total : int;  (** enumerated cube cells *)
  skipped : int;  (** inapplicable cells (counted, never silent) *)
  survived : int;
  violated : int;
  failed : int;  (** cells with no record in the merged store *)
  corpus : int;  (** corpus entries after this run *)
  corpus_new : int;  (** entries first recorded by this run *)
  minimized : int;  (** entries carrying a minimized scenario *)
  shards : shard_report list;  (** empty for the in-process path *)
  merged_records : int;  (** live records in the merged store *)
  interrupted : bool;  (** a SIGTERM/SIGINT cut the run short *)
}

val run :
  dir:string ->
  ?config:config ->
  Campaign_spec.t ->
  (summary, Flm_error.t) result
(** Run the campaign under [dir] (created if needed).  [Error _] only when
    the campaign cannot run at all (unusable directory, corrupt primary
    journal); per-shard and per-trial failures are reported inside the
    summary.  {b Forked mode must run while the process is single-domain} —
    call it before creating any engine in the calling process. *)

val status : dir:string -> (Store.stats * Store.stats list * int, Flm_error.t) result
(** [(primary, shards, corpus_entries)] — journal stats for the primary and
    each shard store plus the corpus entry count, without running anything. *)
