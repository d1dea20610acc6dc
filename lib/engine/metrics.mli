(** Engine counters: jobs completed, cache hits/misses, executions run, and
    wall-clock per job.  All mutators are mutex-protected and callable from
    worker domains; [executions_run] is the delta of {!Exec.total_runs} since
    creation (or the last {!reset}), so it counts every scenario execution
    the workload triggered, however deep in the certificate machinery. *)

type t

type snapshot = {
  jobs_completed : int;
  jobs_failed : int;  (** supervised jobs that ended in a typed error *)
  jobs_timed_out : int;  (** subset of [jobs_failed] that blew the deadline *)
  degraded : int;  (** pool degradations to the sequential path *)
  cache_hits : int;
  cache_misses : int;
  dedups : int;
      (** concurrent misses that joined another domain's in-flight
          computation instead of running the thunk again (single-flight
          hits; a subset of [cache_hits]) *)
  evictions : int;  (** LRU entries pushed out of the in-memory caches *)
  resumed : int;
      (** verdicts loaded from the persistent store instead of recomputed
          (checkpoint hits during a [--resume] run) *)
  recomputed : int;
      (** verdicts actually executed while a persistent store was attached
          (store misses — the cells a resumed sweep still had to run) *)
  store_writes : int;  (** journal records appended (checkpoints written) *)
  store_syncs : int;
      (** journal fsyncs: at most one per batch that appended a record *)
  executions_run : int;
  total_job_seconds : float;
  max_job_seconds : float;
  elapsed_seconds : float;
  sched_batches : int;  (** pool batches whose scheduling stats were recorded *)
  sched_busy_seconds : float;
      (** summed participant compute time across those batches *)
  sched_capacity_seconds : float;
      (** summed span x participants — what perfect load balance would have
          needed to keep everyone busy *)
}

val create : unit -> t

val reset : t -> unit
(** Zero the counters and re-anchor the execution baseline and the elapsed
    clock (used by the bench to isolate warm-cache phases). *)

val cache_hit : t -> unit
val cache_miss : t -> unit

val record_dedup : t -> unit
(** A domain joined an in-flight computation (single-flight deduplication)
    rather than duplicating it. *)

val record_eviction : t -> unit
(** An LRU cache pushed out its least-recently-used entry. *)

val record_resumed : t -> unit
(** A verdict was served from the persistent store (checkpoint hit). *)

val record_recomputed : t -> unit
(** A verdict was executed while a store was attached (checkpoint miss). *)

val record_store_write : t -> unit
(** A verdict was journaled to the persistent store. *)

val record_store_sync : t -> unit
(** A batch's journal writes were made durable with one fsync. *)

val record_job : t -> seconds:float -> unit

val record_failure : t -> timeout:bool -> unit
(** One supervised job gave up with a typed error; [timeout] marks deadline
    blows so they are counted in both [jobs_failed] and [jobs_timed_out]. *)

val record_degraded : t -> unit

val record_schedule :
  t -> participants:int -> busy_seconds:float -> span_seconds:float -> unit
(** One pool batch drained; [span_seconds x participants] is accumulated as
    scheduling capacity.  Fed by {!Pool.map}'s [on_stats] hook. *)

val snapshot : t -> snapshot
val hit_rate : snapshot -> float

val scheduling_efficiency : snapshot -> float
(** [busy / capacity] over the recorded batches, in [0, 1]: how close the
    pool came to keeping every participant busy for every batch's whole
    span.  [1.0] when no batch was recorded (nothing to misschedule). *)

val wall_now : unit -> float
(** Wall-clock seconds (gettimeofday); the clock used for job timing. *)

val pp_report : Format.formatter -> t -> unit
(** The multi-line engine report ([flm ... --metrics]). *)
