(** The certificate engine: the single entry point for running certificate
    workloads at scale.

    An engine owns a {!Pool} of worker domains, one {!Exec_cache} of
    verdicts keyed by job descriptors ({!Job.key}), and a {!Metrics}
    instance shared by both.  A job is the unit of caching: a cell's runs
    are not cached on their own, so a cold grid executes every run once and
    a warm re-run executes nothing.

    Every job runs through one supervised boundary ({!run_job_result}):
    a per-job deadline and typed classification of whatever the job throws.
    Jobs are pure functions of their descriptions, so a failed job is not
    retried — a re-run would fail the same way.

    {b Determinism guarantee.}  For any job list, [run_all_results] with
    [jobs > 1] returns exactly what the sequential path ([jobs = 1], or
    calling {!Job.run} directly) returns, in the same order: workers write
    results by input index, and cached results are by construction equal to
    recomputed ones.  [nf_boundary] and [connectivity_boundary] are drop-in
    parallel equivalents of {!Sweep.nf_boundary} and
    {!Sweep.connectivity_boundary}. *)

type t

type config = {
  timeout_ms : int option;  (** per-job deadline; [None] = no deadline *)
}

val default_config : config
(** No deadline. *)

val default_jobs : unit -> int
(** The out-of-the-box worker count used whenever [jobs] is not given:
    [Domain.recommended_domain_count ()] capped at 8 (and at least 1).
    The cap keeps the E18 inverted curve — more domains, slower cold
    sweeps on grids too small to amortize them — from being the default
    configuration on a many-core host, and leaves domain budget for serve
    sessions.  Pass [~jobs] explicitly to go wider. *)

val create :
  ?jobs:int ->
  ?cache_capacity:int ->
  ?config:config ->
  ?store:Store.t ->
  ?resume:bool ->
  unit ->
  t
(** [jobs] defaults to {!default_jobs} ([Domain.recommended_domain_count]
    capped at 8); [1] forces the sequential path.  [cache_capacity]
    (default 4096) bounds the verdict cache.  [config] sets the per-job
    deadline of every job the engine runs; raises
    [Flm_error.Error (Invalid_input _)] on a deadline below 1 ms.

    [store] attaches a persistent tier below the verdict cache: every
    successful, storable verdict ([Cell]/[Conn]/[Chaos] — not [Cert], which
    carries closures) is journaled after it is computed, and with
    [resume = true] (default [false]) a cache miss consults the store before
    executing, so a re-run of the same grid skips completed cells.  Failures
    and timeouts are never persisted, exactly as they are never cached.
    {!Metrics} counts [resumed] (checkpoint hits), [recomputed] (store
    misses that executed), and [store_writes]. *)

val jobs : t -> int
val metrics : t -> Metrics.t
val config : t -> config

val store : t -> Store.t option
(** The attached persistent tier, if any. *)

val run_job_result : t -> Job.t -> (Job.verdict, Flm_error.t) result
(** The supervised job boundary.  Memoized: a re-run of an already-seen job
    is a cache hit and returns an equal verdict without executing.  Installs
    the configured per-job deadline (cooperatively checked by the executor
    each round) and classifies anything thrown into {!Flm_error.t}.  Never
    raises.  Failures and timeouts are counted in {!Metrics} and never
    cached, so a later run with a looser deadline re-executes. *)

val run_all_results : t -> Job.t list -> (Job.verdict, Flm_error.t) result list
(** Fan the batch out over the pool, each job through {!run_job_result}:
    a raising or deadline-blowing job yields [Error _] in its slot while
    every other job still completes — same order, same verdicts, regardless
    of the jobs count. *)

val nf_boundary : t -> n_max:int -> f_max:int -> Sweep.cell list
(** Parallel, memoized {!Sweep.nf_boundary}: byte-identical cells.  The
    whole grid drains first; then the lowest-index failure, if any, is
    raised as [Flm_error.Error _]. *)

val connectivity_boundary :
  t -> f:int -> kappas:int list -> n:int -> (int * bool * bool option * bool option) list
(** Parallel, memoized {!Sweep.connectivity_boundary}; failures are raised
    as in {!nf_boundary}. *)

val certify_result :
  t -> problem:Job.cert_problem -> n:int -> f:int ->
  (Job.cert_outcome, Flm_error.t) result
(** One memoized, supervised certificate job (the CLI's [certify] path). *)

val chaos :
  t ->
  family:string ->
  f:int ->
  seed:int ->
  strategy:string ->
  trials:int ->
  (Job.chaos_outcome, Flm_error.t) result list
(** Run [trials] supervised fault-injection trials ({!Job.spec.Chaos_trial})
    against [family], in trial order.  Reproducible: outcomes are a pure
    function of [(family, f, seed, strategy, trial)] — the jobs count only
    changes wall-clock.  Out-of-model strategies surface as typed errors
    ([Job_failed] for a poisoned step, [Job_timeout] under a deadline) in
    their slots. *)

val shutdown : t -> unit
(** Stop and join the engine's persistent worker domains ({!Pool.shutdown}).
    Idempotent; a later run on a shut engine quietly executes sequentially.
    Long-lived processes that are done with an engine should call this to
    release its domains. *)

val report : t -> string
(** The metrics report plus the verdict cache's occupancy. *)
