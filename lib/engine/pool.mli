(** A persistent domain-based worker pool with self-scheduling dispatch and
    deterministic result ordering.

    [create ~jobs] sizes the pool at [jobs] computational participants: the
    calling domain plus [jobs - 1] persistent worker domains, spawned once
    (lazily, on the first parallel [map]) and reused across every subsequent
    batch — a batch no longer pays domain spawn/join, only a condvar wake.
    Effective parallelism is capped at [Domain.recommended_domain_count ()]:
    domains beyond the hardware only add GC-synchronization overhead (E22
    measured 2-4x cold-sweep slowdowns when oversubscribed), so extra
    requested [jobs] silently run on the calling domain instead — on a
    single-core box every pool is sequential and wall time is flat in
    [jobs].  [create ~oversubscribe:true] lifts the cap for callers that
    need literal worker domains (worker-machinery tests, spawn-cost
    measurements).

    [map] publishes an index-addressed batch; every participant (workers
    {e and} the calling domain) claims one item at a time off a single
    [Atomic.fetch_and_add] cursor, writes results into per-index slots, and
    the call returns once every worker that entered the batch has left it —
    so results arrive in input order regardless of scheduling, no work
    outlives the call, and the mutex hand-off on batch exit makes the result
    array safely visible to the caller.

    With an effective parallelism of 1 (or a batch of at most one element)
    [map] degenerates to a sequential in-order loop in the calling domain —
    the reference path used for differential testing.

    If tasks raise, the exception of the {e lowest failing index} is
    re-raised (deterministically), after the batch fully drains.  [map] is
    serialized (one batch at a time) and is not reentrant from inside a
    worker task.

    {b Supervision.}  The pool survives worker loss: a failed [Domain.spawn]
    (resource limits) and a worker dying abnormally are both tolerated.  A
    dying worker counts itself out of the batch before expiring, so the
    caller's join can never hang; because the calling domain is itself a
    participant, the cursor always drains even with zero healthy workers;
    and after the join, every item a dead worker claimed but never finished
    is completed {e in the calling domain, in index order} — [map] still
    returns a complete, deterministic batch under total worker loss
    (graceful degradation to the sequential path).  Each degradation is
    reported through [on_degrade].

    {b Teardown.}  [shutdown] stops and joins the worker domains;
    it is idempotent, and a later [map] on a shut pool quietly runs
    sequentially. *)

type t

type stats = {
  participants : int;
      (** domains that took part in the batch: the caller plus every worker
          that entered it *)
  busy_seconds : float;
      (** summed wall-clock the participants spent computing items *)
  span_seconds : float;
      (** publish-to-drain wall-clock of the whole batch; perfect scheduling
          would give [busy = span * participants] *)
}

val create :
  ?oversubscribe:bool ->
  ?on_degrade:(string -> unit) ->
  jobs:int ->
  unit ->
  t
(** [oversubscribe] (default [false]) lifts the hardware cap on worker
    domains described above.  [on_degrade] is called
    (from the submitting domain) with a reason each time the pool has to
    fall back toward the sequential path; the hardware cap itself is policy,
    not degradation, and is never reported.  Raises
    [Flm_error.Error (Invalid_input _)] when [jobs] is below 1.
    No domain is spawned until the first parallel [map]. *)

val jobs : t -> int
(** The {e requested} parallelism, as configured — not reduced by the
    hardware cap ({!stats}[.participants] reports who actually ran). *)

val map :
  ?costs:int array -> ?on_stats:(stats -> unit) -> t -> ('a -> 'b) ->
  'a array -> 'b array
(** Participants claim items in index order, one per cursor claim.  [costs]
    (same length as the batch, validated) switches to cost-aware
    self-scheduling: items are claimed {e largest cost first}, so the most
    expensive item starts as early as possible and cannot become the lone
    straggler of an otherwise-drained batch.  Costs are relative — only their order matters.
    Results still land in input order and error propagation is unchanged.

    [on_stats] receives one {!stats} record per batch (from the calling
    domain, after the batch drains), including on the sequential paths
    (where busy = span and participants = 1). *)

val map_list :
  ?costs:int array -> ?on_stats:(stats -> unit) -> t -> ('a -> 'b) ->
  'a list -> 'b list

val shutdown : t -> unit
(** Stop and join the persistent workers.  Idempotent; must not be called
    concurrently with a [map] from another domain. *)

(**/**)

val sabotage_workers_for_testing : t -> unit
(** Test hook: every worker dies on its next claim (after the claim,
    before computing it), stranding the claimed items — forces the
    worker-loss drain path.  The calling domain is unaffected. *)
