(** The [flm serve] daemon: one resident {!Engine} (persistent worker
    pool, warm verdict cache, optional persistent store)
    answering certify/sweep/chaos/store-stat/stats requests over a Unix
    domain socket speaking {!Serve_proto}.

    {b Architecture.}  The main domain runs the accept loop; each accepted
    connection becomes a {e session} running in its own domain, reading
    one request frame at a time and answering it in order.  Sessions are
    bounded by [max_sessions]: a connection beyond the bound is answered
    with a typed overload error ([Flm_error.Net]) and closed, never
    queued.  Concurrent sessions multiplex onto the shared engine — batch
    requests (sweep, chaos) fan out over the persistent pool, single
    certificates run in the session's own domain — and the verdict
    cache's single-flight dedup acts as request coalescing: identical
    in-flight queries are computed once, the losers blocking on the
    winner's flight and counting as [coalesced] in [stats].

    {b Deadlines.}  A request's [timeout_ms] installs a cooperative
    deadline (nested inside the server's own supervision config; the
    tighter wins) that is checked every simulated round of work executed
    in the session's domain.  Work claimed by pool worker domains is
    bounded by the server-wide per-job deadline instead ([--timeout-ms]),
    so a strict per-job bound belongs in the server config and a
    per-request bound is exact for [certify] and best-effort for batches.

    {b Shutdown.}  SIGTERM/SIGINT flip a stop flag: the accept loop
    closes and unlinks the socket, sessions finish their in-flight
    request and drain, the engine's domains are joined, and the store
    (every completed verdict already fsync'd by {!Store.put}) is closed —
    a drained daemon leaves a journal indistinguishable from a batch
    run's. *)

type config = {
  socket_path : string;
  jobs : int;  (** engine worker domains (see {!Engine.default_jobs}) *)
  store_dir : string option;
      (** attach a persistent verdict store below the caches *)
  resume : bool;
      (** serve already-journaled verdicts instead of recomputing *)
  max_sessions : int;  (** concurrent session bound *)
  engine_config : Engine.config;  (** per-job supervision *)
}

val default_max_sessions : int
(** 16. *)

val claim_socket_path : string -> (unit, Flm_error.t) result
(** Make a socket path bindable: a live daemon behind it is refused
    (typed [Net]), a leftover socket from a dead process (the kernel
    refuses connections to it) is unlinked, and a non-socket file is
    refused.  Shared with the chaos proxy, which fronts a daemon on a
    second socket with the same lifecycle. *)

val run :
  ?on_ready:(unit -> unit) ->
  ?log:(string -> unit) ->
  config ->
  (string, Flm_error.t) result
(** Bind the socket, install SIGTERM/SIGINT handlers (restored on exit),
    and serve until stopped; blocks the calling domain.  [on_ready] fires
    once the socket is listening.  [log] receives human-readable progress
    lines (default: dropped).  Returns the final engine + server metrics
    report on clean shutdown, or a typed error when the socket cannot be
    bound or the store cannot be opened. *)
