(** The typed error taxonomy shared by the whole stack.

    Every failure a user can reach — malformed CLI input, a protocol step
    that raises inside a certificate job, a job blowing its deadline, a
    worker domain dying — is represented as a value of {!t} instead of an
    escaped exception.  The engine's supervised paths return
    [('a, Flm_error.t) result]; the hot sequential paths may still raise
    {!Error} internally, which supervision catches and classifies at the job
    boundary.

    The engine never retries a job: jobs are deterministic, so a re-run
    fails the same way, and it reports every failure as a verdict and keeps
    draining the batch.  {!retryable} marks the one class a fresh process
    can cure ([Worker_crashed] — a worker that died): the campaign driver
    re-forks such shards, and the resilient client retries such answers. *)

type t =
  | Invalid_input of { what : string; detail : string }
      (** A user-supplied parameter (graph family, strategy spec, problem
          size) failed validation before any work ran. *)
  | Job_failed of { job : string; exn : string }
      (** The job's computation raised: a misbehaving protocol step, a
          poisoned device, a type error on a corrupted message. *)
  | Job_timeout of { job : string; timeout_ms : int }
      (** The job exceeded its per-job deadline (see {!Deadline}). *)
  | Worker_crashed of { detail : string }
      (** A worker domain or process could not be started or died
          abnormally — the only transient class (see {!retryable}). *)
  | Axiom_violation of { axiom : string; detail : string }
      (** The fault-injection harness found a run where the Locality or
          Fault axiom did not hold — a model bug, never a user error. *)
  | Store_corrupt of { path : string; offset : int; detail : string }
      (** The persistent certificate store found a record it cannot trust —
          a torn tail after a crash, a CRC mismatch, an unknown format
          version.  The record is skipped (and recomputed on demand), never
          deserialized. *)
  | Net of { endpoint : string; detail : string }
      (** A serve-protocol failure at the process boundary: the daemon
          socket cannot be bound or reached, a connection died mid-frame, a
          frame violated the wire protocol (bad length prefix, oversized
          payload, malformed or wrong-version document), or the server
          refused a session (overload).  [endpoint] names the socket path or
          protocol stage.  Never retried by supervision — the serve client
          surfaces it to its caller, which owns the reconnect policy. *)

exception Error of t
(** The carrier used on exception-based internal paths; supervision catches
    it at the job boundary and returns the payload. *)

val retryable : t -> bool
(** [true] exactly for [Worker_crashed].  The campaign driver re-forks a
    shard whose worker process crashed; the engine never re-runs a job. *)

val exit_code : t -> int
(** The stable process exit code for the class: [Invalid_input] 10,
    [Job_failed] 11, [Job_timeout] 12, [Worker_crashed] 13,
    [Axiom_violation] 14, [Store_corrupt] 15, [Net] 16.  Every CLI command
    exits with the code of the failure it reports, so callers can dispatch
    on the class without parsing output. *)

val net : endpoint:string -> string -> t
(** [net ~endpoint detail] is [Net { endpoint; detail }] — the constructor
    every networking layer (serve, serve client, resilience) shares instead
    of redefining locally. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
(** Structural equality (payloads are plain strings and ints). *)

val raise_error : t -> 'a
(** [raise (Error t)], for pipelines. *)

val guard : what:string -> (unit -> 'a) -> ('a, t) result
(** Run a thunk, converting the exceptions a user can reach into typed
    errors: [Error e] keeps its payload, [Invalid_argument]/[Failure] become
    [Invalid_input], and any other exception becomes [Job_failed].  Used to
    wrap legacy [invalid_arg]-raising entry points into result APIs. *)

val classify : job:string -> exn -> t
(** The supervision classifier: [Error e] unwraps to [e];
    [Out_of_memory]/[Stack_overflow] become [Worker_crashed];
    everything else becomes [Job_failed]. *)

(** Per-domain job deadlines, cooperatively checked.

    [with_deadline] installs a wall-clock deadline in domain-local storage
    for the duration of a thunk; {!check} (called by the executor once per
    simulated round, and by any long-running loop that wants to be
    interruptible) raises [Error (Job_timeout _)] once the deadline has
    passed.  Nested deadlines keep the tighter one.  When no deadline is
    installed, [check] is a single domain-local read. *)
module Deadline : sig
  val with_deadline : job:string -> timeout_ms:int -> (unit -> 'a) -> 'a
  (** Raises [Invalid_argument] when [timeout_ms < 1]. *)

  val check : unit -> unit
  (** Raises [Error (Job_timeout _)] if the current domain's deadline has
      passed; a no-op when none is set. *)

  val active : unit -> bool
  (** Is a deadline installed in the current domain? *)
end
