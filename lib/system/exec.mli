(** The synchronous executor.

    Round semantics: in round [r] every device consumes the messages sent in
    round [r-1] (nothing in round 0) and emits messages for round [r+1].
    Delivery therefore takes exactly one round — this is the δ of the
    Bounded-Delay Locality axiom.

    Determinism: a system has exactly one behavior; [run] is a pure function
    of the system and the horizon.

    With [~signed:true] the executor enforces the ideal signature
    functionality of {!Signature}: outgoing messages have every signature the
    sender does not legitimately hold replaced by {!Signature.forged}.  This
    deliberately {e breaks} the Fault axiom — replay devices can no longer
    masquerade — and is how the signed protocols escape the impossibility
    bound (experiment E13). *)

val total_runs : unit -> int
(** Number of [run] invocations so far in this process, across all domains
    (a monotone atomic counter).  The engine's metrics report executions as
    deltas of this counter. *)

val run : ?signed:bool -> ?delay:int -> System.t -> rounds:int -> Trace.t
(** [delay] (default 1): rounds a message spends in flight — the
    Bounded-Delay δ.  A message sent in round [r] is delivered in round
    [r + delay]; devices' round counters are unaffected, so a protocol
    designed for δ = 1 simply sees a slower network. *)

val run_until_decided :
  ?signed:bool -> ?delay:int -> System.t -> max_rounds:int -> Trace.t
(** Runs until every node has decided (per its device's [output]) or the
    horizon is reached, whichever comes first; the returned trace always has
    at least one round. *)
