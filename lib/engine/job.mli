(** The engine's job model.

    A job is a first-order description of one certificate workload —
    problem x topology x f x protocol x horizon — with a stable fingerprint.
    Because [run] is a pure function of the description (every device,
    input, adversary, and horizon is derived deterministically from it, and
    the underlying executor is deterministic), memoizing verdicts on the
    fingerprinted description cannot change any verdict: a cache hit returns
    exactly what re-running would compute. *)

type cert_problem = Ba | Ba_collapse | Ba_conn

type spec =
  | Nf_cell of { n : int; f : int }
      (** One 3f+1-boundary cell on K_n ({!Sweep.nf_cell}). *)
  | Conn_cell of { kappa : int; n : int; f : int }
      (** One 2f+1-connectivity row on H(κ, n) ({!Sweep.connectivity_cell}). *)
  | Certify of { problem : cert_problem; n : int; f : int }
      (** A full covering certificate (EIG on K_n, or flood-vote on the
          n-cycle for [Ba_conn]), as produced by the [flm certify] CLI. *)
  | Chaos_trial of {
      family : string;  (** target topology, {!Topology.of_family} syntax *)
      f : int;
      seed : int;
      strategy : string;  (** {!Fault_strategy.of_string} syntax *)
      trial : int;
    }
      (** One fault-injection trial: a seeded faulty set running a seeded
          strategy against the strongest protocol the topology admits (EIG,
          EIG-over-overlay, or the flood-vote strawman), judged by
          {!Ba_spec.check} over the correct nodes.  Malformed [family] or
          [strategy] raise [Flm_error.Error (Invalid_input _)] from [run]. *)
  | Campaign_trial of {
      protocol : string;  (** one of {!campaign_protocols} *)
      family : string;
      f : int;
      seed : int;
      strategy : string;
      trial : int;
    }
      (** One cell of a campaign cube: like [Chaos_trial] but the protocol
          is an explicit axis rather than implied by the topology, so the
          same (family, f) cell can be exercised under every applicable
          protocol.  [run] raises [Invalid_input] when the protocol is
          unknown or inapplicable (enumerate with {!campaign_applies}). *)

type t = spec

type scenario = {
  protocol : string;
  family : string;
  f : int;
  seed : int;
  trial : int;
  rounds : int option;
      (** horizon override — clamped to the protocol's derived horizon, so
          a scenario can only shorten the run, never extend it *)
  faults : (int * string) list;
      (** explicit (node, strategy-spec) pairs, replacing the seeded faulty
          set; specs parse with {!Fault_strategy.of_string} *)
}
(** An explicit-control replay of one campaign trial.  A scenario with
    [rounds = None] and [faults] equal to the trial's seeded faulty set
    (each node paired with the campaign's strategy spec) reproduces the
    trial exactly: per-node install streams depend only on
    (seed, trial, node), so the shrinker can drop nodes, shorten rounds, or
    substitute simpler strategy specs and re-judge without disturbing the
    remaining installs. *)

type cert_outcome = {
  contradiction : bool;
  summary : string;  (** one-line verdict ({!Certificate.verdict_line}) *)
  certificate : Certificate.t;
}

type chaos_outcome = {
  trial : int;
  seed : int;
      (** the effective fault seed — recorded in the verdict (and hence in
          the store and on the wire) so any failing trial is exactly
          replayable without out-of-band bookkeeping *)
  strategy : string;  (** resolved per-node labels, e.g. ["2:crash@3"] *)
  faulty : int list;
  survived : bool;  (** no BA condition violated among correct nodes *)
  violations : string list;
}

type verdict =
  | Cell of Sweep.cell
  | Conn of (int * bool * bool option * bool option)
  | Cert of cert_outcome
  | Chaos of chaos_outcome

val cert_problem_name : cert_problem -> string
val cert_problem_of_string : string -> cert_problem option

val campaign_protocols : string list
(** The closed protocol registry campaign cubes enumerate: ["eig"],
    ["phase-king"], ["flood-vote"]. *)

val campaign_applies : protocol:string -> Graph.t -> f:int -> bool
(** Whether the protocol's preconditions hold on this cell: EIG needs a
    complete graph and [n > 3f], Phase King a complete graph and [n > 4f],
    flood-vote runs anywhere.  Raises [Invalid_input] on a protocol outside
    {!campaign_protocols}. *)

val campaign_rounds : protocol:string -> family:string -> f:int -> int
(** The protocol's derived horizon on this cell — the round count a
    full-length trial runs, and the upper bound {!campaign_scenario} clamps
    [rounds] to.  Raises [Invalid_input] when inapplicable. *)

val campaign_scenario : scenario -> chaos_outcome
(** Run one explicit-control scenario (see {!type:scenario}).  Raises
    [Invalid_input] on malformed families, strategy specs, out-of-range
    nodes, or inapplicable protocols. *)

val describe : t -> Value.t
(** The canonical descriptor: problem, topology, n, f, protocol, horizon.
    {!key} pairs it with its fingerprint as the verdict cache's key. *)

val key : t -> Fingerprint.key
val label : t -> string

val cost : t -> int
(** Relative work estimate ([>= 1], unitless): executions x n^2 x horizon.
    The engine hands these to {!Pool.map} so batches dispatch largest-first;
    only the ordering between jobs matters.  Never raises — a malformed
    spec costs [1] and fails in {!run}. *)

val run : t -> verdict
(** Execute the job sequentially in the calling domain, uncached. *)

val equal_verdict : verdict -> verdict -> bool
(** Structural equality on the data projection (certificates compare by
    contradiction flag and verdict line; their traces are not re-compared). *)

val verdict_to_value : verdict -> Value.t option
(** The persistent-store projection.  [Cell], [Conn], and [Chaos] verdicts
    are plain data and project faithfully; [Cert] verdicts carry traces and
    device closures, have no first-order projection, and return [None] —
    they are recomputed rather than resumed. *)

val verdict_of_value : Value.t -> verdict option
(** Inverse of {!verdict_to_value} ([verdict_of_value (verdict_to_value v)
    = Some v] for storable verdicts); [None] on anything malformed — a
    store record that does not parse is treated as a miss, never trusted. *)

val pp_verdict : Format.formatter -> verdict -> unit
