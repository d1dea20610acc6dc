(** Contradiction certificates.

    A certificate packages one execution of an FLM construction: the
    inadequate target graph, the covering system and its trace, the
    reconstructed runs with their locality witnesses, the violations found by
    the problem's condition checkers, and a verdict.

    Every construction in this library is one {!build} call: the covering,
    the devices and inputs installed in it, and the named overlapping
    scenarios that are read back as correct runs of the target graph.
    [validate] re-derives the locality witnesses and the verdict from the
    recorded runs; it does not re-run the condition checkers, which needs
    the certificate to name its devices and checker as data. *)

type verdict =
  | Contradiction of { run_label : string; violations : Violation.t list }
      (** Some reconstructed {e correct} run of the target graph violates
          the problem's conditions: the devices do not solve the problem. *)
  | Fault_axiom_failed of { run_label : string; reason : string }
      (** A locality witness failed: the model does not satisfy the Fault
          axiom (e.g. unforgeable signatures are in force), so the
          construction — correctly — proves nothing. *)
  | Unbroken of string
      (** No violation surfaced.  For deterministic devices and the
          constructions in this library this is unreachable when every
          locality witness holds; kept for totality. *)

type t = {
  problem : string;
  description : string;
  target : Graph.t;
  f : int;
  covering : Covering.t;
  covering_trace : Trace.t;
  runs : (Reconstruct.t * Violation.t list) list;
  aux : (string * Trace.t * Violation.t list) list;
      (** auxiliary {e fault-free} anchor runs of the target graph (the §4/§5
          "all inputs equal" behaviors that pin the two ends of a chain);
          they need no covering scenario, hence no locality witness *)
  notes : string list;  (** construction-specific observations, in order *)
  verdict : verdict;
}

val decide :
  ?aux:(string * Trace.t * Violation.t list) list ->
  runs:(Reconstruct.t * Violation.t list) list ->
  fallback:string ->
  unit ->
  verdict
(** Standard verdict rule: first reconstructed run whose locality failed wins
    [Fault_axiom_failed]; otherwise the first anchor or reconstructed run
    with violations wins [Contradiction]; otherwise [Unbroken fallback]. *)

val build :
  ?signed:bool ->
  ?aux:(string * Trace.t * Violation.t list) list ->
  ?notes:(Trace.t -> string list) ->
  problem:string ->
  description:string ->
  f:int ->
  covering:Covering.t ->
  device:(Graph.node -> Device.t) ->
  input:(Graph.node -> Value.t) ->
  horizon:int ->
  scenarios:(string * (Graph.node -> int option)) list ->
  check:(Reconstruct.t -> Violation.t list) ->
  fallback:string ->
  unit ->
  t
(** The covering argument, run.  Install [device] (a device per node of the
    target) with [input] (per {e source} node) in the covering, run it
    fault-free for [horizon] rounds, reconstruct each named scenario
    [(label, chi)] as a run of the target ({!Reconstruct.run}), [check] it,
    and {!decide} with [aux] and [fallback].  [notes] renders observations
    of the covering trace.  The target is [covering]'s target graph. *)

val edge_scenario :
  Covering.t -> Graph.node -> Graph.node -> Graph.node -> int option
(** [edge_scenario covering i j] places the targets of the adjacent source
    nodes [i] and [j] at their copies and leaves the rest faulty: the
    two-node scenario of a ring edge. *)

val is_contradiction : t -> bool

val verdict_line : t -> string
(** A one-line rendering of the verdict, e.g.
    ["CONTRADICTION in E2 (agreement)"] — used by the bench tables and the
    engine's job summaries. *)

val validate : t -> (unit, string) result
(** Re-verify from the recorded data: the graph is inadequate for [f], the
    covering is a covering, every run's locality witness matches a fresh
    comparison of its trace with the covering trace, and the verdict is the
    one {!decide} gives for the recorded runs and violations.  The recorded
    violations themselves are taken as given: re-checking them waits on a
    first-order certificate that names its checker. *)

val pp_summary : Format.formatter -> t -> unit
val pp : Format.formatter -> t -> unit
