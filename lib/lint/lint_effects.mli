(** Transitive effect inference — the interprocedural half of the Locality
    axiom.  Classifies primitive effect sources ([Random.*], ambient
    time/environment, shared-memory primitives, ambient I/O, top-level
    mutable state), folds them over the call graph by fixpoint over SCCs
    (callees first), and re-checks the scope table against the transitive
    summaries, attaching a witness path to each finding.

    The graph itself is supplied through accessors ([adj], [sccs],
    [intrinsics], [site]) rather than a concrete type so this module stays
    below {!Lint_callgraph}, which depends on the classifier here while
    extracting. *)

type effect_ = Rand | Time | SharedMem | IO | Mutates

val effect_to_string : effect_ -> string
val effect_of_string : string -> effect_ option

(** A primitive effect occurrence at a source site. *)
type intrinsic = { eff : effect_; what : string; iline : int; icol : int }

val intrinsic_of_path : string list -> (effect_ * string) option
(** Classify an identifier path ([["Random"; "int"]]); [None] for anything
    effect-free.  A leading [Stdlib] is stripped first. *)

(** Report-site metadata for definition [d]. *)
type def_site = { dfile : string; dname : string; dline : int; dcol : int }

val check :
  n:int ->
  site:(int -> def_site) ->
  adj:(int -> int list) ->
  sccs:int list list ->
  intrinsics:(int -> intrinsic list) ->
  supps:(string -> Lint_suppress.t list) ->
  Lint_rule.finding list * int
(** The transitive Locality re-check: drop intrinsics already governed at
    their origin (shallow analog active there, inline suppression, or
    directory allow-list), fold the rest over the SCCs callees first, and
    report each surviving effect
    once per (file, rule, primitive) against {!Lint_scope.deep_rules_for}.
    Returns the findings and the count silenced by def-site suppressions;
    each finding carries its witness path, the call chain from the flagged
    definition down to the primitive.
    [site] must iterate files in sorted order and definitions in line
    order — "first seen" is the report site. *)
