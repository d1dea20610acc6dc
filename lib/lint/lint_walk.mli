(** One walk per file: the shallow rule families and the call-graph
    summary from a single pre-order pass over the parsed tree. *)

val file :
  path:string ->
  active:Lint_rule.id list ->
  Parsetree.structure ->
  Lint_rule.finding list * Lint_callgraph.summary
(** The findings of every rule in [active] (unsorted, before suppressions)
    and the file's call-graph summary: value bindings, including those of
    nested [module M = struct ... end] structures, with their candidate
    callees, effect intrinsics, direct lock sites and lock-order events. *)
