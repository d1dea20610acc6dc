(** Committed findings baseline — CI fails only on new findings.

    Matching is by (rule, file, line): message text and witness paths may
    drift as the analysis sharpens, but a finding on a different line has
    been edited and deserves a fresh look.  The workflow: run
    [flm lint --deep --write-baseline lint-baseline.json], review, commit;
    from then on [--baseline lint-baseline.json] subtracts the recorded
    findings and reports how many were held back. *)

type key = string * string * int
(** rule id, file, line. *)

val key_of : Lint_rule.finding -> key
val schema_version : int

val load : string -> (key list, string) result
(** A baseline that fails to load is an error, not a cold start: ignoring
    it would resurface every baselined finding and fail CI for the wrong
    reason.  So is one malformed finding entry; the message names it
    ([PATH: findings[i]: ...]). *)

val write : path:string -> Lint_rule.finding list -> unit

val filter :
  baseline:key list -> Lint_rule.finding list -> Lint_rule.finding list * int
(** [(new findings, baselined count)]. *)
