(** Rule family 3 — error/equality hygiene.

    [Obj.magic] is banned repo-wide; polymorphic [=]/[compare] may not
    touch [Fingerprint.t] or cache key values ([Fingerprint.equal_key]
    checks the fingerprint before the descriptor); engine/store library paths raise typed
    [Flm_error]s, never bare [failwith]/[invalid_arg]. *)

val check :
  active:Lint_rule.id list -> Parsetree.structure -> Lint_rule.finding list
(** Only rules listed in [active] fire. *)
