(** Rule family 3 — error/equality hygiene.

    [Obj.magic] is banned repo-wide; polymorphic [=]/[compare] may not
    touch [Fingerprint.t] or cache key values ([Fingerprint.equal_key]
    checks the fingerprint before the descriptor); engine/store library paths raise typed
    [Flm_error]s, never bare [failwith]/[invalid_arg]. *)

val visit :
  report:(Lint_rule.id -> Location.t -> string -> unit) ->
  poly:bool ->
  Parsetree.expression ->
  path:string list ->
  call:Lint_ast.call option ->
  unit
(** Check one node of the file walk ([path]: its identifier path, [] if it
    is none; [call]: its peeled application, if it is one).  [poly] says
    whether [hygiene/poly-compare] is in force; the fingerprint operand
    scan runs only then. *)
