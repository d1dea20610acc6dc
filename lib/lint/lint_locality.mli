(** Rule family 1 — Locality/determinism.

    A protocol/device step must be a deterministic, local function of its
    explicit inputs (the paper's Locality axiom); otherwise the engine's
    memoized verdicts and byte-identical resume are unsound.  Flags
    references to [Random.*], ambient time/environment ([Sys.time],
    [Unix.*]), shared-memory primitives ([Domain]/[Atomic]/[Mutex]/...),
    [Hashtbl.hash], and mutable state bound at structure level. *)

val banned_ident : string list -> (Lint_rule.id * string) option
(** The Locality rule an identifier path breaks, with its message. *)

val mutable_alloc : string list -> string option
(** Allocators whose result is mutable ([ref], [Array.make],
    [Hashtbl.create], ...): binding one at structure level is shared
    mutable module state.  Shared with the deep pass, which treats such
    bindings as [Mutates] origins for transitive-state inference. *)

val scan_step :
  report:(Lint_rule.id -> Location.t -> string -> unit) ->
  Parsetree.expression ->
  path:string list ->
  call:Lint_ast.call option ->
  Parsetree.expression list
(** One step of the structure-level mutable-state scan at an expression
    ([path]: its identifier path, [] if it is none; [call]: its peeled
    application, if it is one): report a mutable allocator as
    [locality/mutable-state], and return the value-shaped sub-expressions
    the scan continues into — none inside a function body. *)
