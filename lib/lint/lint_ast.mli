(** Small parsetree helpers shared by the rule families. *)

val flat : Longident.t -> string list
(** [Longident.flatten], total (Lapply yields []). *)

type call = string list * (Asttypes.arg_label * Parsetree.expression) list
(** A peeled application: head ident path and arguments. *)

val head_call : Parsetree.expression -> call option
(** Peel an application to (head ident path, args), looking through [@@]
    and [|>].  A bare identifier peels to its path with no arguments. *)

val expr_name : Parsetree.expression -> string
(** A stable printable name for an expression — mutex identity. *)

val lock_of : call -> string option
(** [Mutex.lock m] recognizer on a peeled call; returns the mutex name. *)

val protect_of :
  call -> (Parsetree.expression * Parsetree.expression option) option
(** [Fun.protect ~finally:fin body] recognizer: [(fin, body)]. *)

val lock_site : Parsetree.expression -> string option
(** {!lock_of} on an expression. *)

val unlock_site : Parsetree.expression -> string option

val fun_protect :
  Parsetree.expression ->
  (Parsetree.expression * Parsetree.expression option) option

val unlocks_in : Parsetree.expression -> string list
(** The mutexes a subtree (a [~finally] closure) unlocks, in source order,
    repeats included. *)

val is_with_helper : string list -> bool
(** A [with_lock t f] / [with_stripe s f]-style helper path: its last
    component is [with_] followed by a name.  Its closure arguments run
    under the helper's lock. *)

val closure_body : Parsetree.expression -> Parsetree.expression
(** Peel [fun ... ->] parameters down to the body. *)

val iter_expr : Parsetree.expression -> (Parsetree.expression -> unit) -> unit
(** Pre-order over every expression in a subtree — the sub-walks over
    held regions and operands. *)

val within : outer:Location.t -> Location.t -> bool
(** Byte-offset containment. *)
