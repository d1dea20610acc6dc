(** Per-execution flat trace storage: one array of node states and one of
    sent messages.

    The arena keeps the very values the devices produced, so a reader
    ({!Trace}) and the next step of a device get back the same objects the
    device returned.  One arena belongs to one execution on one domain; it
    is not thread-safe. *)

type t

val create : n:int -> rounds:int -> arity:(int -> int) -> t
(** [arity u] is node [u]'s port count (its degree). *)

val n : t -> int
val rounds : t -> int

val set_state : t -> int -> int -> Value.t -> unit
(** [set_state a u r v]: state of node [u] after [r] steps, [r] in
    [0..rounds]. *)

val state : t -> int -> int -> Value.t

val set_sent : t -> int -> port:int -> round:int -> Value.t option -> unit
(** [round] in [0..rounds-1].  Slots start absent. *)

val sent : t -> int -> port:int -> round:int -> Value.t option

val message_count : t -> int
(** Present (non-silent) sent slots. *)

val iter_messages : (int -> Value.t -> unit) -> t -> unit
(** Present messages as (sender, value); sender-major, then port, then
    round. *)
