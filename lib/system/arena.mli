(** Per-execution flat trace storage: an intern table plus int bigarray
    planes for states and sent messages, and a presence bitset over the
    sent plane.

    The executor writes intern ids; readers ({!Trace}) decode through the
    table, so they see values structurally identical to the ones the
    devices produced.  One
    arena belongs to one execution on one domain; it is not thread-safe.

    The presence bitset is the port map for presence-only questions: a
    silent slot is a zero bit, message counting is a popcount over bytes,
    and no decode happens.  *)

type t

val create : n:int -> rounds:int -> arity:(int -> int) -> t
(** [arity u] is node [u]'s port count (its degree). *)

val n : t -> int
val rounds : t -> int
val arity : t -> int -> int

val set_state : t -> int -> int -> Value.t -> unit
(** [set_state a u r v]: state of node [u] after [r] steps, [r] in
    [0..rounds]. *)

val state : t -> int -> int -> Value.t

val set_sent : t -> int -> port:int -> round:int -> Value.t option -> unit
(** [round] in [0..rounds-1].  Slots start absent; [None] is a no-op. *)

val sent : t -> int -> port:int -> round:int -> Value.t option

val sent_present : t -> int -> port:int -> round:int -> bool
(** Bitset probe: no id read, no decode. *)

val message_count : t -> int
(** Popcount of the presence bitset. *)

val iter_messages : (int -> Value.t -> unit) -> t -> unit
(** Present messages as (sender, value); sender-major, then port, then
    round. *)

val interned : t -> int
(** Distinct values interned by this execution. *)
