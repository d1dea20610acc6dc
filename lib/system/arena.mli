(** Per-execution flat trace storage: every node's states, each in its
    device's own state type, and one array of sent messages.

    The arena keeps the very states and messages the devices produced, so
    each step of a device gets back the state it returned last round.  A
    state's [Value] encoding is its device's [project], computed only when
    a reader asks for it ({!project}) and then kept, once per (node,
    round).  One arena belongs to one execution on one domain; a trace
    reader racing on another domain recomputes an equal projection. *)

type t

val create : System.t -> rounds:int -> t
(** Each node's state 0 is its device's [init] on its input. *)

val n : t -> int
val rounds : t -> int

val step : t -> int -> round:int -> inbox:Value.t option array -> Value.t option array
(** [step a u ~round ~inbox] runs node [u]'s device (checked, see
    {!Device.step_checked}) on its state after [round] steps, records the
    next state, and returns the sends.  [round] in [0..rounds-1]. *)

val output : t -> int -> int -> Value.t option
(** [output a u r]: the device's decision in node [u]'s state after [r]
    steps, read off the state itself. *)

val project : t -> int -> int -> Value.t
(** [project a u r]: the encoding of node [u]'s state after [r] steps, [r]
    in [0..rounds]; every call for one (node, round) returns the same
    value. *)

val set_sent : t -> int -> port:int -> round:int -> Value.t option -> unit
(** [round] in [0..rounds-1].  Slots start absent. *)

val sent : t -> int -> port:int -> round:int -> Value.t option

val message_count : t -> int
(** Present (non-silent) sent slots. *)

val iter_messages : (int -> Value.t -> unit) -> t -> unit
(** Present messages as (sender, value); sender-major, then port, then
    round. *)
