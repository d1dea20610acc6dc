(** Traces: the behavior of a system.

    A system has exactly one behavior (devices are deterministic).  A trace
    records, for every node, its state sequence (the paper's {e node
    behavior}) and, for every directed edge, the message sequence crossing it
    (the {e edge behavior}).  It is a read-only view over the execution
    {!Arena} the executor filled.  States stay in their devices' own types;
    a node behavior is their [Value] projection, computed on first read and
    then shared by every later read of the same (node, round). *)

type t

val of_arena : system:System.t -> rounds:int -> Arena.t -> t
(** The trace over a filled execution arena; validates shape. *)

val rounds : t -> int
val system : t -> System.t

val node_behavior : t -> Graph.node -> Value.t array
(** The projected states after 0 .. [rounds] steps. *)

val edge_behavior : t -> src:Graph.node -> dst:Graph.node -> Value.t option array
(** Messages sent by [src] to [dst], one slot per round.  Raises [Not_found]
    if there is no such edge. *)

val delivered : t -> dst:Graph.node -> round:int -> Value.t option array
(** The inbox (per port of [dst]) delivered at [round] — messages sent in
    [round - 1]; all-[None] at round 0. *)

val output : t -> Graph.node -> round:int -> Value.t option
(** The node's CHOOSE output in its state after [round] steps, read off the
    device's own state (no projection). *)

val decision : t -> Graph.node -> Value.t option
(** First output that becomes [Some].  Memoized per node. *)

val decision_round : t -> Graph.node -> int option
(** Number of steps after which the decision first appears. *)

val pp : Format.formatter -> t -> unit
(** Compact rendering: per node, name/input/decision; used by examples. *)

(** {1 Statistics} *)

val message_count : t -> int
(** Total messages sent (non-silent port-round slots). *)

val message_volume : t -> int
(** Total size of all messages, in abstract value units: one unit per
    constructor, plus one per 8 bytes of string payload. *)

val messages_by_node : t -> int array
