(** Hash-consing of {!Value.t} into small dense integer ids.

    The flat execution arena ({!Arena} in [lib/system]) stores per-round
    node states and messages as ids in int bigarrays; this table is the
    id ⇄ value boundary.  Small values dedup on structural equality
    ([Value.equal], with a full-depth structural hash rather than the
    truncated [Hashtbl.hash]); values past a size bound — protocol states
    that grow with the round and never recur — are appended without the
    traversal.  Either way [value t (intern t v)] is the first physical
    value stored for [v]'s id and is structurally identical to [v] — the
    property that keeps a decoded trace byte-identical to what the devices
    produced.

    Id [0] is reserved to mean "absent" (a silent port-round slot); real
    ids are dense from 1.  A table belongs to one execution on one domain
    and is not thread-safe. *)

type t

val absent : int
(** The reserved id [0]; never returned by {!intern}. *)

val create : ?initial_capacity:int -> unit -> t

val intern : t -> Value.t -> int
(** The id of [v], allocating a fresh one on first sight.  Pointer-equal
    repeats (the common case: one payload fanned out to every port, one
    state decoded repeatedly) short-circuit without hashing; small values
    additionally dedup structurally. *)

val intern_opt : t -> Value.t option -> int
(** [None] maps to {!absent}. *)

val value : t -> int -> Value.t
(** Raises [Invalid_argument] on {!absent} or an id never handed out. *)

val value_opt : t -> int -> Value.t option

val count : t -> int
(** Distinct values interned so far. *)
