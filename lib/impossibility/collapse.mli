(** The paper's footnote 3: collapsing subgraphs into single nodes.

    Given a system on [G] and a partition of [G]'s nodes, there is a natural
    quotient system: each part becomes one node running the {e product} of
    its members' devices (simulating the part's internal edges inside its own
    state), and each quotient edge carries the bundle of messages of the
    underlying cross edges.  The quotient satisfies the Locality and Fault
    axioms whenever the original does, so Byzantine agreement on any
    [n <= 3f] graph collapses onto agreement on (a subgraph of) the triangle
    with [f = 1] — the paper's alternative proof of the general node bound,
    which {!certify_via_triangle} executes. *)

val quotient_graph : Graph.t -> parts:Graph.node list list -> Graph.t
(** One node per part (in list order); an edge between two parts iff some
    member edge crosses them.  Parts must partition [0..n-1] into nonempty
    sets. *)

val device :
  System.t -> parts:Graph.node list list -> part_index:int -> Device.t
(** The product device of part [part_index]'s members: internal messages are
    delivered inside the device state with the usual one-round delay, cross
    messages are bundled onto the quotient ports keyed by (src, dst).  Its
    input is {e replicated} to every member; its decision is the
    [Value.list] of member decisions, present once all members decided. *)

val system : System.t -> parts:Graph.node list list -> System.t
(** The full quotient system of a system.  Each quotient node's input is the
    list of its members' original inputs (so [device]'s replication is
    bypassed — members get exactly their original inputs). *)

val member_states : Value.t -> Value.t list
(** Decompose a product-device state into the members' states (part order). *)

val certify_via_triangle :
  device:(Graph.node -> Device.t) ->
  v0:Value.t ->
  v1:Value.t ->
  horizon:int ->
  f:int ->
  Graph.t ->
  Certificate.t
(** Footnote 3, executable: partition the [n <= 3f] complete graph into
    three parts, collapse the alleged agreement devices into three product
    devices for the triangle (inputs replicated to members, decisions folded
    by majority), and run the f = 1 hexagon certificate against them. *)
