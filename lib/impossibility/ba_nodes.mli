(** Theorem 1, node bound: Byzantine agreement is impossible with [n <= 3f].

    The construction (paper §3.1): partition the nodes into nonempty sets
    [a], [b], [c] of size at most [f]; build the double cover of [G] with the
    a–c edges crossed (for the triangle this is the hexagon); give copy 0
    input [v0] and copy 1 input [v1]; reconstruct
    - [E1]: [b ∪ c] correct (copy 0, all inputs [v0]), [a] faulty — validity
      pins the decision to [v0];
    - [E2]: [a] (copy 1) and [c] (copy 0) correct, [b] faulty — agreement
      links the two copies;
    - [E3]: [a ∪ b] correct (copy 1, inputs [v1]), [c] faulty — validity
      pins [v1].
    The three conditions cannot all hold; the certificate reports which one
    breaks for the supplied devices. *)

val default_partition :
  Graph.t -> f:int -> Graph.node list * Graph.node list * Graph.node list
(** Split [0..n-1] into consecutive thirds of size ≤ f (requires
    [3 <= n <= 3f]). *)

val certify :
  ?signed:bool ->
  ?partition:Graph.node list * Graph.node list * Graph.node list ->
  device:(Graph.node -> Device.t) ->
  v0:Value.t ->
  v1:Value.t ->
  horizon:int ->
  f:int ->
  Graph.t ->
  Certificate.t
(** [device w] must be the alleged agreement device for node [w] of the
    target graph; [horizon] must cover its decision round. *)
