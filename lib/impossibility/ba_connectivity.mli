(** Theorem 1, connectivity bound: Byzantine agreement is impossible when
    c(G) <= 2f (and G is not complete).

    Construction (paper §3.2): pick a vertex cut of size ≤ 2f and split it
    into sets [b] and [d] of size ≤ f; let [a] be one side of the cut and
    [c] the other.  Build the double cover with the a–d edges crossed (for
    the 4-cycle with f = 1 this is the 8-ring).  Reconstruct
    - [E1]: a,b,c correct at copy 0 (inputs [v0]), [d] faulty — validity;
    - [E2]: a at copy 1 (input [v1]), c,d at copy 0 ([v0]), [b] faulty —
      agreement bridges the copies across the cut;
    - [E3]: a,b,c correct at copy 1 (inputs [v1]), [d] faulty — validity. *)

val default_cut_split :
  Graph.t ->
  f:int ->
  Graph.node list * Graph.node list * Graph.node list * Graph.node list
(** [(a, b, c, d)]: a minimum vertex cut split into [b], [d] (each ≤ f) and
    the two sides [a], [c].  Requires c(G) ≤ 2f and G connected and
    non-complete. *)

val certify :
  ?signed:bool ->
  ?split:Graph.node list * Graph.node list * Graph.node list * Graph.node list ->
  device:(Graph.node -> Device.t) ->
  v0:Value.t ->
  v1:Value.t ->
  horizon:int ->
  f:int ->
  Graph.t ->
  Certificate.t
