(** Theorem 2: weak agreement is impossible on the triangle (hence on any
    inadequate graph) under the Bounded-Delay Locality axiom.

    Construction (paper §4): install the triangle devices around a ring of
    [3m] nodes — half the ring with input 0, half with input 1.  Every
    adjacent ring pair is a scenario of a correct triangle run with the third
    node faulty, so the agreement condition chains around the ring: all ring
    nodes must decide alike.  But a node more than [deadline] hops from every
    input-1 node behaves, through the decision deadline, exactly like the
    all-0 fault-free run (Lemma 3, the executable Bounded-Delay argument) and
    so decides 0 — and symmetrically for 1.  Contradiction.

    The certificate ({!Ring_argument}) contains the two fault-free anchor
    runs, one reconstructed pair run per ring edge, and the mechanically
    checked Lemma-3 prefix equalities (in its notes). *)

val certify :
  device:(Graph.node -> Device.t) ->
  deadline:int ->
  ?copies:int ->
  horizon:int ->
  unit ->
  Certificate.t
(** [device w]: the alleged weak-agreement device for node [w] of K₃;
    [deadline]: the Choice bound (rounds by which devices must decide);
    [copies]: ring length / 3, even, defaulted so both input arcs are longer
    than [2 * (deadline + 1)]; [horizon >= deadline]. *)
