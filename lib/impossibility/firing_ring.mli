(** Theorem 4: the Byzantine firing squad problem is unsolvable on the
    triangle under the Bounded-Delay Locality axiom.

    The ring construction of weak agreement ({!Ring_argument}, §5): one arc
    of the ring receives the stimulus at time 0, the other does not.  Nodes
    deep in the stimulated arc behave, through the firing time [t] of the
    all-stimulated fault-free run, exactly like that run — so they fire at
    [t]; nodes deep in the quiet arc behave like the quiet run — so they do
    not.  The simultaneity condition chains around the ring and must break
    at some adjacent pair; the certificate finds it. *)

val certify :
  device:(Graph.node -> Device.t) ->
  fire_round:int ->
  ?copies:int ->
  horizon:int ->
  unit ->
  Certificate.t
(** [fire_round]: the round at which the all-stimulated fault-free triangle
    run fires (the construction verifies this against the anchor run);
    [horizon > fire_round]. *)
