(** The §4/§5 ring construction behind Theorems 2 and 4 ({!Weak_ring},
    {!Firing_ring}).

    Install the triangle devices around a ring of [3m] nodes, the first
    half with input [false] and the second with [true] (for the firing
    squad: unstimulated, stimulated).  Every ring edge is a two-node
    scenario of a correct triangle run with the third node faulty, so the
    problem's linking condition chains around the ring.  Two fault-free
    anchor runs pin the ends: a ring node more than [through] hops from
    the other arc behaves, through round [through], exactly like the
    unanimous anchor of its own arc (Lemma 3, checked on the traces and
    reported in the notes). *)

val certify :
  who:string ->
  problem:string ->
  theorem:string ->
  bound:string ->
  header:(ring_len:int -> string) ->
  anchors:string * string ->
  deep:string * string ->
  fate:(Trace.t -> Graph.node -> string option) ->
  fate_note:(string option -> string) ->
  fates:string ->
  check_anchor:(input:bool -> Trace.t -> Violation.t list) ->
  check:(Reconstruct.t -> Violation.t list) ->
  fallback:string ->
  device:(Graph.node -> Device.t) ->
  through:int ->
  ?copies:int ->
  horizon:int ->
  unit ->
  Certificate.t
(** [who] prefixes precondition errors; [theorem] and [bound] (the name of
    [through]) make the description; [header ~ring_len] is the first
    note.  [anchors] labels the input-[false] and input-[true] anchor runs,
    which [check_anchor] checks; [deep] labels their Lemma 3 notes.
    [fate trace u] is what node [u] did in [trace] (its decision, its
    firing round), [fate_note] says it in a deep note, and the last note
    lists it for every ring node after [fates].  [check] checks each ring
    edge's run.  [copies] is [m]: even, and by default the least that gives
    each arc a node more than [through] hops from the other. *)
