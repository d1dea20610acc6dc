(** The exponential-information-gathering tree, shared by EIG consensus
    ({!Eig}) and rooted EIG broadcast ({!Broadcast}), and the relay device
    both of them run.

    Labels are sequences of distinct node ids; the value at label
    [j1; …; jr] is "jr told me that j(r-1) told jr that … j1's value is v".
    A tree is one dense array per level, so absorbing, encoding and
    resolving are index arithmetic; devices keep the tree itself, and its
    sorted-assoc [Value] encoding ({!to_value}) is built only when a trace
    reader projects a state.  Every
    function taking a label raises [Invalid_argument] on one with an
    out-of-range or repeated id. *)

type t

val empty : n:int -> t
(** The empty tree over node ids [0 .. n-1]. *)

val label_key : Graph.node list -> Value.t

val to_value : t -> Value.t
(** Sorted assoc encoding, byte-identical to the historical format. *)

val find : t -> Graph.node list -> Value.t option

val add : t -> Graph.node list -> Value.t -> t
(** First write wins; later claims for the same label are ignored. *)

val level : t -> int -> (Graph.node list * Value.t) list
(** Entries whose label has the given length, in label order. *)

val resolve : f:int -> default:Value.t -> t -> Graph.node list -> Value.t
(** Bottom-up majority resolution ("newval"): labels longer than [f] are
    leaves read off the tree ([default] when absent); an inner label takes
    the strict majority of its children [label @ [j]], [j] not in [label],
    falling back to [default]. *)

val majority : default:Value.t -> Value.t list -> Value.t
(** Strict majority of a vote multiset, or [default]. *)

val relay_device :
  name:string ->
  n:int ->
  f:int ->
  me:Graph.node ->
  default:Value.t ->
  init:(Value.t -> Value.t option * Value.t option) ->
  root:Graph.node list ->
  Device.t
(** The EIG relay device at node [me] of [K_n].  [init input] is the initial
    decision and the value seeded at the empty label.  For [f+1] steps it
    broadcasts the current level's labels not containing [me] (silent at
    step 0 when the empty label is unset), and takes a claim [(sigma, v)]
    from [j] as [val(sigma . j) = v] when [sigma] is a label of the level
    just sent, without [j], and [sigma . j] extends [root].  At step [f+1]
    an undecided device decides [resolve root].  The state is a record of
    the step, the decision and the tree itself; it projects to the triple
    [(step, decision, tree)], the tree in its {!to_value} encoding. *)
