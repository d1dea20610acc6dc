(** Communication graphs.

    FLM communication graphs are directed graphs whose edges occur in
    symmetric pairs: [(u,v)] is an edge iff [(v,u)] is.  We store the
    undirected structure (sorted adjacency arrays) and expose both the
    undirected view (used by builders and connectivity) and the directed view
    (used by traces, where each direction carries its own behavior). *)

type node = int

type t
(** Immutable; nodes are [0 .. n-1]. *)

val make : n:int -> (node * node) list -> t
(** [make ~n edges] builds the symmetric closure of [edges].  Self-loops and
    duplicate edges are rejected with [Invalid_argument], as are endpoints
    outside [0..n-1]. *)

val n : t -> int
val nodes : t -> node list
val neighbors : t -> node -> node list
(** Sorted ascending. *)

val degree : t -> node -> int
val min_degree : t -> int
val mem_edge : t -> node -> node -> bool
val is_node : t -> node -> bool

val undirected_edges : t -> (node * node) list
(** Each pair once, [(u,v)] with [u < v], lexicographic. *)

val edge_count : t -> int
(** Number of undirected edges. *)

val equal : t -> t -> bool

val induced : t -> node list -> t * node array
(** [induced g us] is the subgraph induced by [us] with nodes renumbered
    [0..]; the array maps new ids back to old ids. *)

val is_connected : t -> bool

val distances : t -> node -> int array
(** BFS hop distances from a node; [max_int] when unreachable. *)

val pp : Format.formatter -> t -> unit

val to_dot : ?labels:(node -> string) -> t -> string
(** Graphviz rendering, for documentation and examples. *)
