(** Whole-repo call-graph extraction for the deep pass.

    Every library in the repo is [(wrapped false)], so module names are
    global and derived from filenames; that makes syntactic, module-
    qualified resolution honest.  Anything unresolvable — stdlib members,
    first-class function values, functor bodies, module aliases — is
    bottom: assumed effect-free and lock-free (the soundness caveats are
    in DESIGN.md §17). *)

(** What is held when an inner acquisition is observed: a mutex by name,
    or a [with_*] helper whose own acquisitions are resolved through the
    graph. *)
type holder = Hmutex of string | Hcall of string

type inner_op = Ilock of string | Icall of string

(** One observed "held [outer], then acquired/called [inner]" fact. *)
type event = { outer : holder; oline : int; inner : inner_op; iline : int }

type def = {
  name : string;  (** short name *)
  ctx : string;  (** enclosing module path, e.g. ["Pool"] or ["Pool.Sub"] *)
  line : int;
  col : int;
  refs : (string * int) list;  (** candidate callees with reference line *)
  intrinsics : Lint_effects.intrinsic list;
  locks : (string * int) list;  (** direct [Mutex.lock] sites *)
  events : event list;
}

type summary = { path : string; modname : string; defs : def list }

val fqn : def -> string
(** [ctx ^ "." ^ name] — the global name under [(wrapped false)]. *)

val modname_of : string -> string
(** Module name from a path, as dune derives it. *)

type facts
(** What the file walk gathers inside one structure-level binding's body:
    candidate callees, effect intrinsics, direct lock sites and lock-order
    events, each first site winning. *)

val facts : unit -> facts

val ident : facts -> Parsetree.expression -> string list -> unit
(** An identifier (with its path) inside the body. *)

val node : facts -> Parsetree.expression -> call:Lint_ast.call option -> unit
(** Any node inside the body ([call]: its peeled application, if it is
    one). *)

val defs_of_binding :
  ctx:string -> Parsetree.value_binding -> facts -> def list
(** The definitions one structure-level binding in module [ctx]
    introduces, one per variable its pattern binds, all sharing the
    body's facts.  A top-level mutable allocation carries a synthesized
    [Mutates] intrinsic. *)

type graph = {
  files : summary array;  (** sorted by path *)
  owner : int array;  (** definition index -> file index *)
  defs : def array;  (** files in order, definitions in source order *)
  adj : int list array;  (** resolved callees per definition *)
  sccs : int list list;  (** strongly connected components, callees first *)
  resolve : ctx:string -> string -> int option;
      (** resolve a reference as extraction recorded it *)
}

val build : summary list -> graph

val sccs_of : int -> (int -> int list) -> int list list
(** Tarjan on an arbitrary integer graph, components emitted callees
    (successors) first — shared with the lock-order cycle check. *)
