(** Boundary sweeps: the experimental tables that trace the 3f+1 and 2f+1
    frontiers (experiments E3, E10, E11).

    Each sweep pits a real protocol against both sides of a bound: on the
    adequate side it must survive an adversary zoo; on the inadequate side
    the certificate engine must dismantle it.

    The per-cell entry points ({!nf_cell}, {!connectivity_cell}) are what the
    parallel {!Engine} fans out over; the [*_boundary] functions are their
    sequential compositions and define the reference semantics.  A cell
    executes every run it needs; caching happens one level up, where the
    engine keeps whole cells by job descriptor. *)

type cell = {
  n : int;
  f : int;
  adequate : bool;  (** the theoretical predicate: n ≥ 3f+1 ∧ κ ≥ 2f+1 *)
  survived_attacks : bool option;
      (** adequate side: did EIG satisfy all conditions under the adversary
          zoo?  [None] on the inadequate side. *)
  certificate_broke_it : bool option;
      (** inadequate side: did the covering certificate find a
          contradiction?  [None] on the adequate side. *)
}

val nf_cell : n:int -> f:int -> unit -> cell
(** One cell of the 3f+1 table on the complete graph K_n: zoo survival when
    adequate, covering certificate when inadequate.  [n >= 3] required. *)

val survives_zoo : n:int -> f:int -> unit -> bool
(** The adequate-side adversary zoo on K_n (silent, crash, split-brain,
    babbler over a grid of input patterns and faulty sets). *)

val nf_grid : n_max:int -> f_max:int -> (int * int) list
(** The (n, f) pairs of the boundary sweep — 3 ≤ n ≤ [n_max] inner,
    1 ≤ f ≤ [f_max] outer — in the canonical order.  The single grid
    enumerator shared by {!nf_boundary}, the engine's job builder, and the
    CLI, so the three can never drift apart. *)

val nf_boundary : n_max:int -> f_max:int -> cell list
(** Complete graphs K_n over {!nf_grid}: 3 ≤ n ≤ [n_max], 1 ≤ f ≤ [f_max]. *)

val connectivity_cell :
  f:int -> n:int -> kappa:int -> unit -> int * bool * bool option * bool option
(** One row of the connectivity table on the Harary graph H(κ, n). *)

val connectivity_boundary :
  f:int -> kappas:int list -> n:int -> (int * bool * bool option * bool option) list
(** Harary graphs H(κ, n) for the given connectivities at fixed [f]:
    (κ, adequate, relay correct under attack?, certificate broke it?).
    Uses Dolev relay + flood-vote as the protocol under test. *)

val pp_nf : Format.formatter -> cell list -> unit
