(** Rule family 2 — concurrency hygiene for the engine and store layers.

    Syntactic, conservative lock-discipline checks: every [Mutex.lock]
    must provably release on all paths (or be [Fun.protect]-guarded),
    [Condition.wait] must sit under its lexically-held mutex, and no lock
    may be taken inside a critical section already holding another.
    Intentional patterns the analysis cannot prove (condvar follower
    loops, deliberate two-level lock orders) carry inline suppressions
    with their justification. *)

type sites
(** Lock, wait and held-region sites gathered over one file. *)

val sites : unit -> sites

val visit : sites -> Parsetree.expression -> call:Lint_ast.call option -> unit
(** Record one node of the file walk ([call]: its peeled application, if
    it is one). *)

val report : active:Lint_rule.id list -> sites -> Lint_rule.finding list
(** The three checks over a file's sites; only rules listed in [active]
    fire. *)
