(** Stable fingerprints and structural cache keys.

    A fingerprint is a 64-bit FNV-1a hash of a {!Value.t} descriptor under a
    prefix-unambiguous encoding (constructor tag bytes + length prefixes).
    Fingerprints are deterministic across runs, domains, and processes —
    unlike [Hashtbl.hash] they never truncate the structure — so they are
    safe to persist and to use as shard keys.

    Soundness note: the verdict cache never trusts a fingerprint alone.
    Keys carry their full descriptor and the cache compares descriptors
    structurally on every lookup, so a fingerprint collision costs a bucket
    scan, never a wrong verdict. *)

type t = int64

val of_value : Value.t -> t
val equal : t -> t -> bool

(** {1 Cache keys}

    A key pairs a descriptor with its fingerprint, computed once when the key
    is built.  Keys compare by structure: two keys built separately from
    equal descriptors are equal, so a cache needs no shared table of keys. *)

type key

val intern : Value.t -> key
(** [intern desc] pairs [desc] with [of_value desc].  Pure; callable from any
    domain. *)

val of_key : key -> t

val equal_key : key -> key -> bool
(** Physical equality, falling back to fingerprint + structural descriptor
    comparison. *)

val clear : unit -> unit
(** A no-op: keys hold no process-wide state.  Kept for callers that reset
    caches before a cold run. *)
