type id =
  | Locality_random
  | Locality_time
  | Locality_domain
  | Locality_hash
  | Locality_mutable_state
  | Concurrency_lock_pairing
  | Concurrency_condvar
  | Concurrency_nested_lock
  | Hygiene_obj_magic
  | Hygiene_poly_compare
  | Hygiene_untyped_raise
  | Lint_suppression
  | Lint_parse
  (* The deep (interprocedural) catalog: transitive effects reached through
     the whole call chain, and the global lock-order graph.  Only `--deep`
     runs these; the shallow scope table never activates them. *)
  | Deep_random
  | Deep_time
  | Deep_io
  | Deep_domain
  | Deep_state
  | Concurrency_lock_order

type family = Locality | Concurrency | Hygiene | Meta

let family = function
  | Locality_random | Locality_time | Locality_domain | Locality_hash
  | Locality_mutable_state | Deep_random | Deep_time | Deep_io | Deep_domain
  | Deep_state ->
    Locality
  | Concurrency_lock_pairing | Concurrency_condvar | Concurrency_nested_lock
  | Concurrency_lock_order ->
    Concurrency
  | Hygiene_obj_magic | Hygiene_poly_compare | Hygiene_untyped_raise -> Hygiene
  | Lint_suppression | Lint_parse -> Meta

let to_string = function
  | Locality_random -> "locality/random"
  | Locality_time -> "locality/time"
  | Locality_domain -> "locality/domain"
  | Locality_hash -> "locality/hashtbl-hash"
  | Locality_mutable_state -> "locality/mutable-state"
  | Concurrency_lock_pairing -> "concurrency/lock-pairing"
  | Concurrency_condvar -> "concurrency/condvar-discipline"
  | Concurrency_nested_lock -> "concurrency/nested-lock"
  | Hygiene_obj_magic -> "hygiene/obj-magic"
  | Hygiene_poly_compare -> "hygiene/poly-compare"
  | Hygiene_untyped_raise -> "hygiene/untyped-raise"
  | Lint_suppression -> "lint/suppression"
  | Lint_parse -> "lint/parse"
  | Deep_random -> "locality/transitive-random"
  | Deep_time -> "locality/transitive-time"
  | Deep_io -> "locality/transitive-io"
  | Deep_domain -> "locality/transitive-domain"
  | Deep_state -> "locality/transitive-state"
  | Concurrency_lock_order -> "concurrency/lock-order-cycle"

let all =
  [ Locality_random; Locality_time; Locality_domain; Locality_hash;
    Locality_mutable_state; Concurrency_lock_pairing; Concurrency_condvar;
    Concurrency_nested_lock; Hygiene_obj_magic; Hygiene_poly_compare;
    Hygiene_untyped_raise; Lint_suppression; Lint_parse; Deep_random;
    Deep_time; Deep_io; Deep_domain; Deep_state; Concurrency_lock_order ]

let of_string s = List.find_opt (fun id -> to_string id = s) all

let describe = function
  | Locality_random ->
    "protocol/device code may not draw from Random; seeded randomness goes \
     through Fault_prng"
  | Locality_time ->
    "protocol/device code may not read ambient time or the OS environment \
     (Sys.time, Unix.*)"
  | Locality_domain ->
    "protocol/device code may not touch shared-memory primitives (Domain, \
     Atomic, Mutex, Condition, Thread, Effect)"
  | Locality_hash ->
    "Hashtbl.hash is a representation hash, not part of the model; derive \
     coins from inputs instead (or suppress with a determinism argument)"
  | Locality_mutable_state ->
    "no mutable top-level state (ref / Array.make / Bytes / Hashtbl.create \
     at structure level) in protocol/device modules"
  | Concurrency_lock_pairing ->
    "every Mutex.lock must be guarded by Fun.protect ~finally:unlock or \
     released on all branches of its continuation"
  | Concurrency_condvar ->
    "Condition.wait must appear under a lexically-held matching mutex"
  | Concurrency_nested_lock ->
    "no Mutex.lock inside a critical section that already holds another \
     lock (Fun.protect body or with_* helper closure)"
  | Hygiene_obj_magic -> "Obj.magic is forbidden everywhere"
  | Hygiene_poly_compare ->
    "no polymorphic =/<>/compare on Fingerprint.t or cache key values; \
     use Fingerprint.equal / Fingerprint.equal_key"
  | Hygiene_untyped_raise ->
    "library paths raise through Flm_error, not bare failwith/invalid_arg"
  | Lint_suppression ->
    "malformed suppression comment: expected (* flm-lint: allow <rule> \
     \xe2\x80\x94 reason *)"
  | Lint_parse -> "the file could not be parsed as an OCaml implementation"
  | Deep_random ->
    "a function in Locality scope transitively reaches Random.* through its \
     call chain (deep lint; the witness path names every hop)"
  | Deep_time ->
    "a function in Locality scope transitively reads ambient time or the OS \
     environment through its call chain (deep lint)"
  | Deep_io ->
    "a function in Locality scope transitively performs ambient I/O \
     (stdout/stderr, files, channels) through its call chain (deep lint)"
  | Deep_domain ->
    "a function in Locality scope transitively touches shared-memory \
     primitives through its call chain (deep lint)"
  | Deep_state ->
    "a function in Locality scope transitively touches another module's \
     top-level mutable state through its call chain (deep lint)"
  | Concurrency_lock_order ->
    "the global lock-order graph (mutex nodes, observed acquisition-order \
     edges, composed through the call graph) contains a cycle: two \
     acquisition paths can deadlock (deep lint)"

type finding = {
  rule : id;
  file : string;
  line : int;
  col : int;
  message : string;
  witness : string list;
}

let finding ?(witness = []) ~rule ~file ~line ~col message =
  { rule; file; line; col; message; witness }

let of_location ?(witness = []) ~rule ~message (loc : Location.t) =
  {
    rule;
    file = loc.Location.loc_start.Lexing.pos_fname;
    line = loc.Location.loc_start.Lexing.pos_lnum;
    col =
      loc.Location.loc_start.Lexing.pos_cnum
      - loc.Location.loc_start.Lexing.pos_bol;
    message;
    witness;
  }

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col (to_string f.rule)
    f.message;
  if f.witness <> [] then
    Format.fprintf ppf "@.    witness: %s" (String.concat " -> " f.witness)

(* The deterministic rendering order: (file, line, rule id) first — the
   satellite contract — then col and message so equal-position findings
   from different rules still sort stably. *)
let compare_finding a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match String.compare (to_string a.rule) (to_string b.rule) with
      | 0 -> (
        match Int.compare a.col b.col with
        | 0 -> String.compare a.message b.message
        | c -> c)
      | c -> c)
    | c -> c)
  | c -> c

let equal_finding (a : finding) (b : finding) =
  a.rule = b.rule && a.file = b.file && a.line = b.line && a.col = b.col
  && a.message = b.message
