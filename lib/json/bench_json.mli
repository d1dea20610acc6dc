(** The project's one JSON codec: a dependency-free JSON tree with a
    printer, a strict parser, one set of strict field readers that every
    decoder in [lib] uses ({!Read}), and the [BENCH_<exp>.json] schema used
    by the experiment harness (see EXPERIMENTS.md and the README's
    Performance section).  The module keeps its historical name because the
    benchmark program calls it by that name.

    The bench schema: one top-level object per experiment with
    - ["experiment"] — the experiment id (["E18"], ...),
    - ["schema_version"] — {!schema_version},
    - ["config"] — the experiment's parameters,
    - ["runs"] — a list of measurements, each with ["label"], ["jobs"],
      ["wall_seconds"], and usually ["cache_hit_rate"] plus per-experiment
      extras,
    - optional ["derived"] — summary figures (speedups, overheads).

    {!validate} checks exactly that contract, so a CI smoke test can fail on
    a malformed emitter without pinning every field. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val quantize_us : float -> float
(** Round to microsecond fixed-point (6 decimal places).  Timings quantized
    at construction serialize as short fixed-point literals instead of
    17-significant-digit dumps of the raw measurement; NaN and magnitudes
    at or above 1e9 pass through unchanged.  Quantized or not, every finite
    float round-trips exactly through {!to_string} and {!parse}; NaN and
    the infinities print as [nan]/[inf], which JSON and {!parse} reject. *)

val to_string : t -> string
(** Pretty-printed JSON, newline-terminated. *)

val write_file : path:string -> t -> unit

val parse : string -> (t, string) result
(** Strict: rejects trailing garbage; [\u] escapes outside ASCII decode to
    ['?'] (labels in this schema are ASCII). *)

val member : string -> t -> t option
val to_int_opt : t -> int option

val to_float_opt : t -> float option
(** Accepts [Int] too — JSON does not distinguish. *)

val to_string_opt : t -> string option
val to_list_opt : t -> t list option

(** Strict field readers.  A decoder opens a value with {!obj}, may reject
    fields outside an allowed set with {!only}, and reads each field with
    one lookup; every field is required unless its reader says otherwise,
    and on duplicate keys the first wins.  Each failure is a message in one
    vocabulary (["expected an object"], ["unknown field \"k\""], ["missing
    field \"k\""], ["field \"k\" must be an integer"], ...) handed to the
    [fail] the object was opened with, so each decoder picks its own error
    type and prefix. *)
module Read : sig
  type 'e obj

  val obj : fail:(string -> 'e) -> t -> ('e obj, 'e) result
  val fail : 'e obj -> string -> ('a, 'e) result
  val only : 'e obj -> string list -> (unit, 'e) result
  val field : 'e obj -> string -> (t, 'e) result
  val int : 'e obj -> string -> (int, 'e) result

  val int_opt : 'e obj -> string -> (int option, 'e) result
  (** [None] when absent. *)

  val number : 'e obj -> string -> (float, 'e) result
  (** Accepts [Int] too. *)

  val string : 'e obj -> string -> (string, 'e) result

  val enum : 'e obj -> string -> (string -> 'a option) -> ('a, 'e) result
  (** A string field decoded by the given parser. *)

  val bool : 'e obj -> string -> (bool, 'e) result

  val bool_or_null : 'e obj -> string -> (bool option, 'e) result
  (** [null] reads as [None]. *)

  val list : 'e obj -> string -> (t list, 'e) result
  val ints : 'e obj -> string -> (int list, 'e) result
  val strings : 'e obj -> string -> (string list, 'e) result

  val all : ('a, 'e) result list -> ('a list, 'e) result
  (** The first error in list order, or every value. *)
end

val schema_version : int

val run_record :
  label:string ->
  jobs:int ->
  wall_seconds:float ->
  ?cache_hit_rate:float ->
  ?extra:(string * t) list ->
  unit ->
  t

val bench_record :
  experiment:string ->
  config:(string * t) list ->
  ?derived:(string * t) list ->
  runs:t list ->
  unit ->
  t

val validate : t -> (unit, string) result
(** Check the [BENCH_<exp>.json] contract above. *)
