(** The versioned binary codec for {!Value.t} — the serialization the
    certificate store journals to disk.

    The encoding is canonical and deterministic: one tag byte per
    constructor, fixed 8-byte little-endian integers (and float bits), and a
    4-byte little-endian length prefix on every variable-length form.  Equal
    values therefore encode to equal byte strings, which is what lets the
    store content-address records by their encoded key bytes, and what makes
    "byte-identical verdicts" a meaningful property for resumed sweeps.

    Record payloads additionally carry a leading format-version byte
    ({!version}); a record written by a future incompatible format is
    rejected as malformed rather than misread. *)

val version : int
(** The current record-format version (1). *)

exception Malformed of string
(** Raised by the decoders on truncated input, an unknown tag byte, a length
    that overruns the buffer, nesting deeper than 512 levels, or trailing
    garbage.  It is the only exception they raise, whatever the input.  The
    journal layer turns it into a typed {!Flm_error.Store_corrupt}.  No
    stored value comes near the nesting bound: the deepest, a campaign
    corpus entry, nests 8 levels. *)

val encode : Value.t -> string

val decode : string -> Value.t
(** Decode a whole string ([encode] round-trips); raises {!Malformed} unless
    the input is exactly one well-formed value. *)

val encode_record : key:Value.t -> payload:Value.t -> string
(** [version byte][encoded key][encoded payload] — the journal's record
    payload. *)

val decode_record : string -> Value.t * Value.t
(** Inverse of {!encode_record}; raises {!Malformed} on a version mismatch
    or a malformed body. *)
