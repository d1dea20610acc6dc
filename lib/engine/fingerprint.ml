type t = int64

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

(* The hashers below keep the running hash in a local reference, which the
   compiler holds unboxed: a hasher boxes one [int64], the one it returns,
   however many bytes it folds in.  Each starts with its constructor's tag
   byte, so hashing one [Value.t] node boxes at most once. *)

(* The eight bytes of [x], least significant first. *)
let[@inline] add_bytes64 h x =
  let h = ref h in
  for i = 0 to 7 do
    h := byte !h (Int64.to_int (Int64.shift_right_logical x (8 * i)))
  done;
  !h

let[@inline] add_int64 h tag x = add_bytes64 (byte h tag) x

let add_string h tag s =
  let h = ref (add_bytes64 (byte h tag) (Int64.of_int (String.length s))) in
  for i = 0 to String.length s - 1 do
    h := byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* Each constructor contributes a distinct tag byte, and every
   variable-length form is length-prefixed, so the encoding is
   prefix-unambiguous: distinct values produce distinct byte streams. *)
let rec add_value h (v : Value.t) =
  match v with
  | Value.Unit -> byte h 0x10
  | Value.Bool b -> byte (byte h 0x11) (if b then 1 else 0)
  | Value.Int i -> add_int64 h 0x12 (Int64.of_int i)
  | Value.Float f -> add_int64 h 0x13 (Int64.bits_of_float f)
  | Value.String s -> add_string h 0x14 s
  | Value.Pair (a, b) -> add_value (add_value (byte h 0x15) a) b
  | Value.List vs ->
    List.fold_left add_value
      (add_int64 h 0x16 (Int64.of_int (List.length vs)))
      vs
  | Value.Tag (c, payload) -> add_value (add_string h 0x17 c) payload

let of_value v = add_value fnv_offset v
let equal = Int64.equal

(* --- cache keys ----------------------------------------------------------- *)

type key = { desc : Value.t; fp : t }

let of_key k = k.fp
let intern desc = { desc; fp = of_value desc }

(* Physical equality first, for a key compared with itself; otherwise equal
   fingerprints and structurally equal descriptors.  The fingerprint is never
   trusted alone, so a collision costs a descriptor compare, not a wrong
   entry. *)
let equal_key a b = a == b || (Int64.equal a.fp b.fp && Value.equal a.desc b.desc)
let clear () = ()
