type t = int64

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let add_int64 h x =
  let rec go h i =
    if i >= 8 then h
    else
      go
        (byte h (Int64.to_int (Int64.shift_right_logical x (8 * i)) land 0xff))
        (i + 1)
  in
  go h 0

let add_int h i = add_int64 h (Int64.of_int i)
let add_bool h b = byte h (if b then 1 else 0)
let add_float h f = add_int64 h (Int64.bits_of_float f)

let add_string h s =
  let h = add_int h (String.length s) in
  String.fold_left (fun h c -> byte h (Char.code c)) h s

(* Each constructor contributes a distinct tag byte, and every
   variable-length form is length-prefixed, so the encoding is
   prefix-unambiguous: distinct values produce distinct byte streams. *)
let rec add_value h (v : Value.t) =
  match v with
  | Value.Unit -> byte h 0x10
  | Value.Bool b -> add_bool (byte h 0x11) b
  | Value.Int i -> add_int (byte h 0x12) i
  | Value.Float f -> add_float (byte h 0x13) f
  | Value.String s -> add_string (byte h 0x14) s
  | Value.Pair (a, b) -> add_value (add_value (byte h 0x15) a) b
  | Value.List vs ->
    List.fold_left add_value (add_int (byte h 0x16) (List.length vs)) vs
  | Value.Tag (c, payload) -> add_value (add_string (byte h 0x17) c) payload

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
