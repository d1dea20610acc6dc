(* Hash-consing table mapping values to small dense integer ids, used by the
   flat execution arena: per-round states and messages are stored as ids in
   int bigarrays instead of boxed values.  Structural equality is the
   interning key ([Value.equal]), so decoding an id yields a value
   structurally identical to the one stored — which is what keeps decoded
   traces byte-identical to what the devices produced.

   Id 0 is reserved for "absent" ([intern_opt None]); real ids start at 1
   and [value] rejects 0.  The table is single-owner (one arena, one
   execution, one domain) and is not thread-safe. *)

(* Structural FNV-1a-style hash.  [Hashtbl.hash] is depth- and
   width-truncated, which collapses the deep tree states the executor
   interns every round into a handful of buckets; this fold visits the
   whole value.  Only values under the smallness bound below are hashed, so
   the traversal is bounded. *)
let fnv_prime = 0x100000001b3

let step h x = (h lxor x) * fnv_prime land max_int

let step_string h s =
  let h = ref (step h (String.length s)) in
  String.iter (fun c -> h := step !h (Char.code c)) s;
  !h

(* Normalized to match [Value.equal] on floats ([Float.equal]): every NaN is
   equal to every other NaN, and -0. equals 0. *)
let float_bits f =
  if f <> f then 0x7ff8_dead
  else Int64.to_int (Int64.bits_of_float (if f = 0.0 then 0.0 else f))

let rec fold_hash h v =
  match v with
  | Value.Unit -> step h 1
  | Value.Bool b -> step (step h 2) (Bool.to_int b)
  | Value.Int i -> step (step h 3) i
  | Value.Float f -> step (step h 4) (float_bits f)
  | Value.String s -> step_string (step h 5) s
  | Value.Pair (a, b) -> fold_hash (fold_hash (step h 6) a) b
  | Value.List vs -> List.fold_left fold_hash (step h 7) vs
  | Value.Tag (c, p) -> fold_hash (step_string (step h 8) c) p

let hash v = fold_hash 0x1505 v

(* Dedup heuristic.  Hash-consing pays when a value recurs (round markers,
   decisions, small payloads repeated across nodes and rounds) and costs a
   full traversal when it does not.  Protocol states grow with the round —
   an EIG tree at round r holds O(n^r) labels — and are unique per (node,
   round), so structurally hashing them buys nothing and turns the executor
   quadratic in the value size.  The bound below caps the probe: values
   whose constructor count stays under [small_limit] go through the dedup
   table; larger ones are appended directly (the one-slot physical fast
   path still dedups the broadcast-same-payload-to-every-port pattern,
   which shares one boxed value across ports).  Either way [value] hands
   back the first physical value stored, so trace decoding is unaffected. *)
let small_limit = 64

(* Remaining budget after traversing [v]; positive iff [v] has fewer than
   [limit] constructors.  The traversal itself is cut off at the bound,
   list tails included. *)
let rec budget_after limit v =
  if limit <= 0 then 0
  else
    match v with
    | Value.Unit | Value.Bool _ | Value.Int _ | Value.Float _
    | Value.String _ ->
      limit - 1
    | Value.Pair (a, b) -> budget_after (budget_after (limit - 1) a) b
    | Value.List vs -> budget_list (limit - 1) vs
    | Value.Tag (_, p) -> budget_after (limit - 1) p

and budget_list limit = function
  | v :: vs when limit > 0 -> budget_list (budget_after limit v) vs
  | _ -> limit

let is_small v = budget_after small_limit v > 0

module Table = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = hash
end)

type t = {
  mutable values : Value.t array;  (* id -> value; slot 0 is the absent id *)
  mutable count : int;  (* next free id; ids handed out so far = count - 1 *)
  table : int Table.t;
  (* One-slot physical-equality fast path: the executor interns the same
     payload once per port and the same state value on repeated decodes, so
     a pointer-equal repeat skips the structural hash entirely. *)
  mutable last_value : Value.t;
  mutable last_id : int;
}

let absent = 0

let create ?(initial_capacity = 256) () =
  {
    values = Array.make (max 2 initial_capacity) Value.unit;
    count = 1;
    table = Table.create (max 2 initial_capacity);
    last_value = Value.unit;
    last_id = absent;
  }

let count t = t.count - 1

let append t v =
  let id = t.count in
  if id = Array.length t.values then begin
    let grown = Array.make (2 * id) Value.unit in
    Array.blit t.values 0 grown 0 id;
    t.values <- grown
  end;
  t.values.(id) <- v;
  t.count <- id + 1;
  id

let intern t v =
  if t.last_id <> absent && t.last_value == v then t.last_id
  else begin
    let id =
      if is_small v then
        match Table.find_opt t.table v with
        | Some id -> id
        | None ->
          let id = append t v in
          Table.add t.table v id;
          id
      else append t v
    in
    t.last_value <- v;
    t.last_id <- id;
    id
  end

let intern_opt t = function None -> absent | Some v -> intern t v

let value t id =
  if id <= absent || id >= t.count then
    invalid_arg (Printf.sprintf "Value_intern.value: id %d out of range" id);
  t.values.(id)

let value_opt t id = if id = absent then None else Some (value t id)
