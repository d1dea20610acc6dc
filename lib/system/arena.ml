(* Per-execution flat trace storage.  One arena holds everything a run
   records: an intern table plus two int bigarray planes (states and sent
   messages, stored as intern ids) and a presence bitset over the sent
   plane.  The executor writes ids; the trace accessors decode them back
   through the intern table, so readers see values structurally identical
   to the ones the devices produced.

   Layout:
   - [states]: n × (rounds+1), index [u * (rounds+1) + r].
   - [sent]: total_ports × rounds, index [(port_off.(u) + j) * rounds + r] —
     round-contiguous per directed edge, the stride edge-behavior readers
     walk.
   - [present]: one bit per sent slot.  Id 0 already encodes absence; the
     bitset exists so presence-only queries (message counts, delivered-or-
     silent scans) never touch the id plane or the intern table, and so a
     byte of it summarizes eight slots for popcount-style statistics. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  intern : Value_intern.t;
  n : int;
  rounds : int;
  port_off : int array;  (* length n+1; prefix sums of per-node arity *)
  states : ints;
  sent : ints;
  present : Bytes.t;
}

let ints len : ints =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max len 1) in
  Bigarray.Array1.fill a Value_intern.absent;
  a

let create ~n ~rounds ~arity =
  if n < 0 then invalid_arg "Arena.create: n >= 0 required";
  if rounds < 0 then invalid_arg "Arena.create: rounds >= 0 required";
  let port_off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let a = arity u in
    if a < 0 then invalid_arg "Arena.create: negative arity";
    port_off.(u + 1) <- port_off.(u) + a
  done;
  let total_ports = port_off.(n) in
  {
    intern = Value_intern.create ();
    n;
    rounds;
    port_off;
    states = ints (n * (rounds + 1));
    sent = ints (total_ports * rounds);
    present = Bytes.make (((total_ports * rounds) + 7) / 8) '\000';
  }

let n t = t.n
let rounds t = t.rounds
let arity t u = t.port_off.(u + 1) - t.port_off.(u)
let interned t = Value_intern.count t.intern

let state_index t u r =
  if u < 0 || u >= t.n then invalid_arg "Arena: node out of range";
  if r < 0 || r > t.rounds then invalid_arg "Arena: round out of range";
  (u * (t.rounds + 1)) + r

let sent_index t u ~port ~round =
  if u < 0 || u >= t.n then invalid_arg "Arena: node out of range";
  if port < 0 || port >= arity t u then invalid_arg "Arena: port out of range";
  if round < 0 || round >= t.rounds then invalid_arg "Arena: round out of range";
  ((t.port_off.(u) + port) * t.rounds) + round

let set_state t u r v =
  Bigarray.Array1.unsafe_set t.states (state_index t u r)
    (Value_intern.intern t.intern v)

let state t u r =
  Value_intern.value t.intern
    (Bigarray.Array1.unsafe_get t.states (state_index t u r))

let mark_present t i =
  let byte = i lsr 3 and bit = i land 7 in
  Bytes.unsafe_set t.present byte
    (Char.chr (Char.code (Bytes.unsafe_get t.present byte) lor (1 lsl bit)))

let slot_present t i =
  Char.code (Bytes.unsafe_get t.present (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_sent t u ~port ~round v =
  let i = sent_index t u ~port ~round in
  match v with
  | None -> ()  (* slots start absent; the executor writes each slot once *)
  | Some v ->
    Bigarray.Array1.unsafe_set t.sent i (Value_intern.intern t.intern v);
    mark_present t i

let sent_present t u ~port ~round = slot_present t (sent_index t u ~port ~round)

let sent t u ~port ~round =
  let i = sent_index t u ~port ~round in
  if slot_present t i then
    Some (Value_intern.value t.intern (Bigarray.Array1.unsafe_get t.sent i))
  else None

(* Popcount over the presence bytes: the id plane and intern table are never
   touched. *)
let message_count t =
  let count = ref 0 in
  Bytes.iter
    (fun c ->
      let b = ref (Char.code c) in
      while !b <> 0 do
        b := !b land (!b - 1);
        incr count
      done)
    t.present;
  !count

(* Iterate present messages as (sender, value); used by the trace's message
   statistics.  Order: sender-major, then port, then round. *)
let iter_messages f t =
  for u = 0 to t.n - 1 do
    for port = 0 to arity t u - 1 do
      let base = (t.port_off.(u) + port) * t.rounds in
      for round = 0 to t.rounds - 1 do
        let i = base + round in
        if slot_present t i then
          f u
            (Value_intern.value t.intern (Bigarray.Array1.unsafe_get t.sent i))
      done
    done
  done
