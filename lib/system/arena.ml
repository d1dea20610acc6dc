(* Per-execution flat trace storage.  One arena holds everything a run
   records, as the values themselves:

   - [states]: n × (rounds+1), index [u * (rounds+1) + r].
   - [sent]: total_ports × rounds, index [(port_off.(u) + j) * rounds + r] —
     round-contiguous per directed edge, the stride edge-behavior readers
     walk.  [None] is a silent slot. *)

type t = {
  n : int;
  rounds : int;
  port_off : int array;  (* length n+1; prefix sums of per-node arity *)
  states : Value.t array;
  sent : Value.t option array;
}

let create ~n ~rounds ~arity =
  if n < 0 then invalid_arg "Arena.create: n >= 0 required";
  if rounds < 0 then invalid_arg "Arena.create: rounds >= 0 required";
  let port_off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let a = arity u in
    if a < 0 then invalid_arg "Arena.create: negative arity";
    port_off.(u + 1) <- port_off.(u) + a
  done;
  {
    n;
    rounds;
    port_off;
    states = Array.make (n * (rounds + 1)) Value.Unit;
    sent = Array.make (port_off.(n) * rounds) None;
  }

let n t = t.n
let rounds t = t.rounds
let arity t u = t.port_off.(u + 1) - t.port_off.(u)

let state_index t u r =
  if u < 0 || u >= t.n then invalid_arg "Arena: node out of range";
  if r < 0 || r > t.rounds then invalid_arg "Arena: round out of range";
  (u * (t.rounds + 1)) + r

let sent_index t u ~port ~round =
  if u < 0 || u >= t.n then invalid_arg "Arena: node out of range";
  if port < 0 || port >= arity t u then invalid_arg "Arena: port out of range";
  if round < 0 || round >= t.rounds then invalid_arg "Arena: round out of range";
  ((t.port_off.(u) + port) * t.rounds) + round

let set_state t u r v = Array.unsafe_set t.states (state_index t u r) v
let state t u r = Array.unsafe_get t.states (state_index t u r)

let set_sent t u ~port ~round v =
  Array.unsafe_set t.sent (sent_index t u ~port ~round) v

let sent t u ~port ~round = Array.unsafe_get t.sent (sent_index t u ~port ~round)

let message_count t =
  Array.fold_left (fun acc m -> if Option.is_some m then acc + 1 else acc) 0
    t.sent

(* The [sent] layout is already sender-major, then port, then round. *)
let iter_messages f t =
  for u = 0 to t.n - 1 do
    for i = t.port_off.(u) * t.rounds to (t.port_off.(u + 1) * t.rounds) - 1 do
      match Array.unsafe_get t.sent i with Some v -> f u v | None -> ()
    done
  done
