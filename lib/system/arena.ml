(* Per-execution flat trace storage.  One arena holds everything a run
   records:

   - [columns]: per node, its device and its rounds+1 states, in the
     device's own state type.
   - [projected]: n × (rounds+1), index [u * (rounds+1) + r] — each
     state's encoding once a reader has asked for it.
   - [sent]: total_ports × rounds, index [(port_off.(u) + j) * rounds + r] —
     round-contiguous per directed edge, the stride edge-behavior readers
     walk.  [None] is a silent slot. *)

type column = Column : 's Device.machine * 's array -> column

type t = {
  n : int;
  rounds : int;
  port_off : int array;  (* length n+1; prefix sums of per-node arity *)
  columns : column array;
  projected : Value.t option array;
  sent : Value.t option array;
}

let create sys ~rounds =
  if rounds < 0 then invalid_arg "Arena.create: rounds >= 0 required";
  let n = Graph.n (System.graph sys) in
  let port_off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    port_off.(u + 1) <- port_off.(u) + Array.length (System.wiring sys u)
  done;
  let column u =
    let (Device.Device d) = System.device sys u in
    Column (d, Array.make (rounds + 1) (d.init ~input:(System.input sys u)))
  in
  {
    n;
    rounds;
    port_off;
    columns = Array.init n column;
    projected = Array.make (n * (rounds + 1)) None;
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

(* [columns.(u)] and [states.(r)] are bounds-checked reads. *)
let step t u ~round ~inbox =
  if round < 0 || round >= t.rounds then invalid_arg "Arena: round out of range";
  let (Column (d, states)) = t.columns.(u) in
  let state, sends = Device.step_checked d ~state:states.(round) ~round ~inbox in
  states.(round + 1) <- state;
  sends

let output t u r =
  let (Column (d, states)) = t.columns.(u) in
  d.output states.(r)

let project t u r =
  let i = state_index t u r in
  match t.projected.(i) with
  | Some v -> v
  | None ->
    let (Column (d, states)) = t.columns.(u) in
    let v = d.project states.(r) in
    t.projected.(i) <- Some v;
    v

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
