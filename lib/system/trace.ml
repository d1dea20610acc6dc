(* A trace reads a filled execution {!Arena}.  The arena keeps the very
   states and messages the devices produced, so every reader sees exactly
   what the run recorded — the property the certificate machinery and the
   store's byte-identity guarantees lean on.  A state is read as a [Value]
   only here, through the arena's memoized projection: a run whose readers
   ask only for decisions never encodes a state.

   Each node's (decision, decision round) is memoized: locating a decision
   replays device outputs round by round, and the problem specs ask for it
   several times per node per check. *)

type t = {
  system : System.t;
  rounds : int;
  arena : Arena.t;
  decided : (Value.t option * int option) option array;  (* per-node memo *)
}

let of_arena ~system ~rounds arena =
  let n = Graph.n (System.graph system) in
  if Arena.n arena <> n then invalid_arg "Trace.of_arena: wrong node count";
  if Arena.rounds arena <> rounds then
    invalid_arg "Trace.of_arena: wrong horizon";
  { system; rounds; arena; decided = Array.make n None }

let rounds t = t.rounds
let system t = t.system

let state t u r = Arena.project t.arena u r
let raw_sent t u ~port ~round = Arena.sent t.arena u ~port ~round
let node_behavior t u = Array.init (t.rounds + 1) (state t u)

let edge_behavior t ~src ~dst =
  let port = System.port_to t.system src dst in
  Array.init t.rounds (fun r -> raw_sent t src ~port ~round:r)

let delivered t ~dst ~round =
  let wiring = System.wiring t.system dst in
  Array.init (Array.length wiring) (fun j ->
      if round = 0 then None
      else begin
        let v = wiring.(j) in
        let back = System.port_to t.system v dst in
        raw_sent t v ~port:back ~round:(round - 1)
      end)

let output t u ~round = Arena.output t.arena u round

let scan_decision t u =
  let rec scan r =
    if r > t.rounds then None
    else
      match output t u ~round:r with
      | Some v -> Some (v, r)
      | None -> scan (r + 1)
  in
  scan 0

let decided t u =
  match t.decided.(u) with
  | Some memo -> memo
  | None ->
    let memo =
      match scan_decision t u with
      | None -> None, None
      | Some (v, r) -> Some v, Some r
    in
    (* Idempotent write: a racing domain computes the same memo. *)
    t.decided.(u) <- Some memo;
    memo

let decision t u = fst (decided t u)
let decision_round t u = snd (decided t u)

let pp ppf t =
  Format.fprintf ppf "@[<v>trace (%d rounds)" t.rounds;
  List.iter
    (fun u ->
      Format.fprintf ppf "@ node %d [%s] input=%a decision=%a" u
        (Device.name (System.device t.system u)) Value.pp
        (System.input t.system u) Value.pp_opt (decision t u))
    (Graph.nodes (System.graph t.system));
  Format.fprintf ppf "@]"

let value_size v =
  let rec go acc = function
    | Value.Unit | Value.Bool _ | Value.Int _ | Value.Float _ -> acc + 1
    | Value.String s -> acc + 1 + (String.length s / 8)
    | Value.Pair (a, b) -> go (go (acc + 1) a) b
    | Value.List vs -> List.fold_left go (acc + 1) vs
    | Value.Tag (_, p) -> go (acc + 1) p
  in
  go 0 v

let fold_messages f acc t =
  let acc = ref acc in
  Arena.iter_messages (fun u v -> acc := f !acc u v) t.arena;
  !acc

let message_count t = Arena.message_count t.arena

let message_volume t = fold_messages (fun acc _ v -> acc + value_size v) 0 t

let messages_by_node t =
  let counts = Array.make (Graph.n (System.graph t.system)) 0 in
  ignore
    (fold_messages
       (fun () u _ ->
         counts.(u) <- counts.(u) + 1)
       () t);
  counts
