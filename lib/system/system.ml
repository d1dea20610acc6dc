type assignment = {
  device : Device.t;
  input : Value.t;
  wiring : Graph.node array;
}

type t = {
  graph : Graph.t;
  assign : assignment array;
  back_ports : int array array;
}

let validate graph assign =
  Array.iteri
    (fun u { device; wiring; _ } ->
      let nbrs = Graph.neighbors graph u in
      let deg = List.length nbrs in
      if Device.arity device <> deg then
        invalid_arg
          (Printf.sprintf
             "System: device %s at node %d has arity %d, degree is %d"
             (Device.name device) u (Device.arity device) deg);
      if Array.length wiring <> deg then
        invalid_arg
          (Printf.sprintf "System: node %d wiring size %d, degree %d" u
             (Array.length wiring) deg);
      let sorted = List.sort Int.compare (Array.to_list wiring) in
      if sorted <> nbrs then
        invalid_arg
          (Printf.sprintf "System: node %d wiring is not a permutation of its \
                           neighbors" u))
    assign

(* back_ports.(u).(j): the port on which wiring(u).(j) reaches back to u.
   Wiring is fixed at construction (substitutions swap devices and inputs
   only), so this inverse is computed once per system instead of once per
   execution — it was the executor's hottest setup cost. *)
let compute_back_ports assign =
  let port_on v u =
    let w = assign.(v).wiring in
    let rec find j =
      if j >= Array.length w then assert false (* validate: wiring symmetric *)
      else if w.(j) = u then j
      else find (j + 1)
    in
    find 0
  in
  Array.mapi
    (fun u { wiring; _ } -> Array.map (fun v -> port_on v u) wiring)
    assign

let make graph assign_fn =
  let assign =
    Array.init (Graph.n graph) (fun u ->
        let device, input = assign_fn u in
        let wiring = Array.of_list (Graph.neighbors graph u) in
        { device; input; wiring })
  in
  validate graph assign;
  { graph; assign; back_ports = compute_back_ports assign }

let of_covering c ~device ~input =
  let graph = c.Covering.source in
  let assign =
    Array.init (Graph.n graph) (fun u ->
        {
          device = device (Covering.apply c u);
          input = input u;
          wiring = Covering.wiring c u;
        })
  in
  validate graph assign;
  { graph; assign; back_ports = compute_back_ports assign }

let substitute sys u device =
  let old = sys.assign.(u) in
  if Device.arity device <> Device.arity old.device then
    invalid_arg "System.substitute: arity mismatch";
  let assign = Array.copy sys.assign in
  assign.(u) <- { old with device };
  { sys with assign }

let substitute_input sys u input =
  let assign = Array.copy sys.assign in
  assign.(u) <- { assign.(u) with input };
  { sys with assign }

let graph sys = sys.graph
let back_ports sys = sys.back_ports
let device sys u = sys.assign.(u).device
let input sys u = sys.assign.(u).input
let wiring sys u = sys.assign.(u).wiring

let port_to sys u v =
  let w = sys.assign.(u).wiring in
  let rec find j =
    if j >= Array.length w then raise Not_found
    else if w.(j) = v then j
    else find (j + 1)
  in
  find 0
