(* The relay, its tree and its state encoding live in [Eig_tree]; consensus
   EIG seeds every node's own input at the empty label, admits every
   well-formed claim, and resolves the whole tree. *)

let decision_round ~f = f + 2

let device ~n ~f ~me ~default =
  if n < 2 || f < 0 || me < 0 || me >= n then invalid_arg "Eig.device";
  Eig_tree.relay_device
    ~name:(Printf.sprintf "EIG[%d/%d]@%d" n f me)
    ~n ~f ~me ~default
    ~init:(fun input -> None, Some input)
    ~root:[]

let system g ~f ~inputs ~default =
  let n = Graph.n g in
  if List.exists (fun u -> Graph.degree g u <> n - 1) (Graph.nodes g) then
    invalid_arg "Eig.system: complete graph required";
  if Array.length inputs <> n then invalid_arg "Eig.system: one input per node";
  System.make g (fun u -> device ~n ~f ~me:u ~default, inputs.(u))
