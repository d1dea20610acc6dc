(* Rooted EIG: identical relay discipline to consensus EIG, except that only
   the general speaks at step 0 (and decides its own value at once), only
   labels rooted at the general are accepted, and the decision resolves the
   subtree under [general] instead of the whole tree. *)

let decision_round ~f = f + 2

let device ~n ~f ~me ~general ~default =
  if n < 2 || f < 0 || me < 0 || me >= n then invalid_arg "Broadcast.device";
  if general < 0 || general >= n then invalid_arg "Broadcast.device: general";
  Eig_tree.relay_device
    ~name:(Printf.sprintf "BG[%d/%d,g=%d]@%d" n f general me)
    ~n ~f ~me ~default
    ~init:(fun input ->
      if me = general then Some input, Some input else None, None)
    ~root:[ general ]

let system g ~f ~general ~value ~default =
  let n = Graph.n g in
  if List.exists (fun u -> Graph.degree g u <> n - 1) (Graph.nodes g) then
    invalid_arg "Broadcast.system: complete graph required";
  System.make g (fun u ->
      ( device ~n ~f ~me:u ~general ~default,
        if u = general then value else Value.unit ))
