let default_cut_split g ~f =
  let cut = Connectivity.min_vertex_cut g in
  if cut = [] then
    invalid_arg "Ba_connectivity: graph is complete or disconnected";
  if List.length cut > 2 * f then
    invalid_arg
      (Printf.sprintf "Ba_connectivity: min cut has %d > 2f = %d nodes"
         (List.length cut) (2 * f));
  let rec take k = function
    | x :: rest when k > 0 ->
      let taken, rem = take (k - 1) rest in
      x :: taken, rem
    | rest -> [], rest
  in
  let d, b = take (min f (List.length cut)) cut in
  (match Connectivity.components_after_removal g cut with
  | first :: (_ :: _ as rest) -> first, List.concat rest
  | _ -> invalid_arg "Ba_connectivity: cut does not separate")
  |> fun (a, c) -> a, b, c, d

let certify ?signed ?split ~device ~v0 ~v1 ~horizon ~f g =
  let a, b, c, d =
    match split with Some s -> s | None -> default_cut_split g ~f
  in
  let in_a v = List.mem v a and in_d v = List.mem v d in
  let covering =
    Covering.crossed g ~crossed:(fun u v ->
        (in_a u && in_d v) || (in_d u && in_a v))
  in
  let show nodes = String.concat "," (List.map string_of_int nodes) in
  Certificate.build ?signed ~problem:"byzantine-agreement"
    ~description:
      (Printf.sprintf
         "Theorem 1 (2f+1 connectivity): c(G) <= 2f=%d; cut split b={%s} \
          d={%s}, sides a={%s} c={%s}; double cover with a-d edges crossed"
         (2 * f) (show b) (show d) (show a) (show c))
    ~f ~covering ~device
    ~input:(fun s -> if fst (Covering.decode covering s) = 0 then v0 else v1)
    ~horizon
    ~scenarios:
      [ ("E1", fun v -> if in_d v then None else Some 0);
        ("E2", fun v ->
          if List.mem v b then None else if in_a v then Some 1 else Some 0);
        ("E3", fun v -> if in_d v then None else Some 1);
      ]
    ~check:(fun r ->
      Ba_spec.check ~trace:r.Reconstruct.trace ~correct:r.Reconstruct.correct
        ~inputs:(System.input r.Reconstruct.system))
    ~notes:(fun _ ->
      [ "chain: E1 validity pins v0 on a,b,c (copy 0); E2 agreement carries \
         c's value across the cut to a (copy 1); E3 validity pins v1 on \
         a,b,c (copy 1)";
      ])
    ~fallback:
      "all three runs satisfied the conditions — impossible for \
       deterministic devices"
    ()
