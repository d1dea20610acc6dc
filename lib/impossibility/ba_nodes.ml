let default_partition g ~f =
  let n = Graph.n g in
  if n < 3 then invalid_arg "Ba_nodes: need at least 3 nodes";
  if n > 3 * f then
    invalid_arg "Ba_nodes: n > 3f — the graph is not node-deficient";
  (* Consecutive thirds, each of size in [1, f]. *)
  let size_a = min f ((n + 2) / 3) in
  let size_b = min f ((n - size_a + 1) / 2) in
  let size_c = n - size_a - size_b in
  if size_c < 1 || size_c > f then
    invalid_arg "Ba_nodes: cannot partition into thirds of size <= f";
  let nodes = Graph.nodes g in
  let rec split k = function
    | rest when k = 0 -> [], rest
    | x :: rest ->
      let taken, rem = split (k - 1) rest in
      x :: taken, rem
    | [] -> invalid_arg "Ba_nodes: partition underflow"
  in
  let a, rest = split size_a nodes in
  let b, c = split size_b rest in
  a, b, c

let certify ?signed ?partition ~device ~v0 ~v1 ~horizon ~f g =
  let a, b, c =
    match partition with Some p -> p | None -> default_partition g ~f
  in
  let in_a v = List.mem v a and in_c v = List.mem v c in
  let covering =
    Covering.crossed g ~crossed:(fun u v ->
        (in_a u && in_c v) || (in_c u && in_a v))
  in
  let show nodes = String.concat "," (List.map string_of_int nodes) in
  Certificate.build ?signed ~problem:"byzantine-agreement"
    ~description:
      (Printf.sprintf
         "Theorem 1 (3f+1 nodes): n=%d <= 3f=%d; partition a={%s} b={%s} \
          c={%s}; hexagon-style double cover with a-c edges crossed"
         (Graph.n g) (3 * f) (show a) (show b) (show c))
    ~f ~covering ~device
    ~input:(fun s -> if fst (Covering.decode covering s) = 0 then v0 else v1)
    ~horizon
    ~scenarios:
      [ ("E1", fun v -> if in_a v then None else Some 0);
        ("E2", fun v ->
          if in_a v then Some 1 else if in_c v then Some 0 else None);
        ("E3", fun v -> if in_c v then None else Some 1);
      ]
    ~check:(fun r ->
      Ba_spec.check ~trace:r.Reconstruct.trace ~correct:r.Reconstruct.correct
        ~inputs:(System.input r.Reconstruct.system))
    ~notes:(fun _ ->
      [ Printf.sprintf
          "chain: E1 validity pins %s on b,c; E2 agreement carries it to a \
           (copy 1); E3 validity pins %s on a,b — the same covering \
           behaviors cannot satisfy all three"
          (Value.to_string v0) (Value.to_string v1);
      ])
    ~fallback:
      "all three runs satisfied agreement, validity and termination — \
       impossible for deterministic devices"
    ()
