(* Tests for Graph and Topology: construction invariants, induced subgraphs,
   and the standard families' degree/size facts. *)

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

let ilist = Alcotest.(list int)

let basic_construction () =
  let g = Graph.make ~n:4 [ 0, 1; 1, 2; 2, 3 ] in
  check tint "n" 4 (Graph.n g);
  check tint "edge count" 3 (Graph.edge_count g);
  check tbool "mem 0-1" true (Graph.mem_edge g 0 1);
  check tbool "mem 1-0 (symmetric)" true (Graph.mem_edge g 1 0);
  check tbool "mem 0-2" false (Graph.mem_edge g 0 2);
  check ilist "neighbors 1" [ 0; 2 ] (Graph.neighbors g 1);
  check tint "degree 0" 1 (Graph.degree g 0);
  check tint "directed edges" 6 (List.length (Graph.directed_edges g))

let rejects_bad_edges () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Graph.make ~n:2 [ 0, 0 ]);
  expect_invalid (fun () -> Graph.make ~n:2 [ 0, 2 ]);
  expect_invalid (fun () -> Graph.make ~n:3 [ 0, 1; 1, 0 ]);
  expect_invalid (fun () -> Graph.make ~n:3 [ 0, 1; 0, 1 ])

let induced_subgraph () =
  let g = Topology.complete 5 in
  let sub, back = Graph.induced g [ 1; 3; 4 ] in
  check tint "induced n" 3 (Graph.n sub);
  check tint "induced edges" 3 (Graph.edge_count sub);
  check ilist "back map" [ 1; 3; 4 ] (Array.to_list back)

let induced_edges () =
  (* Every directed edge of the subgraph maps back to an edge of [g] between
     kept nodes, and every such edge of [g] appears in the subgraph. *)
  let g = Topology.cycle 6 in
  let kept = [ 0; 1; 2; 4 ] in
  let sub, back = Graph.induced g kept in
  let mapped =
    List.sort compare
      (List.map (fun (u, v) -> back.(u), back.(v)) (Graph.directed_edges sub))
  in
  let expected =
    List.sort compare
      (List.filter
         (fun (u, v) -> List.mem u kept && List.mem v kept)
         (Graph.directed_edges g))
  in
  check tbool "induced edges map back" true (mapped = expected);
  check tbool "C6 minus {3,5} edges" true
    (expected = [ 0, 1; 1, 0; 1, 2; 2, 1 ])

let distances () =
  let g = Topology.path 5 in
  let d = Graph.distances g 0 in
  check ilist "path distances" [ 0; 1; 2; 3; 4 ] (Array.to_list d);
  let g2 = Graph.make ~n:4 [ 0, 1; 2, 3 ] in
  check tbool "disconnected" false (Graph.is_connected g2);
  check tbool "unreachable inf" true ((Graph.distances g2 0).(2) = max_int)

let complete_family () =
  let g = Topology.complete 6 in
  check tint "K6 edges" 15 (Graph.edge_count g);
  List.iter (fun u -> check tint "K6 degree" 5 (Graph.degree g u)) (Graph.nodes g)

let cycle_family () =
  let g = Topology.cycle 7 in
  check tint "C7 edges" 7 (Graph.edge_count g);
  check tint "C7 min degree" 2 (Graph.min_degree g);
  check tbool "C7 connected" true (Graph.is_connected g)

let star_wheel () =
  let s = Topology.star 6 in
  check tint "star center degree" 5 (Graph.degree s 0);
  check tint "star leaf degree" 1 (Graph.degree s 3);
  let w = Topology.wheel 6 in
  check tint "wheel center degree" 5 (Graph.degree w 0);
  check tint "wheel rim degree" 3 (Graph.degree w 2);
  check tint "wheel edges" 10 (Graph.edge_count w)

let grid_hypercube () =
  let g = Topology.grid 3 4 in
  check tint "grid n" 12 (Graph.n g);
  check tint "grid edges" 17 (Graph.edge_count g);
  let h = Topology.hypercube 4 in
  check tint "Q4 n" 16 (Graph.n h);
  check tint "Q4 edges" 32 (Graph.edge_count h);
  List.iter (fun u -> check tint "Q4 degree" 4 (Graph.degree h u)) (Graph.nodes h)

let harary_family () =
  (* H(k,n) is k-connected with ceil(kn/2) edges; degree facts here,
     connectivity checked in test_connectivity. *)
  let h = Topology.harary ~k:4 ~n:9 in
  check tint "H(4,9) edges" 18 (Graph.edge_count h);
  check tint "H(4,9) min degree" 4 (Graph.min_degree h);
  let h2 = Topology.harary ~k:5 ~n:8 in
  check tint "H(5,8) edges" 20 (Graph.edge_count h2);
  check tint "H(5,8) min degree" 5 (Graph.min_degree h2);
  let h3 = Topology.harary ~k:3 ~n:7 in
  check tint "H(3,7) edges" 11 (Graph.edge_count h3);
  check tint "H(3,7) min degree" 3 (Graph.min_degree h3)

let bipartite () =
  let g = Topology.complete_bipartite 3 4 in
  check tint "K34 edges" 12 (Graph.edge_count g);
  check tbool "K34 no inner edge" false (Graph.mem_edge g 0 1)

let random_graphs () =
  let g = Topology.random ~seed:1 ~n:20 ~p:0.3 () in
  check tint "random n" 20 (Graph.n g);
  let g' = Topology.random ~seed:1 ~n:20 ~p:0.3 () in
  check tbool "deterministic seed" true (Graph.equal g g');
  let c = Topology.random_connected ~seed:5 ~n:25 ~p:0.05 () in
  check tbool "random_connected connected" true (Graph.is_connected c)

let graph_gen =
  QCheck.Gen.(
    map2
      (fun n seed -> Topology.random_connected ~seed ~n:(3 + n) ~p:0.3 ())
      (int_bound 12) (int_bound 1000))

let arbitrary_graph = QCheck.make ~print:(Format.asprintf "%a" Graph.pp) graph_gen

let prop_symmetric =
  QCheck.Test.make ~name:"graphs are symmetric" ~count:100 arbitrary_graph
    (fun g ->
      List.for_all (fun (u, v) -> Graph.mem_edge g v u) (Graph.directed_edges g))

let prop_degree_sum =
  QCheck.Test.make ~name:"degree sum = 2 * edges" ~count:100 arbitrary_graph
    (fun g ->
      let sum = List.fold_left (fun acc u -> acc + Graph.degree g u) 0 (Graph.nodes g) in
      sum = 2 * Graph.edge_count g)

let prop_induced_all_is_identity =
  QCheck.Test.make ~name:"induced on all nodes is the graph" ~count:100
    arbitrary_graph
    (fun g ->
      let sub, _ = Graph.induced g (Graph.nodes g) in
      Graph.equal sub g)

let suite =
  ( "graph",
    [ Alcotest.test_case "construction" `Quick basic_construction;
      Alcotest.test_case "rejects bad edges" `Quick rejects_bad_edges;
      Alcotest.test_case "induced subgraph" `Quick induced_subgraph;
      Alcotest.test_case "induced edges" `Quick induced_edges;
      Alcotest.test_case "distances" `Quick distances;
      Alcotest.test_case "complete" `Quick complete_family;
      Alcotest.test_case "cycle" `Quick cycle_family;
      Alcotest.test_case "star and wheel" `Quick star_wheel;
      Alcotest.test_case "grid and hypercube" `Quick grid_hypercube;
      Alcotest.test_case "harary" `Quick harary_family;
      Alcotest.test_case "bipartite" `Quick bipartite;
      Alcotest.test_case "random" `Quick random_graphs;
      QCheck_alcotest.to_alcotest prop_symmetric;
      QCheck_alcotest.to_alcotest prop_degree_sum;
      QCheck_alcotest.to_alcotest prop_induced_all_is_identity;
    ] )
