(* Edge cases and error paths: argument validation, degenerate graphs,
   printer smoke tests, float corner values. *)

let check = Alcotest.check
let tbool = Alcotest.bool

let expect_invalid label f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail ("expected Invalid_argument: " ^ label)

let constructor_validation () =
  expect_invalid "cycle 2" (fun () -> Topology.cycle 2);
  expect_invalid "wheel 3" (fun () -> Topology.wheel 3);
  expect_invalid "harary k>=n" (fun () -> Topology.harary ~k:5 ~n:5);
  expect_invalid "harary k<2" (fun () -> Topology.harary ~k:1 ~n:5);
  expect_invalid "hypercube 0" (fun () -> Topology.hypercube 0);
  expect_invalid "grid 0" (fun () -> Topology.grid 0 3);
  expect_invalid "negative rounds" (fun () ->
      Exec.run (Util.make_gossip_system (Topology.complete 3)) ~rounds:(-1));
  expect_invalid "delay 0" (fun () ->
      Exec.run ~delay:0 (Util.make_gossip_system (Topology.complete 3)) ~rounds:1);
  expect_invalid "eig bad me" (fun () ->
      Eig.device ~n:4 ~f:1 ~me:9 ~default:Value.unit);
  expect_invalid "triangle_ring 1" (fun () -> Covering.triangle_ring ~copies:1);
  expect_invalid "local_vertex adjacent" (fun () ->
      Connectivity.local_vertex (Topology.complete 3) 0 1);
  expect_invalid "clock until<=0" (fun () ->
      Clock_exec.run
        (Clock_system.make (Topology.complete 2) (fun _ ->
             Clock_system.Honest
               (Clock_proto.trivial ~l:Fun.id ~arity:1, Clock.identity)))
        ~until:0.0)

let tiny_graphs () =
  let k1 = Graph.make ~n:1 [] in
  check tbool "K1 connected" true (Graph.is_connected k1);
  check tbool "empty graph" true (Graph.is_connected (Graph.make ~n:0 []));
  check tbool "K2 adequacy f=0" true
    (Connectivity.is_adequate ~f:0 (Topology.complete 2));
  check tbool "K3 max faults" true
    (Connectivity.max_tolerable_faults (Topology.complete 3) = 0)

let zero_round_run () =
  let sys = Util.make_gossip_system (Topology.complete 3) in
  let t = Exec.run sys ~rounds:0 in
  check tbool "zero rounds, initial states only" true
    (Array.length (Trace.node_behavior t 0) = 1);
  check tbool "no decision at horizon 0" true (Trace.decision t 0 = None)

let printers_smoke () =
  let non_empty s = String.length s > 0 in
  check tbool "graph pp" true
    (non_empty (Format.asprintf "%a" Graph.pp (Topology.wheel 5)));
  check tbool "to_dot" true
    (non_empty (Graph.to_dot ~labels:(Printf.sprintf "n%d") (Topology.cycle 4)));
  check tbool "covering pp" true
    (non_empty (Format.asprintf "%a" Covering.pp (Covering.triangle_hexagon ())));
  let t = Exec.run (Util.make_gossip_system (Topology.complete 3)) ~rounds:2 in
  check tbool "trace pp" true (non_empty (Format.asprintf "%a" Trace.pp t));
  check tbool "scenario pp" true
    (non_empty (Format.asprintf "%a" Scenario.pp (Scenario.of_trace t [ 0; 1 ])));
  let cert =
    Ba_nodes.certify
      ~device:(fun w -> Naive.repeat_own ~n:3 ~me:w)
      ~v0:(Value.bool false) ~v1:(Value.bool true) ~horizon:3 ~f:1
      (Topology.complete 3)
  in
  check tbool "certificate pp" true
    (non_empty (Format.asprintf "%a" Certificate.pp cert))

let float_corner_values () =
  (* nan and infinities must not wreck the total order. *)
  let vs = [ Value.float nan; Value.float infinity; Value.float 0.0 ] in
  let sorted = List.sort Value.compare vs in
  check tbool "sort total" true (List.length sorted = 3);
  check tbool "nan equal to itself" true
    (Value.equal (Value.float nan) (Value.float nan));
  (* Garbled floats in approx are replaced by own estimate (validity-safe). *)
  let (Device.Device d) = Approx.device ~n:4 ~f:1 ~me:0 ~rounds:2 in
  let state = d.init ~input:(Value.float 0.5) in
  let state, _ =
    d.step ~state ~round:0 ~inbox:(Array.make 3 None)
  in
  let state, _ =
    d.step ~state ~round:1
      ~inbox:
        [| Some (Value.float nan); Some (Value.float infinity); Some Value.unit |]
  in
  let _, est, _ = Value.get_triple (d.project state) in
  check tbool "estimate stays finite" true (Float.is_finite (Value.get_float est))

let gossip_on_disconnected_component () =
  (* The executor is well-defined on disconnected graphs; knowledge stays in
     the component. *)
  let g = Graph.make ~n:4 [ 0, 1; 2, 3 ] in
  let sys = Util.make_gossip_system ~horizon:4 g in
  let t = Exec.run sys ~rounds:4 in
  match Trace.decision t 0 with
  | Some v ->
    check tbool "component isolation" false
      (List.exists (Value.equal (Value.int 2)) (Value.get_list v))
  | None -> Alcotest.fail "no decision"

let covering_shift_of () =
  let c = Covering.triangle_ring ~copies:4 in
  check tbool "shift 2->0 is 1" true (Covering.shift_of c 2 0 = 1);
  check tbool "shift 0->1 is 0" true (Covering.shift_of c 0 1 = 0);
  check tbool "shift 0->2 is m-1" true (Covering.shift_of c 0 2 = 3)

let suite =
  ( "edge-cases",
    [ Alcotest.test_case "constructor validation" `Quick constructor_validation;
      Alcotest.test_case "tiny graphs" `Quick tiny_graphs;
      Alcotest.test_case "zero-round run" `Quick zero_round_run;
      Alcotest.test_case "printers" `Quick printers_smoke;
      Alcotest.test_case "float corners" `Quick float_corner_values;
      Alcotest.test_case "disconnected components" `Quick gossip_on_disconnected_component;
      Alcotest.test_case "covering shift_of" `Quick covering_shift_of;
    ] )
