(* The execution model: determinism, delivery semantics, scenario extraction,
   and — the load-bearing part — executable versions of the paper's Locality,
   Fault, and Bounded-Delay Locality axioms. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let ok_or_fail = function
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* --- basic semantics ----------------------------------------------------- *)

let delivery_takes_one_round () =
  (* Two nodes; node 0 sends its input at round 0; node 1 must see it in its
     round-1 inbox, not earlier. *)
  let g = Topology.path 2 in
  let sys = Util.make_gossip_system ~horizon:3 g in
  let t = Exec.run sys ~rounds:3 in
  let inbox0 = Trace.delivered t ~dst:1 ~round:0 in
  let inbox1 = Trace.delivered t ~dst:1 ~round:1 in
  check tbool "round-0 inbox empty" true (Array.for_all Option.is_none inbox0);
  check tbool "round-1 inbox has node 0's knowledge" true
    (match inbox1.(0) with
    | Some v -> List.exists (Value.equal (Value.int 0)) (Value.get_list v)
    | None -> false)

let determinism () =
  let g = Topology.wheel 7 in
  let sys = Util.make_gossip_system g in
  let t1 = Exec.run sys ~rounds:6 in
  let t2 = Exec.run sys ~rounds:6 in
  check tbool "identical traces" true (Util.trace_equal t1 t2)

let gossip_converges () =
  (* On a connected graph every node eventually knows every input. *)
  let g = Topology.cycle 6 in
  let sys = Util.make_gossip_system ~horizon:6 g in
  let t = Exec.run sys ~rounds:6 in
  List.iter
    (fun u ->
      match Trace.decision t u with
      | Some v ->
        check tint (Printf.sprintf "node %d knows all" u) 6
          (List.length (Value.get_list v))
      | None -> Alcotest.fail "expected decision")
    (Graph.nodes g)

let run_until_decided () =
  let g = Topology.complete 4 in
  let sys = Util.make_gossip_system ~horizon:5 g in
  let t = Exec.run_until_decided sys ~max_rounds:50 in
  check tbool "all decided" true
    (List.for_all (fun u -> Trace.decision t u <> None) (Graph.nodes g));
  check tbool "horizon small" true (Trace.rounds t <= 16)

let edge_behavior_consistency () =
  let g = Topology.complete 3 in
  let sys = Util.make_gossip_system g in
  let t = Exec.run sys ~rounds:4 in
  (* What 0 sent to 1 at round r is what 1's inbox port for 0 shows at r+1. *)
  let sent = Trace.edge_behavior t ~src:0 ~dst:1 in
  let port = System.port_to sys 1 0 in
  for r = 0 to 2 do
    let delivered = (Trace.delivered t ~dst:1 ~round:(r + 1)).(port) in
    check tbool "sent = delivered next round" true
      (Value.equal_opt sent.(r) delivered)
  done

let decision_stability () =
  let g = Topology.complete 4 in
  let sys = Util.make_gossip_system ~horizon:3 g in
  let t = Exec.run sys ~rounds:8 in
  List.iter
    (fun u ->
      match Trace.decision_round t u with
      | None -> Alcotest.fail "no decision"
      | Some r -> check tint "decides at horizon" 3 r)
    (Graph.nodes g)

(* --- devices ------------------------------------------------------------- *)

let replay_device_replays () =
  let sends =
    [| [| Some (Value.int 1); None; Some (Value.int 2) |];
       [| None; Some (Value.int 9); None |];
    |]
  in
  let (Device.Device d) = Device.replay ~name:"r" ~sends in
  let state = d.init ~input:Value.unit in
  let _, out0 = d.step ~state ~round:0 ~inbox:[| None; None |] in
  let _, out1 = d.step ~state ~round:1 ~inbox:[| Some (Value.int 5); None |] in
  let _, out9 = d.step ~state ~round:9 ~inbox:[| None; None |] in
  check tbool "port0 round0" true (Value.equal_opt out0.(0) (Some (Value.int 1)));
  check tbool "port1 round0" true (out0.(1) = None);
  check tbool "port1 round1" true (Value.equal_opt out1.(1) (Some (Value.int 9)));
  check tbool "beyond horizon silent" true (Array.for_all Option.is_none out9)

let step_checked_rejects () =
  let (Device.Device bad) =
    Device.make ~name:"bad" ~arity:2
      ~init:(fun ~input:_ -> Value.unit)
      ~step:(fun ~state ~round:_ ~inbox:_ -> state, [| None |])
      ~output:(fun _ -> None)
  in
  match
    Device.step_checked bad ~state:(bad.init ~input:Value.unit) ~round:0
      ~inbox:[| None; None |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let split_brain_per_port () =
  (* On K3, a split-brain node echoing different inputs: each port sees the
     honest device run on that port's assigned input. *)
  let g = Topology.complete 3 in
  let honest u =
    Util.gossip_deciding ~name:(Printf.sprintf "H%d" u) ~arity:2 ~horizon:4
  in
  let sys =
    System.make g (fun u -> honest u, Value.int (10 + u))
  in
  let two_faced =
    Adversary.split_brain (honest 2) ~inputs:[| Value.int 0; Value.int 1 |]
  in
  let sys = System.substitute sys 2 two_faced in
  let t = Exec.run sys ~rounds:4 in
  (* Node 2's wiring is [0;1]: port 0 (to node 0) speaks with input 0, port 1
     (to node 1) with input 1. *)
  let to0 = Trace.edge_behavior t ~src:2 ~dst:0 in
  let to1 = Trace.edge_behavior t ~src:2 ~dst:1 in
  let contains v = function
    | Some m -> List.exists (Value.equal v) (Value.get_list m)
    | None -> false
  in
  check tbool "port to 0 claims input 0" true (contains (Value.int 0) to0.(0));
  check tbool "port to 1 claims input 1" true (contains (Value.int 1) to1.(0));
  check tbool "no cross-talk at round 0" false (contains (Value.int 1) to0.(0))

let crash_goes_silent () =
  let g = Topology.complete 3 in
  let sys = Util.make_gossip_system g in
  let crashed = Adversary.crash ~after:2 (System.device sys 1) in
  let sys = System.substitute sys 1 crashed in
  let t = Exec.run sys ~rounds:5 in
  let msgs = Trace.edge_behavior t ~src:1 ~dst:0 in
  check tbool "talks before crash" true (msgs.(0) <> None && msgs.(1) <> None);
  check tbool "silent after crash" true (msgs.(2) = None && msgs.(3) = None)

(* The executor hands each step the very state its device returned, and
   the trace records that object.  The two nodes' states are equal each
   round but never shared, and small, so a store that merged equal values
   would hand node 1 node 0's object. *)
let states_come_back_as_returned () =
  let rounds = 3 in
  let returned = Array.make_matrix 2 (rounds + 1) Value.unit in
  let fresh u r =
    let v = Value.pair (Value.int r) (Value.list [ Value.bool true ]) in
    returned.(u).(r) <- v;
    v
  in
  let device u =
    Device.make
      ~name:"fresh"
      ~arity:1
      ~init:(fun ~input:_ -> fresh u 0)
      ~step:
        (fun ~state ~round ~inbox:_ ->
          check tbool
            (Printf.sprintf "node %d gets its own state at round %d" u round)
            true
            (state == returned.(u).(round));
          fresh u (round + 1), [| None |])
      ~output:(fun _ -> None)
  in
  let sys = System.make (Topology.path 2) (fun u -> device u, Value.unit) in
  let t = Exec.run sys ~rounds in
  for u = 0 to 1 do
    Array.iteri
      (fun r state ->
        check tbool
          (Printf.sprintf "trace holds node %d's own state %d" u r)
          true
          (state == returned.(u).(r)))
      (Trace.node_behavior t u)
  done

(* A state is encoded only when a reader asks for it.  The device keeps a
   bare bool and counts its projections: checking agreement reads
   decisions off the native states and projects nothing, and node
   behaviors project each (node, round) once, however often they are
   read. *)
let projection_on_demand () =
  let rounds = 3 in
  let projected = ref 0 in
  let device =
    Device.Device
      {
        Device.name = "counted";
        arity = 1;
        init = (fun ~input -> Value.get_bool input);
        step = (fun ~state ~round:_ ~inbox:_ -> state, [| Some (Value.bool state) |]);
        output = (fun state -> Some (Value.bool state));
        project =
          (fun state ->
            incr projected;
            Value.bool state);
      }
  in
  let sys = System.make (Topology.path 2) (fun _ -> device, Value.bool true) in
  let t = Exec.run sys ~rounds in
  let violations =
    Ba_spec.check ~trace:t ~correct:[ 0; 1 ] ~inputs:(fun _ -> Value.bool true)
  in
  check tbool "agreement and validity hold" true (violations = []);
  check Alcotest.int "checking projects nothing" 0 !projected;
  let first = List.map (Trace.node_behavior t) [ 0; 1 ] in
  check Alcotest.int "one projection per (node, round)" (2 * (rounds + 1))
    !projected;
  let second = List.map (Trace.node_behavior t) [ 0; 1 ] in
  check Alcotest.int "a second read projects nothing" (2 * (rounds + 1))
    !projected;
  check tbool "a second read returns the same values" true
    (List.for_all2 (Array.for_all2 ( == )) first second)

(* --- the axioms, executable ---------------------------------------------- *)

(* Fault axiom + Locality: take a run of a covering system S; replace, in G,
   a node by the replay device built from S's trace; the scenario of the
   remaining nodes of G must equal the corresponding scenario of S. *)
let locality_on_hexagon () =
  let c = Covering.triangle_hexagon () in
  let g = c.Covering.target in
  let horizon = 6 in
  let device w =
    Util.gossip_deciding
      ~name:(Printf.sprintf "D%d" w)
      ~arity:(Graph.degree g w) ~horizon
  in
  (* Inputs 0,0,0 on copy 0 (nodes u,v,w = 0,1,2) and 1,1,1 on copy 1. *)
  let cover_sys =
    System.of_covering c ~device ~input:(fun s ->
        if s < 3 then Value.int 0 else Value.int 1)
  in
  let s_trace = Exec.run cover_sys ~rounds:horizon in
  (* Scenario S_vw: source nodes 1,2 (v,w) over target 1,2 (b,c).  Build E1:
     in G, b and c honest with input 0; a runs F_A replaying u->v (0->1 in S)
     toward b and x->w (3->2 in S) toward c. *)
  let faulty =
    Adversary.from_trace s_trace ~name:"F_A"
      ~schedule:[ 0, 1; 3, 2 ]
    (* node a=0's wiring in G is [1;2]: port 0 -> b, port 1 -> c *)
  in
  let e1 =
    System.make g (fun w_node ->
        device w_node, Value.int 0)
  in
  let e1 = System.substitute e1 0 faulty in
  let e1_trace = Exec.run e1 ~rounds:horizon in
  let s_vw = Scenario.of_trace s_trace [ 1; 2 ] in
  let e_bc = Scenario.of_trace e1_trace [ 1; 2 ] in
  ok_or_fail (Scenario.matches ~map:Fun.id s_vw e_bc)

(* Property: Locality on random systems.  Run a random gossip system; pick a
   node subset U; replace every node outside U by a replay of its own edge
   behaviors; the scenario of U must be unchanged. *)
let prop_locality =
  let gen =
    QCheck.Gen.(
      map3 (fun n seed mask -> n + 4, seed, mask) (int_bound 6) (int_bound 9999)
        (int_bound 1023))
  in
  QCheck.Test.make ~name:"Locality: border determines scenario" ~count:60
    (QCheck.make gen)
    (fun (n, seed, mask) ->
      let g = Topology.random_connected ~seed ~n ~p:0.4 () in
      let sys = Util.make_gossip_system ~horizon:5 g in
      let t = Exec.run sys ~rounds:5 in
      let inside u = (mask lsr u) land 1 = 1 in
      let u_set = List.filter inside (Graph.nodes g) in
      if u_set = [] || List.length u_set = Graph.n g then true
      else begin
        let sys' =
          List.fold_left
            (fun acc v ->
              if inside v then acc
              else begin
                let schedule =
                  Array.to_list (System.wiring sys v)
                  |> List.map (fun w -> v, w)
                in
                System.substitute acc v
                  (Adversary.from_trace t ~name:"replay" ~schedule)
              end)
            sys (Graph.nodes g)
        in
        let t' = Exec.run sys' ~rounds:5 in
        Scenario.matches ~map:Fun.id
          (Scenario.of_trace t u_set)
          (Scenario.of_trace t' u_set)
        = Ok ()
      end)

(* Bounded-Delay Locality: changing the input of a node at hop distance d
   cannot affect another node's behavior before time d. *)
let prop_bounded_delay =
  let gen =
    QCheck.Gen.(map2 (fun n seed -> n + 4, seed) (int_bound 8) (int_bound 9999))
  in
  QCheck.Test.make ~name:"Bounded-Delay: news travels <= 1 edge/round" ~count:60
    (QCheck.make gen)
    (fun (n, seed) ->
      let g = Topology.random_connected ~seed ~n ~p:0.3 () in
      let rounds = 6 in
      let sys = Util.make_gossip_system ~horizon:rounds g in
      let sys' = System.substitute_input sys 0 (Value.int 999) in
      let t = Exec.run sys ~rounds in
      let t' = Exec.run sys' ~rounds in
      let dist = Graph.distances g 0 in
      List.for_all
        (fun u ->
          if u = 0 then true
          else begin
            let d = dist.(u) in
            let b = Trace.node_behavior t u and b' = Trace.node_behavior t' u in
            let limit = min d (Array.length b - 1) in
            let rec same i =
              i > limit - 1 || (Value.equal b.(i) b'.(i) && same (i + 1))
            in
            (* States 0 .. d-1 must agree; state d may differ. *)
            same 0
          end)
        (Graph.nodes g))

(* Scaling sanity for the synchronous model: scenario matching is invariant
   under the covering map on fibers — two nodes over the same target node
   with symmetric inputs have equal behaviors. *)
let fiber_symmetry () =
  let c = Covering.triangle_ring ~copies:4 in
  let g = c.Covering.target in
  let device w =
    Util.gossip_deciding ~name:(Printf.sprintf "D%d" w)
      ~arity:(Graph.degree g w) ~horizon:4
  in
  (* Same input everywhere: all lifts of a node behave identically. *)
  let sys = System.of_covering c ~device ~input:(fun _ -> Value.int 7) in
  let t = Exec.run sys ~rounds:4 in
  List.iter
    (fun w ->
      match Covering.fiber c w with
      | first :: rest ->
        List.iter
          (fun other ->
            check tbool "fiber nodes agree" true
              (Array.for_all2 Value.equal (Trace.node_behavior t first)
                 (Trace.node_behavior t other)))
          rest
      | [] -> Alcotest.fail "empty fiber")
    (Graph.nodes g)

let scenario_mismatch_detected () =
  let g = Topology.path 3 in
  let sys = Util.make_gossip_system ~horizon:3 g in
  let sys2 =
    System.substitute_input (Util.make_gossip_system ~horizon:3 g) 0
      (Value.int 42)
  in
  let t1 = Exec.run sys ~rounds:3 and t2 = Exec.run sys2 ~rounds:3 in
  match
    Scenario.matches ~map:Fun.id
      (Scenario.of_trace t1 [ 0; 1 ])
      (Scenario.of_trace t2 [ 0; 1 ])
  with
  | Ok () -> Alcotest.fail "expected mismatch"
  | Error _ -> ()

let suite =
  ( "system",
    [ Alcotest.test_case "delivery takes one round" `Quick delivery_takes_one_round;
      Alcotest.test_case "determinism" `Quick determinism;
      Alcotest.test_case "gossip converges" `Quick gossip_converges;
      Alcotest.test_case "run_until_decided" `Quick run_until_decided;
      Alcotest.test_case "edge behavior consistency" `Quick edge_behavior_consistency;
      Alcotest.test_case "decision stability" `Quick decision_stability;
      Alcotest.test_case "replay device" `Quick replay_device_replays;
      Alcotest.test_case "step_checked rejects" `Quick step_checked_rejects;
      Alcotest.test_case "split brain per port" `Quick split_brain_per_port;
      Alcotest.test_case "crash goes silent" `Quick crash_goes_silent;
      Alcotest.test_case "locality on hexagon (Fault axiom)" `Quick locality_on_hexagon;
      Alcotest.test_case "fiber symmetry" `Quick fiber_symmetry;
      Alcotest.test_case "scenario mismatch detected" `Quick scenario_mismatch_detected;
      QCheck_alcotest.to_alcotest prop_locality;
      QCheck_alcotest.to_alcotest prop_bounded_delay;
      Alcotest.test_case "states come back as returned" `Quick
        states_come_back_as_returned;
      Alcotest.test_case "projection on demand" `Quick projection_on_demand;
    ] )
