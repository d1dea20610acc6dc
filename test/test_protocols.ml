(* Phase King, approximate agreement, Dolev relay, firing squad,
   Dolev–Strong, and the strawmen. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let correct_nodes g faulty =
  List.filter (fun u -> not (List.mem u faulty)) (Graph.nodes g)

let agreement_holds trace nodes =
  match List.filter_map (fun u -> Trace.decision trace u) nodes with
  | [] -> false
  | first :: rest -> List.for_all (Value.equal first) rest

let all_decided trace nodes =
  List.for_all (fun u -> Trace.decision trace u <> None) nodes

(* --- Phase King ----------------------------------------------------------- *)

let king_run ~n ~f ~inputs ~faulty =
  let g = Topology.complete n in
  let sys = Phase_king.system g ~f ~inputs in
  let sys =
    List.fold_left (fun acc (u, d) -> System.substitute acc u d) sys faulty
  in
  Exec.run sys ~rounds:(Phase_king.decision_round ~f + 1)

let phase_king_fault_free () =
  List.iter
    (fun (n, f) ->
      List.iter
        (fun pattern ->
          let inputs = Array.init n (fun u -> pattern land (1 lsl u) <> 0) in
          let t = king_run ~n ~f ~inputs ~faulty:[] in
          let nodes = List.init n Fun.id in
          check tbool "decided" true (all_decided t nodes);
          check tbool "agreement" true (agreement_holds t nodes);
          (match Array.to_list inputs |> List.sort_uniq Bool.compare with
          | [ v ] ->
            List.iter
              (fun u ->
                check tbool "validity" true
                  (Trace.decision t u = Some (Value.bool v)))
              nodes
          | _ -> ()))
        [ 0; 1; 7; (1 lsl n) - 1 ])
    [ 5, 1; 9, 2 ]

let phase_king_under_attack () =
  (* n > 4f with f split-brain/babbling nodes. *)
  List.iter
    (fun (n, f, bad) ->
      List.iter
        (fun pattern ->
          let inputs = Array.init n (fun u -> pattern land (1 lsl u) <> 0) in
          let faulty =
            List.map
              (fun u ->
                ( u,
                  Adversary.split_brain
                    (Phase_king.device ~n ~f ~me:u)
                    ~inputs:
                      (Array.init (n - 1) (fun j ->
                           Value.bool (j mod 2 = 0))) ))
              bad
          in
          let t = king_run ~n ~f ~inputs ~faulty in
          let correct = correct_nodes (Topology.complete n) bad in
          check tbool "agreement under split-brain" true
            (agreement_holds t correct);
          check tbool "decided" true (all_decided t correct);
          (* Validity among correct nodes. *)
          match
            List.sort_uniq Bool.compare (List.map (fun u -> inputs.(u)) correct)
          with
          | [ v ] ->
            List.iter
              (fun u ->
                check tbool "validity under attack" true
                  (Trace.decision t u = Some (Value.bool v)))
              correct
          | _ -> ())
        [ 0; 5; 21; (1 lsl n) - 1 ])
    [ 5, 1, [ 2 ]; 9, 2, [ 0; 7 ] ]
(* king 0 faulty in the second config: a faulty king must not break anything *)

(* --- Approximate agreement ------------------------------------------------ *)

let approx_trimmed_midpoint () =
  check (Alcotest.float 1e-9) "midpoint" 3.0
    (Approx.trimmed_midpoint ~f:1 [ 0.0; 2.0; 4.0; 100.0 ]);
  check (Alcotest.float 1e-9) "no trim" 5.0
    (Approx.trimmed_midpoint ~f:0 [ 0.0; 10.0 ]);
  match Approx.trimmed_midpoint ~f:2 [ 1.0; 2.0; 3.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let approx_run ~n ~f ~rounds ~inputs ~faulty =
  let g = Topology.complete n in
  let sys = Approx.system g ~f ~rounds ~inputs in
  let sys =
    List.fold_left (fun acc (u, d) -> System.substitute acc u d) sys faulty
  in
  Exec.run sys ~rounds:(Approx.decision_round ~rounds + 1)

let float_decisions t nodes =
  List.map
    (fun u ->
      match Trace.decision t u with
      | Some v -> Value.get_float v
      | None -> Alcotest.fail "no decision")
    nodes

let spread xs = List.fold_left max neg_infinity xs -. List.fold_left min infinity xs

let approx_converges () =
  let n = 4 and f = 1 in
  let inputs = [| 0.0; 1.0; 0.25; 0.75 |] in
  let rounds = Approx.rounds_for ~eps:0.01 ~delta:1.0 in
  let t = approx_run ~n ~f ~rounds ~inputs ~faulty:[] in
  let outs = float_decisions t (List.init n Fun.id) in
  check tbool "spread below eps" true (spread outs <= 0.01);
  List.iter
    (fun x -> check tbool "validity range" true (x >= 0.0 && x <= 1.0))
    outs

let approx_with_byzantine_extremes () =
  (* A babbler shouting huge values must neither break validity nor stall
     convergence: trimming removes it. *)
  let n = 4 and f = 1 in
  let inputs = [| 0.2; 0.4; 0.6; 0.0 |] in
  let rounds = 10 in
  let bad =
    Adversary.babbler ~seed:3 ~arity:(n - 1)
      ~palette:[ Value.float 1e12; Value.float (-1e12); Value.string "junk" ]
  in
  let t = approx_run ~n ~f ~rounds ~inputs ~faulty:[ 3, bad ] in
  let correct = [ 0; 1; 2 ] in
  let outs = float_decisions t correct in
  check tbool "agreement eps" true (spread outs <= 0.4 /. 512.0);
  List.iter
    (fun x ->
      check tbool "validity within correct inputs" true (x >= 0.2 && x <= 0.6))
    outs

let approx_split_brain () =
  let n = 4 and f = 1 in
  let inputs = [| 0.0; 1.0; 0.5; 0.0 |] in
  let rounds = 12 in
  let bad =
    Adversary.split_brain
      (Approx.device ~n ~f ~me:3 ~rounds)
      ~inputs:[| Value.float 0.0; Value.float 1.0; Value.float 0.33 |]
  in
  let t = approx_run ~n ~f ~rounds ~inputs ~faulty:[ 3, bad ] in
  let outs = float_decisions t [ 0; 1; 2 ] in
  check tbool "agreement" true (spread outs <= 1.0 /. 1024.0);
  List.iter
    (fun x -> check tbool "validity" true (x >= 0.0 && x <= 1.0))
    outs

let approx_halving_rate () =
  (* Fault-free: the spread at least halves every round. *)
  let n = 4 and f = 1 in
  let inputs = [| 0.0; 1.0; 1.0; 0.0 |] in
  let g = Topology.complete n in
  let rounds = 6 in
  let sys = Approx.system g ~f ~rounds ~inputs in
  let t = Exec.run sys ~rounds:(rounds + 2) in
  (* Read the estimate out of each state over time. *)
  let estimate u r =
    let state = (Trace.node_behavior t u).(r) in
    let _, est, _ = Value.get_triple state in
    Value.get_float est
  in
  let spread_at r = spread (List.init n (fun u -> estimate u r)) in
  let rec go r =
    if r >= rounds then ()
    else begin
      check tbool
        (Printf.sprintf "halving at round %d" r)
        true
        (spread_at (r + 1) <= (spread_at r /. 2.0) +. 1e-12);
      go (r + 1)
    end
  in
  go 1

(* --- Dolev relay ----------------------------------------------------------- *)

let relay_fault_free () =
  List.iter
    (fun (g, f, source) ->
      let value = Value.int 4242 in
      let sys =
        Dolev_relay.system g ~f ~source ~value ~default:(Value.int 0)
      in
      let t = Exec.run sys ~rounds:(Dolev_relay.decision_round g ~f ~source + 1) in
      List.iter
        (fun u ->
          check tbool "relay delivers" true
            (Trace.decision t u = Some value))
        (Graph.nodes g))
    [ Topology.complete 4, 1, 0;
      Topology.harary ~k:3 ~n:7, 1, 2;
      Topology.harary ~k:5 ~n:9, 2, 0;
      Topology.wheel 5, 1, 3;
    ]

let relay_under_attack () =
  (* f faulty relays (never the source) lie about everything; destinations
     still decode the true value on kappa >= 2f+1 graphs. *)
  let cases =
    [ Topology.harary ~k:3 ~n:7, 1, 0, [ 3 ];
      Topology.harary ~k:5 ~n:9, 2, 1, [ 0; 5 ];
      Topology.complete 4, 1, 2, [ 0 ];
    ]
  in
  List.iter
    (fun (g, f, source, bad) ->
      let value = Value.int 7 in
      let sys = Dolev_relay.system g ~f ~source ~value ~default:(Value.int 0) in
      let sys =
        List.fold_left
          (fun acc u ->
            System.substitute acc u
              (Adversary.mutate
                 (Dolev_relay.device g ~f ~source ~me:u ~default:(Value.int 0))
                 ~rewrite:(fun ~port:_ ~round:_ m ->
                   Option.map
                     (fun bundle ->
                       match Value.get_list bundle with
                       | exception Value.Type_error _ -> bundle
                       | items ->
                         Value.list
                           (List.map
                              (fun item ->
                                if Value.is_tag "relay" item then begin
                                  let d, i, _ =
                                    Value.get_triple (Value.untag "relay" item)
                                  in
                                  Value.tag "relay"
                                    (Value.triple d i (Value.int 666))
                                end
                                else item)
                              items))
                     m)))
          sys bad
      in
      let t = Exec.run sys ~rounds:(Dolev_relay.decision_round g ~f ~source + 1) in
      List.iter
        (fun u ->
          check tbool
            (Printf.sprintf "relay survives lies at node %d" u)
            true
            (Trace.decision t u = Some value))
        (correct_nodes g bad))
    cases

let relay_needs_connectivity () =
  (* kappa = 2f: the path systems cannot be built; the protocol refuses. *)
  match Dolev_relay.routes (Topology.cycle 5) ~f:1 ~source:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure on kappa = 2f"

let relay_routes_disjoint () =
  let g = Topology.harary ~k:5 ~n:11 in
  let table = Dolev_relay.routes g ~f:2 ~source:3 in
  List.iter
    (fun (dst, paths) ->
      check tint "2f+1 paths" 5 (List.length paths);
      check tbool "disjoint" true
        (Paths.are_internally_disjoint ~src:3 ~dst paths);
      check tbool "valid paths" true (List.for_all (Paths.is_path g) paths))
    table

(* --- Firing squad ----------------------------------------------------------- *)

let fire_time t u =
  let rec go r =
    if r > Trace.rounds t then None
    else
      match Trace.output t u ~round:r with
      | Some v when Value.equal v Firing.fire -> Some r
      | _ -> go (r + 1)
  in
  go 0

let firing_with_stimulus () =
  List.iter
    (fun (n, f, stimulated) ->
      let g = Topology.complete n in
      let sys = Firing.system g ~f ~stimulated in
      let t = Exec.run sys ~rounds:(Firing.fire_round ~f + 2) in
      List.iter
        (fun u ->
          check Alcotest.(option int)
            (Printf.sprintf "node %d fires at f+3" u)
            (Some (Firing.fire_round ~f))
            (fire_time t u))
        (Graph.nodes g))
    [ 4, 1, [ 0 ]; 4, 1, [ 0; 1; 2; 3 ]; 7, 2, [ 5 ] ]

let firing_without_stimulus () =
  let g = Topology.complete 4 in
  let sys = Firing.system g ~f:1 ~stimulated:[] in
  let t = Exec.run sys ~rounds:(Firing.fire_round ~f:1 + 2) in
  List.iter
    (fun u -> check tbool "never fires" true (fire_time t u = None))
    (Graph.nodes g)

let firing_simultaneity_under_attack () =
  (* A faulty node may cause firing or not, but correct nodes must act in
     unison. *)
  let n = 4 and f = 1 in
  let g = Topology.complete n in
  List.iter
    (fun (bad_dev, stimulated) ->
      let sys = Firing.system g ~f ~stimulated in
      let sys = System.substitute sys 1 bad_dev in
      let t = Exec.run sys ~rounds:(Firing.fire_round ~f + 2) in
      let times = List.map (fun u -> fire_time t u) [ 0; 2; 3 ] in
      match List.sort_uniq compare times with
      | [ _ ] -> ()
      | _ -> Alcotest.fail "correct nodes did not act simultaneously")
    [ Adversary.silent ~arity:3, [ 0 ];
      Adversary.babbler ~seed:11 ~arity:3
        ~palette:[ Value.tag "stim" (Value.bool true); Value.bool true ],
      [];
      Adversary.split_brain
        (Firing.device ~n ~f ~me:1)
        ~inputs:[| Value.bool true; Value.bool false; Value.bool true |],
      [ 2 ];
    ]

(* --- Dolev–Strong (signed) -------------------------------------------------- *)

let ds_run ?(signed = true) ~n ~f ~inputs ~faulty () =
  let g = Topology.complete n in
  let sys =
    Dolev_strong.system g ~f
      ~inputs:(Array.map Value.bool inputs)
      ~default:(Value.bool false)
  in
  let sys =
    List.fold_left (fun acc (u, d) -> System.substitute acc u d) sys faulty
  in
  Exec.run ~signed sys ~rounds:(Dolev_strong.decision_round ~f + 1)

let ds_triangle_beats_inadequacy () =
  (* n = 3, f = 1 — inadequate for unsigned BA, fine with signatures. *)
  List.iter
    (fun inputs ->
      let t = ds_run ~n:3 ~f:1 ~inputs ~faulty:[] () in
      let nodes = [ 0; 1; 2 ] in
      check tbool "agreement" true (agreement_holds t nodes);
      check tbool "decided" true (all_decided t nodes);
      match Array.to_list inputs |> List.sort_uniq Bool.compare with
      | [ v ] ->
        List.iter
          (fun u ->
            check tbool "validity" true (Trace.decision t u = Some (Value.bool v)))
          nodes
      | _ -> ())
    [ [| true; true; true |];
      [| false; false; false |];
      [| true; false; true |];
    ]

let ds_with_split_brain () =
  List.iter
    (fun (n, f, bad) ->
      let inputs = Array.init n (fun u -> u mod 2 = 0) in
      let faulty =
        List.map
          (fun u ->
            ( u,
              Adversary.split_brain
                (Dolev_strong.device ~n ~f ~me:u ~default:(Value.bool false))
                ~inputs:(Array.init (n - 1) (fun j -> Value.bool (j mod 2 = 0)))
            ))
          bad
      in
      let t = ds_run ~n ~f ~inputs ~faulty () in
      let correct = correct_nodes (Topology.complete n) bad in
      check tbool "signed agreement" true (agreement_holds t correct);
      check tbool "decided" true (all_decided t correct))
    [ 3, 1, [ 2 ]; 5, 2, [ 1; 3 ] ]

(* The forging attack: without the signature functionality a faulty node can
   fabricate chains and split the honest nodes; with it, the forgery is
   mangled in transit and agreement survives. *)
let forger ~n ~me =
  let arity = n - 1 in
  let fake_chain =
    (* Pretend node 1 signed input false (node 1 actually has input true). *)
    Signature.signed ~signer:me
      (Signature.signed ~signer:1
         (Value.tag "inst" (Value.pair (Value.int 1) (Value.bool false))))
  in
  let equivocate port =
    Signature.signed ~signer:me
      (Value.tag "inst" (Value.pair (Value.int me) (Value.bool (port = 1))))
  in
  Device.make
    ~name:"forger"
    ~arity
    ~init:(fun ~input:_ -> Value.int 0)
    ~step:
      (fun ~state ~round ~inbox:_ ->
        let sends =
          if round = 0 then
            Array.init arity (fun port -> Some (Value.list [ equivocate port ]))
          else if round = 1 then
            (* Send the forged chain to node 0 only. *)
            Array.init arity (fun port ->
                if port = 0 then Some (Value.list [ fake_chain ]) else None)
          else Array.make arity None
        in
        state, sends)
    ~output:(fun _ -> None)

let ds_forgery_blocked_when_signed () =
  let n = 3 and f = 1 in
  let inputs = [| true; true; false |] in
  let faulty = [ 2, forger ~n ~me:2 ] in
  (* Signed: agreement and validity hold despite the forgery attempt. *)
  let t = ds_run ~signed:true ~n ~f ~inputs ~faulty () in
  check tbool "signed: agreement" true (agreement_holds t [ 0; 1 ]);
  List.iter
    (fun u ->
      check tbool "signed: validity" true
        (Trace.decision t u = Some (Value.bool true)))
    [ 0; 1 ];
  (* Unsigned: the same attack splits the honest nodes. *)
  let t' = ds_run ~signed:false ~n ~f ~inputs ~faulty () in
  check tbool "unsigned: forgery breaks agreement or validity" false
    (agreement_holds t' [ 0; 1 ]
    && Trace.decision t' 0 = Some (Value.bool true))

(* --- strawmen ---------------------------------------------------------------- *)

let naive_majority_breaks () =
  (* n = 4, f = 1 is adequate, yet naive majority is broken by split-brain:
     the protocols' machinery is necessary, not decorative. *)
  let n = 4 in
  let g = Topology.complete n in
  let inputs = [| true; true; false; false |] in
  let sys =
    System.make g (fun u ->
        ( Naive.majority_vote ~n ~f:1 ~me:u ~default:(Value.bool false),
          Value.bool inputs.(u) ))
  in
  let bad =
    Adversary.split_brain
      (Naive.majority_vote ~n ~f:1 ~me:3 ~default:(Value.bool false))
      ~inputs:[| Value.bool true; Value.bool false; Value.bool false |]
  in
  let sys = System.substitute sys 3 bad in
  let t = Exec.run sys ~rounds:4 in
  check tbool "naive majority split" false (agreement_holds t [ 0; 1; 2 ])

let repeat_own_fails_agreement () =
  let n = 3 in
  let g = Topology.complete n in
  let sys =
    System.make g (fun u ->
        Naive.repeat_own ~n ~me:u, Value.bool (u = 0))
  in
  let t = Exec.run sys ~rounds:2 in
  check tbool "no agreement" false (agreement_holds t [ 0; 1; 2 ])

let suite =
  ( "protocols",
    [ Alcotest.test_case "phase king fault-free" `Quick phase_king_fault_free;
      Alcotest.test_case "phase king under attack" `Quick phase_king_under_attack;
      Alcotest.test_case "trimmed midpoint" `Quick approx_trimmed_midpoint;
      Alcotest.test_case "approx converges" `Quick approx_converges;
      Alcotest.test_case "approx vs byzantine extremes" `Quick approx_with_byzantine_extremes;
      Alcotest.test_case "approx vs split brain" `Quick approx_split_brain;
      Alcotest.test_case "approx halving rate" `Quick approx_halving_rate;
      Alcotest.test_case "relay fault-free" `Quick relay_fault_free;
      Alcotest.test_case "relay under attack" `Quick relay_under_attack;
      Alcotest.test_case "relay needs 2f+1 connectivity" `Quick relay_needs_connectivity;
      Alcotest.test_case "relay routes disjoint" `Quick relay_routes_disjoint;
      Alcotest.test_case "firing with stimulus" `Quick firing_with_stimulus;
      Alcotest.test_case "firing without stimulus" `Quick firing_without_stimulus;
      Alcotest.test_case "firing simultaneity under attack" `Quick firing_simultaneity_under_attack;
      Alcotest.test_case "dolev-strong on triangle" `Quick ds_triangle_beats_inadequacy;
      Alcotest.test_case "dolev-strong vs split brain" `Quick ds_with_split_brain;
      Alcotest.test_case "dolev-strong forgery blocked" `Quick ds_forgery_blocked_when_signed;
      Alcotest.test_case "naive majority breaks" `Quick naive_majority_breaks;
      Alcotest.test_case "repeat-own fails" `Quick repeat_own_fails_agreement;
    ] )
