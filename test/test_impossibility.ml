(* The impossibility engine: every FLM construction, executed mechanically
   against real protocol implementations, must produce a validated
   contradiction certificate on inadequate graphs — and must correctly
   *fail* to produce one when signatures break the Fault axiom. *)

let check = Alcotest.check
let tbool = Alcotest.bool

let expect_contradiction label cert =
  check tbool (label ^ ": contradiction") true
    (Certificate.is_contradiction cert);
  match Certificate.validate cert with
  | Ok () -> ()
  | Error msg -> Alcotest.fail (label ^ ": certificate invalid: " ^ msg)

let bool_default = Value.bool false

(* --- Theorem 1, node bound -------------------------------------------------- *)

let eig_devices ~n ~f w = Eig.device ~n ~f ~me:w ~default:bool_default

let theorem1_triangle_eig () =
  let cert =
    Ba_nodes.certify
      ~device:(eig_devices ~n:3 ~f:1)
      ~v0:(Value.bool false) ~v1:(Value.bool true)
      ~horizon:(Eig.decision_round ~f:1 + 1)
      ~f:1 (Topology.complete 3)
  in
  expect_contradiction "triangle EIG" cert;
  (* The hexagon really is the covering used. *)
  check Alcotest.int "6-node cover" 6
    (Graph.n cert.Certificate.covering.Covering.source)

let theorem1_triangle_all_protocols () =
  List.iter
    (fun (name, device, horizon) ->
      let cert =
        Ba_nodes.certify ~device ~v0:(Value.bool false) ~v1:(Value.bool true)
          ~horizon ~f:1 (Topology.complete 3)
      in
      expect_contradiction name cert)
    [ ( "naive majority",
        (fun w -> Naive.majority_vote ~n:3 ~f:1 ~me:w ~default:bool_default),
        4 );
      ( "echo once",
        (fun w -> Naive.echo_once ~n:3 ~me:w ~default:bool_default),
        5 );
      ( "phase king",
        (fun w -> Phase_king.device ~n:3 ~f:1 ~me:w),
        Phase_king.decision_round ~f:1 + 1 );
      ( "repeat own",
        (fun w -> Naive.repeat_own ~n:3 ~me:w),
        3 );
      ( "flood vote",
        (fun w ->
          Naive.flood_vote (Topology.complete 3) ~me:w ~rounds:4
            ~default:bool_default),
        7 );
    ]

let theorem1_general_n_le_3f () =
  (* n = 5 and 6 with f = 2: same construction through the generic partition. *)
  List.iter
    (fun n ->
      let f = 2 in
      let cert =
        Ba_nodes.certify
          ~device:(eig_devices ~n ~f)
          ~v0:(Value.bool false) ~v1:(Value.bool true)
          ~horizon:(Eig.decision_round ~f + 1)
          ~f (Topology.complete n)
      in
      expect_contradiction (Printf.sprintf "K%d f=2" n) cert;
      check Alcotest.int "double cover" (2 * n)
        (Graph.n cert.Certificate.covering.Covering.source))
    [ 5; 6 ]

let theorem1_rejects_adequate () =
  match
    Ba_nodes.certify
      ~device:(eig_devices ~n:4 ~f:1)
      ~v0:(Value.bool false) ~v1:(Value.bool true) ~horizon:4 ~f:1
      (Topology.complete 4)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "K4 with f=1 is adequate; certify must refuse"

(* --- Theorem 1, connectivity bound ------------------------------------------ *)

let flood_devices g ~rounds w =
  Naive.flood_vote g ~me:w ~rounds ~default:bool_default

let connectivity_square () =
  (* The paper's §3.2 example: the 4-cycle, kappa = 2 = 2f. *)
  let g = Topology.cycle 4 in
  let cert =
    Ba_connectivity.certify
      ~device:(flood_devices g ~rounds:4)
      ~v0:(Value.bool false) ~v1:(Value.bool true) ~horizon:7 ~f:1 g
  in
  expect_contradiction "square flood-vote" cert;
  check Alcotest.int "8-node cover" 8
    (Graph.n cert.Certificate.covering.Covering.source)

let connectivity_harary () =
  (* n is large enough (12 >= 7) but kappa = 4 = 2f for f = 2. *)
  let g = Topology.harary ~k:4 ~n:12 in
  let cert =
    Ba_connectivity.certify
      ~device:(flood_devices g ~rounds:6)
      ~v0:(Value.bool false) ~v1:(Value.bool true) ~horizon:9 ~f:2 g
  in
  expect_contradiction "H(4,12) flood-vote" cert

(* --- signatures break the Fault axiom (E13 ablation) ------------------------- *)

let signatures_defeat_the_construction () =
  let device w = Dolev_strong.device ~n:3 ~f:1 ~me:w ~default:bool_default in
  let cert =
    Ba_nodes.certify ~signed:true ~device ~v0:(Value.bool false)
      ~v1:(Value.bool true)
      ~horizon:(Dolev_strong.decision_round ~f:1 + 1)
      ~f:1 (Topology.complete 3)
  in
  (match cert.Certificate.verdict with
  | Certificate.Fault_axiom_failed _ -> ()
  | Certificate.Contradiction _ ->
    Alcotest.fail "construction should not break Dolev-Strong under signatures"
  | Certificate.Unbroken _ -> Alcotest.fail "expected Fault_axiom_failed");
  match Certificate.validate cert with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("certificate invalid: " ^ msg)

let unsigned_ds_is_broken_by_construction () =
  (* The same devices under the ordinary executor: replay masquerading works
     and the certificate finds a contradiction. *)
  let device w = Dolev_strong.device ~n:3 ~f:1 ~me:w ~default:bool_default in
  let cert =
    Ba_nodes.certify ~device ~v0:(Value.bool false) ~v1:(Value.bool true)
      ~horizon:(Dolev_strong.decision_round ~f:1 + 1)
      ~f:1 (Topology.complete 3)
  in
  expect_contradiction "unsigned Dolev-Strong" cert

(* --- Theorem 2: weak agreement ----------------------------------------------- *)

let weak_agreement_ring () =
  let deadline = Eig.decision_round ~f:1 in
  let cert =
    Weak_ring.certify
      ~device:(eig_devices ~n:3 ~f:1)
      ~deadline ~horizon:(deadline + 2) ()
  in
  expect_contradiction "weak agreement EIG ring" cert;
  (* Lemma 3 notes must report matching prefixes. *)
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun note ->
      if contains ~needle:"Lemma 3" note then
        check tbool "prefix lemma holds" false (contains ~needle:"DOES NOT" note))
    cert.Certificate.notes

let weak_agreement_explicit_ring_size () =
  let deadline = 4 in
  let cert =
    Weak_ring.certify
      ~device:(fun w ->
        Naive.flood_vote (Topology.complete 3) ~me:w ~rounds:3
          ~default:bool_default)
      ~deadline ~copies:10 ~horizon:(deadline + 2) ()
  in
  expect_contradiction "weak agreement flood ring" cert;
  check Alcotest.int "ring size" 30
    (Graph.n cert.Certificate.covering.Covering.source)

(* --- Theorem 4: firing squad -------------------------------------------------- *)

let firing_squad_ring () =
  let fire_round = Firing.fire_round ~f:1 in
  let cert =
    Firing_ring.certify
      ~device:(fun w -> Firing.device ~n:3 ~f:1 ~me:w)
      ~fire_round ~horizon:(fire_round + 2) ()
  in
  expect_contradiction "firing squad ring" cert

(* --- Theorems 5 and 6: approximate agreement ---------------------------------- *)

let approx_simple () =
  let rounds = 5 in
  let cert =
    Approx_chain.certify_simple
      ~device:(fun w -> Approx.device ~n:3 ~f:1 ~me:w ~rounds)
      ~horizon:(Approx.decision_round ~rounds + 1)
      ()
  in
  expect_contradiction "simple approximate agreement" cert

let approx_edg () =
  let rounds = 4 in
  let eps = 1.0 /. 16.0 and gamma = 0.0 and delta = 1.0 in
  let cert =
    Approx_chain.certify_edg
      ~device:(fun w -> Approx.device ~n:3 ~f:1 ~me:w ~rounds)
      ~eps ~gamma ~delta
      ~horizon:(Approx.decision_round ~rounds + 1)
      ()
  in
  expect_contradiction "(eps,delta,gamma)-agreement" cert;
  (* k = 4 gives a 6-node chain ring. *)
  check Alcotest.int "chain ring" 6
    (Graph.n cert.Certificate.covering.Covering.source)

let choose_k_laws () =
  check Alcotest.int "k for gamma=0" 4
    (Approx_chain.choose_k ~eps:0.1 ~gamma:0.0 ~delta:1.0);
  let k = Approx_chain.choose_k ~eps:0.05 ~gamma:2.0 ~delta:0.5 in
  check tbool "k satisfies the inequality" true
    (0.5 > (2.0 *. 2.0 /. float_of_int (k - 1)) +. 0.05);
  check Alcotest.int "k+2 divisible by 3" 0 ((k + 2) mod 3);
  match Approx_chain.choose_k ~eps:1.0 ~gamma:0.0 ~delta:0.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "delta <= eps must be rejected"

(* --- Reconstruct-level checks -------------------------------------------------- *)

let reconstruct_rejects_inconsistent_chi () =
  let covering = Covering.triangle_hexagon () in
  let device w = eig_devices ~n:3 ~f:1 w in
  let covering_system =
    System.of_covering covering ~device ~input:(fun s ->
        Value.bool (s >= 3))
  in
  let covering_trace = Exec.run covering_system ~rounds:4 in
  (* Nodes 0 and 2 of K3: the 2-0 edge is crossed, so both at copy 0 is
     inconsistent. *)
  match
    Reconstruct.run ~label:"bad" ~covering ~covering_system ~covering_trace
      ~device
      ~chi:(fun v -> if v = 1 then None else Some 0)
      ~rounds:4 ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inconsistent chi must be rejected"

let validate_detects_tampering () =
  let cert =
    Ba_nodes.certify
      ~device:(eig_devices ~n:3 ~f:1)
      ~v0:(Value.bool false) ~v1:(Value.bool true)
      ~horizon:(Eig.decision_round ~f:1 + 1)
      ~f:1 (Topology.complete 3)
  in
  let tampered = { cert with Certificate.verdict = Certificate.Unbroken "nope" } in
  match Certificate.validate tampered with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tampered verdict must not validate"

(* [validate] re-derives each locality witness from the traces: a run that
   carries another run's trace no longer matches its covering scenario. *)
let validate_detects_swapped_trace () =
  let cert =
    Ba_nodes.certify
      ~device:(eig_devices ~n:3 ~f:1)
      ~v0:(Value.bool false) ~v1:(Value.bool true)
      ~horizon:(Eig.decision_round ~f:1 + 1)
      ~f:1 (Topology.complete 3)
  in
  let e1_trace =
    match cert.Certificate.runs with
    | (e1, _) :: _ -> e1.Reconstruct.trace
    | [] -> Alcotest.fail "no runs"
  in
  let runs =
    List.map
      (fun ((r : Reconstruct.t), violations) ->
        if r.label = "E2" then { r with trace = e1_trace }, violations
        else r, violations)
      cert.Certificate.runs
  in
  match Certificate.validate { cert with Certificate.runs } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "E2 holding E1's trace must not validate"

(* A ring edge's scenario places exactly its two endpoints' targets, each
   at its own copy. *)
let edge_scenario_places_endpoints () =
  let covering = Covering.triangle_ring ~copies:2 in
  (* Source 2 is node 2 of copy 0; source 3 is node 0 of copy 1. *)
  let chi = Certificate.edge_scenario covering 2 3 in
  check
    Alcotest.(list (option int))
    "chi over K3" [ Some 1; None; Some 0 ]
    (List.map chi [ 0; 1; 2 ])

(* Property: Theorem 1 holds for every Boolean input pair fed to the pinning
   runs, and with the roles of 0/1 swapped. *)
let prop_triangle_any_pinning =
  QCheck.Test.make ~name:"triangle certificate for both orientations" ~count:4
    QCheck.bool
    (fun swap ->
      let v0 = Value.bool swap and v1 = Value.bool (not swap) in
      let cert =
        Ba_nodes.certify
          ~device:(eig_devices ~n:3 ~f:1)
          ~v0 ~v1
          ~horizon:(Eig.decision_round ~f:1 + 1)
          ~f:1 (Topology.complete 3)
      in
      Certificate.is_contradiction cert && Certificate.validate cert = Ok ())

let suite =
  ( "impossibility",
    [ Alcotest.test_case "theorem 1: triangle vs EIG" `Quick theorem1_triangle_eig;
      Alcotest.test_case "theorem 1: triangle vs all protocols" `Quick
        theorem1_triangle_all_protocols;
      Alcotest.test_case "theorem 1: general n <= 3f" `Quick theorem1_general_n_le_3f;
      Alcotest.test_case "theorem 1: refuses adequate graphs" `Quick
        theorem1_rejects_adequate;
      Alcotest.test_case "theorem 1: connectivity (square)" `Quick connectivity_square;
      Alcotest.test_case "theorem 1: connectivity (harary)" `Quick connectivity_harary;
      Alcotest.test_case "signatures defeat the construction" `Quick
        signatures_defeat_the_construction;
      Alcotest.test_case "unsigned DS is broken" `Quick unsigned_ds_is_broken_by_construction;
      Alcotest.test_case "theorem 2: weak agreement ring" `Quick weak_agreement_ring;
      Alcotest.test_case "theorem 2: explicit ring size" `Quick
        weak_agreement_explicit_ring_size;
      Alcotest.test_case "theorem 4: firing squad ring" `Quick firing_squad_ring;
      Alcotest.test_case "theorem 5: simple approx" `Quick approx_simple;
      Alcotest.test_case "theorem 6: (eps,delta,gamma)" `Quick approx_edg;
      Alcotest.test_case "choose_k" `Quick choose_k_laws;
      Alcotest.test_case "reconstruct rejects bad chi" `Quick
        reconstruct_rejects_inconsistent_chi;
      Alcotest.test_case "validate detects tampering" `Quick validate_detects_tampering;
      Alcotest.test_case "validate detects a swapped run trace" `Quick
        validate_detects_swapped_trace;
      Alcotest.test_case "edge scenario places its endpoints" `Quick
        edge_scenario_places_endpoints;
      QCheck_alcotest.to_alcotest prop_triangle_any_pinning;
    ] )
