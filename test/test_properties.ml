(* Cross-cutting randomized properties: protocol correctness over random
   inputs / faults / topologies, and certificate totality over random
   inadequate configurations. *)

let bool_default = Value.bool false

let correct_nodes g faulty =
  List.filter (fun u -> not (List.mem u faulty)) (Graph.nodes g)

let ba_ok trace correct inputs =
  Ba_spec.check ~trace ~correct ~inputs = []

(* Shared generator plumbing: pick an adversary by index. *)
let pick_adversary ~which ~honest ~arity ~seed =
  match which mod 5 with
  | 0 -> Adversary.silent ~arity
  | 1 -> Adversary.crash ~after:(1 + (seed mod 3)) honest
  | 2 ->
    Adversary.split_brain honest
      ~inputs:(Array.init arity (fun j -> Value.bool ((j + seed) mod 2 = 0)))
  | 3 ->
    Adversary.babbler ~seed ~arity
      ~palette:[ Value.bool true; Value.bool false; Value.int seed ]
  | _ ->
    Adversary.mutate honest ~rewrite:(fun ~port ~round m ->
        if (port + round + seed) mod 3 = 0 then Some (Value.bool (seed mod 2 = 0))
        else m)

(* EIG at n = 3f+1 under random single-type attacks, random faulty sets. *)
let prop_eig_boundary =
  let gen =
    QCheck.Gen.(
      tup4 (int_bound 1) (int_range 0 255) (int_bound 4) (int_bound 999))
  in
  QCheck.Test.make ~name:"EIG at n=3f+1: random faults never break it"
    ~count:60 (QCheck.make gen)
    (fun (f_idx, pattern, which, seed) ->
      let f = f_idx + 1 in
      let n = (3 * f) + 1 in
      let g = Topology.complete n in
      let inputs =
        Array.init n (fun u -> Value.bool (pattern land (1 lsl u) <> 0))
      in
      let faulty = List.init f (fun i -> (seed + (i * 2)) mod n) in
      let faulty = List.sort_uniq Int.compare faulty in
      let sys =
        System.make g (fun u ->
            Eig.device ~n ~f ~me:u ~default:bool_default, inputs.(u))
      in
      let sys =
        List.fold_left
          (fun acc u ->
            System.substitute acc u
              (pick_adversary ~which ~arity:(n - 1) ~seed
                 ~honest:(Eig.device ~n ~f ~me:u ~default:bool_default)))
          sys faulty
      in
      let trace = Exec.run sys ~rounds:(Eig.decision_round ~f + 1) in
      ba_ok trace (correct_nodes g faulty) (fun u -> inputs.(u)))

(* Turpin-Coan over random multivalued inputs. *)
let prop_turpin_coan =
  let gen = QCheck.Gen.(tup3 (int_bound 3) (int_bound 4) (int_bound 999)) in
  QCheck.Test.make ~name:"Turpin-Coan: random values, random attack" ~count:50
    (QCheck.make gen)
    (fun (spread, which, seed) ->
      let n = 4 and f = 1 in
      let g = Topology.complete n in
      let inputs =
        Array.init n (fun u -> Value.int ((u + seed) mod (spread + 1)))
      in
      let bad = seed mod n in
      let sys =
        System.make g (fun u ->
            Turpin_coan.device ~n ~f ~me:u ~default:(Value.int (-1)), inputs.(u))
      in
      let sys =
        System.substitute sys bad
          (pick_adversary ~which ~arity:(n - 1) ~seed
             ~honest:(Turpin_coan.device ~n ~f ~me:bad ~default:(Value.int (-1))))
      in
      let trace = Exec.run sys ~rounds:(Turpin_coan.decision_round ~f + 1) in
      ba_ok trace (correct_nodes g [ bad ]) (fun u -> inputs.(u)))

(* Broadcast consistency: any general (honest or not), any relay attack. *)
let prop_broadcast =
  let gen = QCheck.Gen.(tup4 (int_bound 3) (int_bound 3) (int_bound 4) (int_bound 999)) in
  QCheck.Test.make ~name:"broadcast: followers always agree" ~count:50
    (QCheck.make gen)
    (fun (general, bad, which, seed) ->
      let n = 4 and f = 1 in
      let g = Topology.complete n in
      let sys =
        Broadcast.system g ~f ~general ~value:(Value.int seed)
          ~default:bool_default
      in
      let sys =
        System.substitute sys bad
          (pick_adversary ~which ~arity:(n - 1) ~seed
             ~honest:(Broadcast.device ~n ~f ~me:bad ~general ~default:bool_default))
      in
      let trace = Exec.run sys ~rounds:(Broadcast.decision_round ~f + 1) in
      let followers = correct_nodes g [ bad ] in
      let decisions = List.filter_map (fun u -> Trace.decision trace u) followers in
      List.length decisions = List.length followers
      && (match decisions with
         | first :: rest -> List.for_all (Value.equal first) rest
         | [] -> false)
      && (bad = general
         || List.for_all (Value.equal (Value.int seed)) decisions))

(* Approximate agreement: validity and epsilon-agreement over random inputs
   and a random in-range equivocator. *)
let prop_approx =
  let gen = QCheck.Gen.(tup2 (array_size (return 6) (float_bound_inclusive 10.0)) (int_bound 999)) in
  QCheck.Test.make ~name:"approx: validity + contraction on random reals"
    ~count:50 (QCheck.make gen)
    (fun (honest_inputs, seed) ->
      let n = 7 and f = 2 and rounds = 10 in
      let g = Topology.complete n in
      let inputs = Array.append honest_inputs [| 0.0 |] in
      let sys = Approx.system g ~f ~rounds ~inputs in
      let bad = 6 in
      let sys =
        System.substitute sys bad
          (Adversary.split_brain
             (Approx.device ~n ~f ~me:bad ~rounds)
             ~inputs:
               (Array.init (n - 1) (fun j ->
                    Value.float (float_of_int ((j + seed) mod 11)))))
      in
      let trace = Exec.run sys ~rounds:(Approx.decision_round ~rounds + 1) in
      let correct = correct_nodes g [ bad ] in
      let outs =
        List.filter_map
          (fun u -> Option.map Value.get_float (Trace.decision trace u))
          correct
      in
      let lo = Array.fold_left min infinity honest_inputs in
      let hi = Array.fold_left max neg_infinity honest_inputs in
      let lo = min lo 0.0 and hi = max hi 0.0 in
      let out_lo = List.fold_left min infinity outs in
      let out_hi = List.fold_left max neg_infinity outs in
      List.length outs = List.length correct
      && out_lo >= lo -. 1e-9
      && out_hi <= hi +. 1e-9
      && out_hi -. out_lo <= ((hi -. lo) /. 512.0) +. 1e-9)

(* Dolev relay on random 2f+1-connected graphs. *)
let prop_relay =
  let gen = QCheck.Gen.(tup2 (int_bound 9999) (int_bound 999)) in
  QCheck.Test.make ~name:"relay: random kappa>=3 graphs deliver" ~count:30
    (QCheck.make gen)
    (fun (graph_seed, seed) ->
      let g = Topology.random_connected ~seed:graph_seed ~n:8 ~p:0.6 () in
      let f = 1 in
      if Connectivity.vertex g < (2 * f) + 1 then true
      else begin
        let source = seed mod 8 in
        let bad = (source + 1 + (seed mod 7)) mod 8 in
        let value = Value.int seed in
        let sys =
          Dolev_relay.system g ~f ~source ~value ~default:(Value.int (-1))
        in
        let sys =
          System.substitute sys bad
            (Adversary.babbler ~seed ~arity:(Graph.degree g bad)
               ~palette:
                 [ Value.tag "relay"
                     (Value.triple (Value.int 0) (Value.int 0) (Value.int 666));
                   Value.int 2;
                 ])
        in
        let horizon = Dolev_relay.decision_round g ~f ~source + 1 in
        let trace = Exec.run sys ~rounds:horizon in
        List.for_all
          (fun u ->
            u = bad || u = source || Trace.decision trace u = Some value)
          (Graph.nodes g)
      end)

(* Certificates are total: random valid pinning values, random partitions of
   K3..K6 never fail to produce a validated contradiction against EIG. *)
let prop_certificates_total =
  let gen = QCheck.Gen.(tup2 (int_range 3 6) (int_bound 999)) in
  QCheck.Test.make ~name:"node-bound certificates are total and validated"
    ~count:30 (QCheck.make gen)
    (fun (n, seed) ->
      let f = (n + 2) / 3 in
      (* smallest f with n <= 3f *)
      let v0 = Value.int (seed mod 100) in
      let v1 = Value.int ((seed mod 100) + 1) in
      let cert =
        Ba_nodes.certify
          ~device:(fun w -> Eig.device ~n ~f ~me:w ~default:v0)
          ~v0 ~v1
          ~horizon:(Eig.decision_round ~f + 1)
          ~f (Topology.complete n)
      in
      Certificate.is_contradiction cert && Certificate.validate cert = Ok ())

(* Theorem 1 is partition-independent: any a/b/c split with parts <= f
   yields a validated contradiction. *)
let prop_any_partition =
  let gen = QCheck.Gen.(tup2 (int_range 5 6) (int_bound 9999)) in
  QCheck.Test.make ~name:"certificates hold for random partitions" ~count:20
    (QCheck.make gen)
    (fun (n, seed) ->
      let f = 2 in
      let state = Random.State.make [| seed |] in
      (* Random partition into three parts of sizes in [1, f]. *)
      let sizes =
        let rec draw () =
          let a = 1 + Random.State.int state f in
          let b = 1 + Random.State.int state f in
          let c = n - a - b in
          if c >= 1 && c <= f then a, b, c else draw ()
        in
        draw ()
      in
      let a_size, b_size, _ = sizes in
      let nodes =
        (* random permutation *)
        let arr = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let j = Random.State.int state (i + 1) in
          let tmp = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- tmp
        done;
        Array.to_list arr
      in
      let rec take k = function
        | x :: rest when k > 0 ->
          let t, r = take (k - 1) rest in
          x :: t, r
        | rest -> [], rest
      in
      let a, rest = take a_size nodes in
      let b, c = take b_size rest in
      let cert =
        Ba_nodes.certify
          ~partition:(a, b, c)
          ~device:(fun w -> Eig.device ~n ~f ~me:w ~default:bool_default)
          ~v0:(Value.bool false) ~v1:(Value.bool true)
          ~horizon:(Eig.decision_round ~f + 1)
          ~f (Topology.complete n)
      in
      Certificate.is_contradiction cert && Certificate.validate cert = Ok ())

(* Signed executor: random message structures never let a forgery through. *)
let prop_no_forgery_survives =
  let gen = QCheck.Gen.(tup2 (int_bound 2) (int_bound 999)) in
  QCheck.Test.make ~name:"signed executor: forged claims never verify"
    ~count:50 (QCheck.make gen)
    (fun (victim, seed) ->
      let n = 3 in
      let g = Topology.complete n in
      let forger_id = (victim + 1) mod n in
      (* The forger emits fabricated signatures of the victim every round. *)
      let forger =
        Device.make ~name:"forger" ~arity:(n - 1)
          ~init:(fun ~input:_ -> Value.unit)
          ~step:(fun ~state ~round ~inbox:_ ->
            let fake =
              Signature.signed ~signer:victim (Value.int ((seed + round) mod 7))
            in
            state, Array.make (n - 1) (Some (Value.list [ fake ])))
          ~output:(fun _ -> None)
      in
      (* Honest nodes record every *verified* signature of the victim. *)
      let recorder u =
        Device.make
          ~name:(Printf.sprintf "rec%d" u)
          ~arity:(n - 1)
          ~init:(fun ~input:_ -> Value.list [])
          ~step:
            (fun ~state ~round:_ ~inbox ->
              let found =
                Array.to_list inbox
                |> List.concat_map (function
                     | Some m -> (
                       match Value.get_list m with
                       | exception Value.Type_error _ -> []
                       | items ->
                         List.filter_map
                           (Signature.verify ~signer:victim)
                           items)
                     | None -> [])
              in
              ( Value.list (found @ Value.get_list state),
                Array.make (n - 1) None ))
          ~output:(fun _ -> None)
      in
      let sys =
        System.make g (fun u ->
            (if u = forger_id then forger else recorder u), Value.unit)
      in
      let trace = Exec.run ~signed:true sys ~rounds:4 in
      (* No honest node ever verified a victim signature: the victim signed
         nothing, so anything that verifies is a forgery. *)
      List.for_all
        (fun u ->
          u = forger_id
          || Value.get_list (Trace.node_behavior trace u).(4) = [])
        (Graph.nodes g))

let suite =
  ( "properties",
    [ QCheck_alcotest.to_alcotest prop_eig_boundary;
      QCheck_alcotest.to_alcotest prop_turpin_coan;
      QCheck_alcotest.to_alcotest prop_broadcast;
      QCheck_alcotest.to_alcotest prop_approx;
      QCheck_alcotest.to_alcotest prop_relay;
      QCheck_alcotest.to_alcotest prop_certificates_total;
      QCheck_alcotest.to_alcotest prop_any_partition;
      QCheck_alcotest.to_alcotest prop_no_forgery_survives;
    ] )
