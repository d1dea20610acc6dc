(* The fault-injection layer: PRNG determinism and stream independence,
   strategy spec parsing, the axiom property harness, and chaos-trial
   reproducibility at the job level. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstring = Alcotest.string

(* (a) SplitMix64: same seed same stream; derive is pure and keyed; sibling
   streams diverge; draws land in range. *)
let prng () =
  let a = Fault_prng.of_seed 42 and b = Fault_prng.of_seed 42 in
  check tbool "same seed, same draw" true
    (fst (Fault_prng.next a) = fst (Fault_prng.next b));
  check tbool "different seeds diverge" false
    (fst (Fault_prng.next a) = fst (Fault_prng.next (Fault_prng.of_seed 43)));
  let child = Fault_prng.derive a 7 in
  check tbool "derive is pure" true
    (fst (Fault_prng.next child) = fst (Fault_prng.next (Fault_prng.derive a 7)));
  check tbool "derive keys are distinct streams" false
    (fst (Fault_prng.next child) = fst (Fault_prng.next (Fault_prng.derive a 8)));
  check tbool "derive leaves the parent alone" true
    (fst (Fault_prng.next a) = fst (Fault_prng.next b));
  let l, r = Fault_prng.split a in
  check tbool "split halves diverge" false
    (fst (Fault_prng.next l) = fst (Fault_prng.next r));
  let rec bounded t k =
    if k = 0 then true
    else
      let v, t = Fault_prng.int t 10 in
      0 <= v && v < 10 && bounded t (k - 1)
  in
  check tbool "int stays in range" true (bounded a 1000);
  let xs, _ = Fault_prng.choose_distinct a ~k:4 ~bound:7 in
  check tint "choose_distinct size" 4 (List.length xs);
  check tbool "choose_distinct distinct and sorted" true
    (List.sort_uniq Int.compare xs = xs);
  check tbool "choose_distinct in bound" true (List.for_all (fun x -> x < 7) xs)

(* (b) Strategy specs: round-trips for every accepted form, typed errors for
   the malformed ones. *)
let strategy_specs () =
  let ok s =
    match Fault_strategy.of_string s with
    | Ok t -> Fault_strategy.to_string t
    | Error m -> Alcotest.failf "%s should parse: %s" s m
  in
  check tstring "drop default" "drop:0.25" (ok "drop");
  check tstring "drop with p" "drop:0.5" (ok "drop:0.5");
  check tstring "dup alias" "dup:0.25" (ok "duplicate");
  check tstring "corrupt" "corrupt:0.1" (ok "corrupt:0.1");
  check tstring "equivocate" "equivocate" (ok "equivocate");
  check tstring "replay" "replay" (ok "replay");
  check tstring "crash" "crash" (ok "crash");
  check tstring "delay" "delay:2" (ok "delay:2");
  check tstring "poison" "poison" (ok "poison");
  check tstring "stall" "stall:50" (ok "stall:50");
  check tstring "mobile default" "mobile:0.5" (ok "mobile");
  check tstring "mobile with p" "mobile:0.9" (ok "mobile:0.9");
  check tbool "chaos parses to the default mix" true
    (Fault_strategy.of_string "chaos" = Ok Fault_strategy.default_chaos);
  let bad s =
    match Fault_strategy.of_string s with Ok _ -> false | Error _ -> true
  in
  check tbool "unknown name rejected" true (bad "gremlin");
  check tbool "non-numeric probability rejected" true (bad "drop:xyz");
  check tbool "probability > 1 rejected" true (bad "drop:1.5");
  check tbool "mobile probability > 1 rejected" true (bad "mobile:2");
  check tbool "negative delay rejected" true (bad "delay:-1");
  check tbool "trailing junk rejected" true (bad "replay:1")

(* (c) Installation is deterministic: the same stream picks the same
   strategy and produces the same faulted run, twice. *)
let install_deterministic () =
  let g = Topology.complete 4 in
  let sys =
    System.make g (fun u ->
        ( Eig.device ~n:4 ~f:1 ~me:u ~default:(Value.bool false),
          Value.bool (u mod 2 = 0) ))
  in
  let rng = Fault_prng.of_seed 9 in
  let horizon = Eig.decision_round ~f:1 + 1 in
  let install () =
    Fault_strategy.install ~rng ~horizon
      ~strategy:Fault_strategy.default_chaos sys 3
  in
  let sys1, label1 = install () in
  let sys2, label2 = install () in
  check tstring "same resolved label" label1 label2;
  let t1 = Exec.run sys1 ~rounds:horizon in
  let t2 = Exec.run sys2 ~rounds:horizon in
  check tbool "same faulted trace" true
    (Result.is_ok
       (Scenario.matches ~map:Fun.id
          (Scenario.of_trace t1 (Graph.nodes g))
          (Scenario.of_trace t2 (Graph.nodes g))))

(* (d) The axiom property harness: a fuzzed batch passes, is reproducible,
   and rejects malformed family specs with a typed error. *)
let harness () =
  (match Fault_harness.run ~trials:8 ~seed:1 () with
  | Ok r ->
    check tint "all trials ran" 8 r.Fault_harness.trials;
    check tint "every trial fault-checked" 8 r.Fault_harness.fault_checks
  | Error e -> Alcotest.failf "harness failed: %s" (Flm_error.to_string e));
  (match Fault_harness.run ~trials:3 ~families:[ "complete:oops" ] ~seed:1 () with
  | Error (Flm_error.Invalid_input _) -> ()
  | Ok _ | Error _ ->
    Alcotest.fail "malformed family should be Invalid_input")

(* (e) Chaos trials are pure functions of their descriptors: equal verdicts
   on re-run, distinct cache keys across trials/seeds. *)
let chaos_jobs () =
  let job trial seed =
    Job.Chaos_trial
      { family = "complete:4"; f = 1; seed; strategy = "chaos"; trial }
  in
  check tbool "re-run equal" true
    (Job.equal_verdict (Job.run (job 0 5)) (Job.run (job 0 5)));
  check tbool "trials have distinct keys" false
    (Fingerprint.equal_key (Job.key (job 0 5)) (Job.key (job 1 5)));
  check tbool "seeds have distinct keys" false
    (Fingerprint.equal_key (Job.key (job 0 5)) (Job.key (job 0 6)));
  check tbool "same descriptor, same key" true
    (Fingerprint.equal_key (Job.key (job 0 5)) (Job.key (job 0 5)));
  (match Job.run (job 0 5) with
  | Job.Chaos c ->
    check tint "faulty set bounded by f" 1 (List.length c.Job.faulty)
  | _ -> Alcotest.fail "expected a Chaos verdict");
  (* An in-model chaos strategy on an adequate complete graph never breaks
     EIG: that is the possibility side of the 3f+1 bound. *)
  let survived_all =
    List.for_all
      (fun trial ->
        match Job.run (job trial 11) with
        | Job.Chaos c -> c.Job.survived
        | _ -> false)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  check tbool "EIG survives in-model chaos on K4, f=1" true survived_all;
  (* Malformed family or strategy surface as typed errors from run. *)
  let typed_error job =
    match Job.run job with
    | exception Flm_error.Error (Flm_error.Invalid_input _) -> true
    | _ -> false
  in
  check tbool "bad family is Invalid_input" true
    (typed_error
       (Job.Chaos_trial
          { family = "complete:zz"; f = 1; seed = 0; strategy = "chaos";
            trial = 0 }));
  check tbool "bad strategy is Invalid_input" true
    (typed_error
       (Job.Chaos_trial
          { family = "complete:4"; f = 1; seed = 0; strategy = "gremlin";
            trial = 0 }))

(* (f) Out-of-model strategies do what the supervision layer expects:
   equivocation breaks the majority-vote strawman (violations reported, not
   crashes), and a poison step raises. *)
let out_of_model () =
  let outcome strategy family f seed =
    match
      Job.run (Job.Chaos_trial { family; f; seed; strategy; trial = 0 })
    with
    | Job.Chaos c -> c
    | _ -> Alcotest.fail "expected a Chaos verdict"
  in
  (* The cycle is inadequate for f=1 (kappa = 2 <= 2f): flood-vote is the
     strawman target, and a seed exists where equivocation splits it. *)
  let broke =
    List.exists
      (fun seed -> not (outcome "equivocate" "cycle:4" 1 seed).Job.survived)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  check tbool "equivocation breaks flood-vote on the 4-cycle" true broke;
  match
    Job.run
      (Job.Chaos_trial
         { family = "complete:4"; f = 1; seed = 3; strategy = "poison";
           trial = 0 })
  with
  | exception Failure _ -> ()
  | exception e ->
    Alcotest.failf "poison should raise Failure, raised %s"
      (Printexc.to_string e)
  | _ -> Alcotest.fail "poison should raise"

(* (g) Split independence, statistically: deriving by (trial, node) and by
   (node, trial) must give independent streams — the harness fans out over
   both orders, and a correlation would couple the faults of trial i at node
   j with those of trial j at node i.  A 2x2 chi-square over the first bit
   of each stream, at every off-diagonal coordinate of a 32x32 grid (on the
   diagonal the two derivation orders are the same chain by construction, so
   those cells are excluded).  Deterministic seed: no flake. *)
let split_independence () =
  let root = Fault_prng.of_seed 2026 in
  let bit t = Int64.to_int (Int64.logand (fst (Fault_prng.next t)) 1L) in
  let counts = Array.make_matrix 2 2 0 in
  let samples = ref 0 in
  for trial = 0 to 31 do
    for node = 0 to 31 do
      if trial <> node then begin
        let a = bit (Fault_prng.derive (Fault_prng.derive root trial) node) in
        let b = bit (Fault_prng.derive (Fault_prng.derive root node) trial) in
        counts.(a).(b) <- counts.(a).(b) + 1;
        incr samples
      end
    done
  done;
  Array.iter
    (Array.iter (fun c -> check tbool "every bit pair occurs" true (c > 0)))
    counts;
  let total = float_of_int !samples in
  let row i = float_of_int (counts.(i).(0) + counts.(i).(1)) in
  let col j = float_of_int (counts.(0).(j) + counts.(1).(j)) in
  let chi2 = ref 0.0 in
  for i = 0 to 1 do
    for j = 0 to 1 do
      let expected = row i *. col j /. total in
      let d = float_of_int counts.(i).(j) -. expected in
      chi2 := !chi2 +. (d *. d /. expected)
    done
  done;
  (* 1 degree of freedom; 10.83 is the p = 0.001 critical value. *)
  check tbool "chi-square below the 0.1% critical value" true (!chi2 < 10.83);
  (* The marginals themselves are unbiased: each order's bit is fair to
     within 4 sigma of a 50/50 coin over the sample count. *)
  let slack = 4.0 *. sqrt total /. 2.0 in
  check tbool "first-order marginal is fair" true
    (Float.abs (row 0 -. (total /. 2.0)) < slack);
  check tbool "second-order marginal is fair" true
    (Float.abs (col 0 -. (total /. 2.0)) < slack)

let suite =
  ( "faults",
    [ Alcotest.test_case "prng" `Quick prng;
      Alcotest.test_case "strategy specs" `Quick strategy_specs;
      Alcotest.test_case "install determinism" `Quick install_deterministic;
      Alcotest.test_case "axiom harness" `Quick harness;
      Alcotest.test_case "chaos jobs" `Quick chaos_jobs;
      Alcotest.test_case "out-of-model strategies" `Quick out_of_model;
      Alcotest.test_case "split independence (chi-square)" `Quick
        split_independence;
    ] )
