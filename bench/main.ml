(* The experiment harness: regenerates every "table and figure" of the
   paper's evaluation — here, the constructions and chains of Theorems 1-8
   and their possibility-side counterparts — as printed tables (E1-E17, see
   DESIGN.md / EXPERIMENTS.md), then times the hot paths with Bechamel.

   Run with:  dune exec bench/main.exe *)

let bool_default = Value.bool false

let section id title =
  Format.printf "@.=== %s: %s ===@." id title

let verdict_line = Certificate.verdict_line

let validated cert =
  match Certificate.validate cert with Ok () -> "ok" | Error m -> "STALE: " ^ m

(* --- E1: Theorem 1 on the triangle (the §3.1 figures) --------------------- *)

let e1 () =
  section "E1" "Theorem 1, 3f+1 nodes: triangle vs. real protocols (§3.1)";
  Format.printf "%-16s | %-52s | %s@." "protocol" "verdict" "re-validated";
  List.iter
    (fun (name, device, horizon) ->
      let cert =
        Ba_nodes.certify ~device ~v0:(Value.bool false) ~v1:(Value.bool true)
          ~horizon ~f:1 (Topology.complete 3)
      in
      Format.printf "%-16s | %-52s | %s@." name (verdict_line cert)
        (validated cert))
    [ ( "EIG",
        (fun w -> Eig.device ~n:3 ~f:1 ~me:w ~default:bool_default),
        Eig.decision_round ~f:1 + 1 );
      ( "phase-king",
        (fun w -> Phase_king.device ~n:3 ~f:1 ~me:w),
        Phase_king.decision_round ~f:1 + 1 );
      ( "naive-majority",
        (fun w -> Naive.majority_vote ~n:3 ~f:1 ~me:w ~default:bool_default),
        4 );
      ("echo-once", (fun w -> Naive.echo_once ~n:3 ~me:w ~default:bool_default), 5);
      ( "flood-vote",
        (fun w ->
          Naive.flood_vote (Topology.complete 3) ~me:w ~rounds:4
            ~default:bool_default),
        7 );
    ]

(* --- E2: Theorem 1 connectivity on the square (§3.2) ----------------------- *)

let e2 () =
  section "E2" "Theorem 1, 2f+1 connectivity: the 4-cycle and its 8-ring (§3.2)";
  let g = Topology.cycle 4 in
  let cert =
    Ba_connectivity.certify
      ~device:(fun w -> Naive.flood_vote g ~me:w ~rounds:4 ~default:bool_default)
      ~v0:(Value.bool false) ~v1:(Value.bool true) ~horizon:7 ~f:1 g
  in
  Format.printf "square kappa = %d = 2f; covering has %d nodes@."
    (Connectivity.vertex g)
    (Graph.n cert.Certificate.covering.Covering.source);
  Format.printf "%s (re-validated: %s)@." (verdict_line cert) (validated cert)

(* --- E3: the n/f boundary -------------------------------------------------- *)

let e3 () =
  section "E3" "the 3f+1 boundary: EIG survives above, certificates kill below";
  let eng = Engine.create () in
  Format.printf "%a@." Sweep.pp_nf (Engine.nf_boundary eng ~n_max:8 ~f_max:2);
  let snap = Metrics.snapshot (Engine.metrics eng) in
  Format.printf "(engine: %d domains, %d jobs, %d executions, %.3f s)@."
    (Engine.jobs eng) snap.Metrics.jobs_completed snap.Metrics.executions_run
    snap.Metrics.elapsed_seconds;
  Engine.shutdown eng

(* --- E4: weak agreement ring (§4) ------------------------------------------ *)

let e4 () =
  section "E4" "Theorem 2, weak agreement: the 4k-ring and Lemma 3 (§4)";
  let deadline = Eig.decision_round ~f:1 in
  let cert =
    Weak_ring.certify
      ~device:(fun w -> Eig.device ~n:3 ~f:1 ~me:w ~default:bool_default)
      ~deadline ~horizon:(deadline + 2) ()
  in
  List.iter (fun n -> Format.printf "%s@." n) cert.Certificate.notes;
  Format.printf "%s (re-validated: %s)@." (verdict_line cert) (validated cert)

(* --- E5: firing squad ring (§5) --------------------------------------------- *)

let e5 () =
  section "E5" "Theorem 4, Byzantine firing squad on the ring (§5)";
  let fire_round = Firing.fire_round ~f:1 in
  let cert =
    Firing_ring.certify
      ~device:(fun w -> Firing.device ~n:3 ~f:1 ~me:w)
      ~fire_round ~horizon:(fire_round + 2) ()
  in
  List.iter (fun n -> Format.printf "%s@." n) cert.Certificate.notes;
  Format.printf "%s (re-validated: %s)@." (verdict_line cert) (validated cert)

(* --- E6/E7: approximate agreement (§6) --------------------------------------- *)

let e6 () =
  section "E6" "Theorem 5, simple approximate agreement (§6.1)";
  let rounds = 5 in
  let cert =
    Approx_chain.certify_simple
      ~device:(fun w -> Approx.device ~n:3 ~f:1 ~me:w ~rounds)
      ~horizon:(Approx.decision_round ~rounds + 1)
      ()
  in
  List.iter
    (fun (run, violations) ->
      Format.printf "%-3s: correct {%s}, %s@." run.Reconstruct.label
        (String.concat ","
           (List.map
              (fun u ->
                Printf.sprintf "%d:%s" u
                  (match Trace.decision run.Reconstruct.trace u with
                  | Some v -> Value.to_string v
                  | None -> "-"))
              run.Reconstruct.correct))
        (if violations = [] then "conditions hold"
         else
           String.concat "; "
             (List.map (fun v -> v.Violation.condition) violations)))
    cert.Certificate.runs;
  Format.printf "%s (re-validated: %s)@." (verdict_line cert) (validated cert)

let e7 () =
  section "E7" "Theorem 6, (eps,delta,gamma)-agreement: the Lemma 7 chain (§6.2)";
  let rounds = 4 in
  let eps = 1.0 /. 16.0 and gamma = 0.0 and delta = 1.0 in
  let cert =
    Approx_chain.certify_edg
      ~device:(fun w -> Approx.device ~n:3 ~f:1 ~me:w ~rounds)
      ~eps ~gamma ~delta
      ~horizon:(Approx.decision_round ~rounds + 1)
      ()
  in
  List.iter (fun n -> Format.printf "%s@." n) cert.Certificate.notes;
  Format.printf "per-scenario conditions:@.";
  List.iter
    (fun (run, violations) ->
      Format.printf "  %-4s %s@." run.Reconstruct.label
        (if violations = [] then "holds"
         else
           String.concat "; "
             (List.map
                (fun v -> v.Violation.condition ^ ": " ^ v.Violation.detail)
                violations)))
    cert.Certificate.runs;
  Format.printf "%s (re-validated: %s)@." (verdict_line cert) (validated cert)

(* --- E8: clock synchronization (§7) ------------------------------------------ *)

let clock_params =
  {
    Clock_spec.p = Clock.linear ~rate:1.0 ();
    q = Clock.linear ~rate:2.0 ();
    lower = Fun.id;
    upper = (fun t -> t +. 2.0);
    alpha = 1.0;
    t_prime = 4.0;
  }

let clock_verdict cert =
  match cert.Clock_chain.verdict with
  | Clock_chain.Contradiction { pair_index; violations } ->
    Printf.sprintf "CONTRADICTION at S_%d (%s)" pair_index
      (String.concat "+"
         (List.sort_uniq compare
            (List.map (fun v -> v.Violation.condition) violations)))
  | Clock_chain.Model_failed { reason; _ } -> "model failed: " ^ reason
  | Clock_chain.Unbroken m -> "UNBROKEN: " ^ m

let e8 () =
  section "E8" "Theorem 8, clock synchronization: the Lemma 11 chain (§7)";
  List.iter
    (fun (name, device) ->
      let cert = Clock_chain.certify ~device ~params:clock_params () in
      Format.printf "%-10s: k=%d, %s@." name cert.Clock_chain.k
        (clock_verdict cert);
      if name = "averaging" then begin
        Format.printf
          "  Lemma 11 at t'' (node / measured C_i / lower bound \
           l(q.h^-i(t'')) + (i-1)a):@.";
        List.iter
          (fun (i, measured, bound) ->
            Format.printf "    %2d   %10.2f   %10.2f@." i measured bound)
          cert.Clock_chain.lemma11
      end)
    [ "trivial", (fun _ -> Clock_proto.trivial ~l:Fun.id ~arity:2);
      "averaging", (fun _ -> Clock_proto.averaging ~l:Fun.id ~arity:2);
    ]

(* --- E9: corollaries 13-15 ---------------------------------------------------- *)

let e9 () =
  section "E9" "Corollaries 13-15: minimal achievable skew per clock family (§7.1)";
  Format.printf "%-34s | %-22s | %s@." "clocks and envelope"
    "trivial skew bound" "alpha-improvement certificate";
  let cases =
    [ ( "p=t, q=2t, l=t (Cor. 13, r=2, a=1)",
        "a(r-1)t = t (diverges)",
        { clock_params with Clock_spec.alpha = 1.0 } );
      ( "p=t, q=t+2, l=t (Cor. 14, c=2, a=1)",
        "a*c = 2 (constant)",
        {
          Clock_spec.p = Clock.linear ~rate:1.0 ();
          q = Clock.linear ~rate:1.0 ~offset:2.0 ();
          lower = Fun.id;
          upper = (fun t -> t +. 4.0);
          alpha = 1.0;
          t_prime = 4.0;
        } );
      ( "p=t, q=2t, l=log2 t (Cor. 15, r=2)",
        "log2 r = 1 (constant)",
        {
          Clock_spec.p = Clock.linear ~rate:1.0 ();
          q = Clock.linear ~rate:2.0 ();
          lower = (fun t -> if t <= 0.0 then -100.0 else Float.log2 t);
          upper = (fun t -> (if t <= 0.0 then -100.0 else Float.log2 t) +. 3.0);
          alpha = 0.5;
          t_prime = 4.0;
        } );
    ]
  in
  List.iter
    (fun (label, bound, params) ->
      let cert =
        Clock_chain.certify
          ~device:(fun _ ->
            Clock_proto.averaging ~l:(fun t -> params.Clock_spec.lower t) ~arity:2)
          ~params ()
      in
      Format.printf "%-34s | %-22s | %s@." label bound (clock_verdict cert))
    cases

(* --- E10: the possibility side at the boundary -------------------------------- *)

let e10 () =
  section "E10"
    "possibility at the frontier: protocol cost and survival at n=3f+1 (resp. \
     n=4f+1)";
  Format.printf "%-12s | %2s | %2s | %6s | %8s | %10s | %s@." "protocol" "n"
    "f" "rounds" "messages" "msg units" "survives split-brain";
  let report name n f horizon build =
    let sys, correct, inputs = build () in
    let trace = Exec.run sys ~rounds:horizon in
    let msgs = Trace.message_count trace and units = Trace.message_volume trace in
    let ok = Ba_spec.check ~trace ~correct ~inputs = [] in
    Format.printf "%-12s | %2d | %2d | %6d | %8d | %10d | %b@." name n f
      horizon msgs units ok
  in
  let split_brain_setup make_device n =
    let g = Topology.complete n in
    let inputs = Array.init n (fun u -> Value.bool (u mod 2 = 0)) in
    let sys = System.make g (fun u -> make_device u, inputs.(u)) in
    let bad = n - 1 in
    let sys =
      System.substitute sys bad
        (Adversary.split_brain (make_device bad)
           ~inputs:(Array.init (n - 1) (fun j -> Value.bool (j mod 2 = 0))))
    in
    sys, List.init (n - 1) Fun.id, fun u -> inputs.(u)
  in
  List.iter
    (fun f ->
      let n = (3 * f) + 1 in
      report "EIG" n f
        (Eig.decision_round ~f + 1)
        (fun () ->
          split_brain_setup
            (fun u -> Eig.device ~n ~f ~me:u ~default:bool_default)
            n))
    [ 1; 2; 3 ];
  List.iter
    (fun f ->
      let n = (4 * f) + 1 in
      report "phase-king" n f
        (Phase_king.decision_round ~f + 1)
        (fun () -> split_brain_setup (fun u -> Phase_king.device ~n ~f ~me:u) n))
    [ 1; 2 ];
  List.iter
    (fun f ->
      let n = (3 * f) + 1 in
      report "turpin-coan" n f
        (Turpin_coan.decision_round ~f + 1)
        (fun () ->
          split_brain_setup
            (fun u -> Turpin_coan.device ~n ~f ~me:u ~default:bool_default)
            n);
      report "interactive" n f
        (Interactive.decision_round ~f + 1)
        (fun () ->
          split_brain_setup
            (fun u -> Interactive.consensus_device ~n ~f ~me:u ~default:bool_default)
            n))
    [ 1; 2 ];
  Format.printf
    "(EIG relays blow up exponentially with f; phase-king stays constant per \
     round but needs n > 4f — the classic trade.)@."

(* --- E11: connectivity frontier ------------------------------------------------ *)

let e11 () =
  section "E11" "the 2f+1 connectivity frontier on Harary graphs (Dolev relay)";
  Format.printf "%-10s | %-9s | %-28s | %s@." "graph" "adequate"
    "relay vs lying relays" "certificate";
  let eng = Engine.create () in
  List.iter
    (fun (f, n, kappas) ->
      List.iter
        (fun (kappa, adequate, relay_ok, cert_broke) ->
          Format.printf "H(%d,%2d)    | %-9b | %-28s | %s@." kappa n adequate
            (match relay_ok with
            | Some true -> "delivers correct value"
            | Some false -> "CORRUPTED"
            | None -> "(refuses: < 2f+1 paths)")
            (match cert_broke with
            | Some true -> "CONTRADICTION"
            | Some false -> "failed?!"
            | None -> "-"))
        (Engine.connectivity_boundary eng ~f ~kappas ~n))
    [ 1, 7, [ 2; 3; 4 ]; 2, 11, [ 4; 5 ] ];
  (* And full agreement (not just broadcast) on the sparse side of the
     frontier, via EIG over the overlay. *)
  List.iter
    (fun (g, f, label) ->
      let n = Graph.n g in
      let inputs = Array.init n (fun u -> Value.bool (u mod 2 = 0)) in
      let sys = Overlay.eig_system g ~f ~inputs ~default:bool_default in
      let sys =
        System.substitute sys 1
          (Adversary.babbler ~seed:3 ~arity:(Graph.degree g 1)
             ~palette:[ Value.bool true; Value.int 1 ])
      in
      let rounds =
        Overlay.horizon g ~f ~inner_decision_round:(Eig.decision_round ~f)
      in
      let trace = Exec.run sys ~rounds:(rounds + 1) in
      let correct = List.filter (fun u -> u <> 1) (Graph.nodes g) in
      Format.printf
        "overlay EIG on %-8s (f=%d, %2d rounds, %5d msgs): conditions %s@."
        label f (rounds + 1)
        (Trace.message_count trace)
        (if Ba_spec.check ~trace ~correct ~inputs:(fun u -> inputs.(u)) = []
         then "hold"
         else "VIOLATED"))
    [ Topology.harary ~k:3 ~n:7, 1, "H(3,7)";
      Topology.wheel 5, 1, "wheel-5";
    ]

(* --- E12: approximate agreement convergence ------------------------------------- *)

let e12 () =
  section "E12" "DLPSW approximate agreement: spread per round (n=7, f=2)";
  let n = 7 and f = 2 in
  let g = Topology.complete n in
  let rounds = 8 in
  let inputs = [| 0.0; 1.0; 0.5; 0.25; 0.75; 0.0; 0.0 |] in
  let sys = Approx.system g ~f ~rounds ~inputs in
  (* One attacker shouts extremes (trimmed away); the other equivocates with
     values *inside* the honest range, the worst legal behavior: it skews
     different nodes differently and slows convergence to the 2x floor. *)
  let sys =
    System.substitute sys 5
      (Adversary.babbler ~seed:5 ~arity:(n - 1)
         ~palette:[ Value.float 1e9; Value.float (-1e9) ])
  in
  let sys =
    System.substitute sys 6
      (Adversary.split_brain
         (Approx.device ~n ~f ~me:6 ~rounds)
         ~inputs:
           (Array.init (n - 1) (fun j ->
                Value.float (0.1 +. (0.8 *. float_of_int j /. float_of_int (n - 2))))))
  in
  let trace = Exec.run sys ~rounds:(rounds + 2) in
  let estimate u r =
    let _, est, _ = Value.get_triple (Trace.node_behavior trace u).(r) in
    Value.get_float est
  in
  Format.printf "round | spread of correct estimates | contraction@.";
  let prev = ref None in
  for r = 1 to rounds + 1 do
    let es = List.map (fun u -> estimate u r) [ 0; 1; 2; 3; 4 ] in
    let spread =
      List.fold_left max neg_infinity es -. List.fold_left min infinity es
    in
    let contraction =
      match !prev with
      | Some p when spread > 1e-12 -> Printf.sprintf "%.2fx" (p /. spread)
      | _ -> "-"
    in
    prev := Some spread;
    Format.printf "%5d | %28.9f | %s@." (r - 1) spread contraction
  done;
  Format.printf "(theory: at least 2x per round for n >= 3f+1)@."

(* --- E13: signatures ------------------------------------------------------------- *)

let e13 () =
  section "E13" "weakening the Fault axiom: Dolev-Strong with ideal signatures";
  let device w = Dolev_strong.device ~n:3 ~f:1 ~me:w ~default:bool_default in
  let horizon = Dolev_strong.decision_round ~f:1 + 1 in
  List.iter
    (fun (label, signed) ->
      let cert =
        Ba_nodes.certify ~signed ~device ~v0:(Value.bool false)
          ~v1:(Value.bool true) ~horizon ~f:1 (Topology.complete 3)
      in
      Format.printf "%-22s: %s@." label (verdict_line cert))
    [ "unsigned executor", false; "signed executor", true ];
  List.iter
    (fun (n, f) ->
      let g = Topology.complete n in
      let inputs = Array.init n (fun u -> Value.bool (u mod 2 = 0)) in
      let sys =
        System.make g (fun u ->
            Dolev_strong.device ~n ~f ~me:u ~default:bool_default, inputs.(u))
      in
      let bad = n - 1 in
      let sys =
        System.substitute sys bad
          (Adversary.split_brain
             (Dolev_strong.device ~n ~f ~me:bad ~default:bool_default)
             ~inputs:(Array.init (n - 1) (fun j -> Value.bool (j mod 2 = 0))))
      in
      let trace =
        Exec.run ~signed:true sys ~rounds:(Dolev_strong.decision_round ~f + 1)
      in
      let correct = List.init (n - 1) Fun.id in
      Format.printf
        "Dolev-Strong on K%d (f=%d, inadequate: %b) under split-brain: %s@." n
        f
        (Connectivity.is_inadequate ~f g)
        (if Ba_spec.check ~trace ~correct ~inputs:(fun u -> inputs.(u)) = []
         then "agreement + validity hold"
         else "VIOLATED"))
    [ 3, 1; 5, 2 ]

(* --- E14: the delay/scaling ablation ---------------------------------------------- *)

let e14 () =
  section "E14"
    "axiom ablations: bounded real-time delay breaks the Scaling axiom";
  let g = Topology.complete 2 in
  let sys =
    Clock_system.make g (fun u ->
        Clock_system.Honest
          ( Clock_proto.averaging ~l:Fun.id ~arity:1,
            if u = 0 then Clock.linear ~rate:1.0 ()
            else Clock.linear ~rate:2.0 () ))
  in
  let h = Clock.linear ~rate:2.0 () in
  let states_equal t1 t2 =
    Array.length t1.Clock_exec.ticks.(0) = Array.length t2.Clock_exec.ticks.(0)
    && Array.for_all2
         (fun (a : Clock_exec.tick) (b : Clock_exec.tick) ->
           Value.equal a.Clock_exec.state b.Clock_exec.state)
         t1.Clock_exec.ticks.(0) t2.Clock_exec.ticks.(0)
  in
  List.iter
    (fun delay ->
      let t1 = Clock_exec.run ~delay sys ~until:8.0 in
      let t2 = Clock_exec.run ~delay (Clock_system.scale h sys) ~until:4.0 in
      let same = states_equal t1 t2 in
      Format.printf
        "real-time delay %.1f: scaled behavior identical = %b  (Scaling \
         axiom %s)@."
        delay same
        (if same then "holds -> Theorem 8 applies"
         else "broken -> synchronization becomes possible"))
    [ 0.0; 0.6 ];
  Format.printf
    "round model: delivery takes exactly one round, so the Bounded-Delay \
     Locality axiom holds with delta = 1 — the premise of Theorems 2 and 4 \
     (property-tested in the suite).@."

(* --- E15: the certificate engine -------------------------------------------------- *)

(* The engine's one job path, for grids that must not fail: a typed error
   in any slot aborts the experiment. *)
let run_grid eng grid =
  List.map
    (function Ok v -> v | Error e -> failwith (Flm_error.to_string e))
    (Engine.run_all_results eng grid)

let e15 () =
  section "E15"
    "the certificate engine: sequential vs parallel vs warm cache on the \
     harary 2f+1 boundary grid";
  (* One Conn_cell job per (f, n, kappa): kappa = 2f straddles the frontier
     from below (covering certificate), 2f+1 and 2f+2 from above (Dolev
     relay under lying relays). *)
  let grid =
    List.concat_map
      (fun (f, n) ->
        List.map
          (fun kappa -> Job.Conn_cell { kappa; n; f })
          [ 2 * f; (2 * f) + 1; (2 * f) + 2 ])
      [ 1, 7; 1, 9; 1, 11; 2, 11; 2, 13 ]
  in
  Format.printf "%-12s | %4s | %8s | %10s | %s@." "phase" "jobs" "seconds"
    "jobs/sec" "cache hit rate";
  let records = ref [] in
  let phase label eng =
    Metrics.reset (Engine.metrics eng);
    let t0 = Metrics.wall_now () in
    let verdicts = run_grid eng grid in
    let dt = Metrics.wall_now () -. t0 in
    let snap = Metrics.snapshot (Engine.metrics eng) in
    Format.printf "%-12s | %4d | %8.3f | %10.1f | %5.1f%% (%d executions)@."
      label (Engine.jobs eng) dt
      (float_of_int (List.length grid) /. dt)
      (100.0 *. Metrics.hit_rate snap)
      snap.Metrics.executions_run;
    records :=
      Bench_json.run_record ~label ~jobs:(Engine.jobs eng) ~wall_seconds:dt
        ~cache_hit_rate:(Metrics.hit_rate snap)
        ~extra:[ "executions", Bench_json.Int snap.Metrics.executions_run ]
        ()
      :: !records;
    verdicts
  in
  (* At least two domains even on one-core boxes, so the parallel machinery
     (queue, domains, cross-domain cache) is really on the measured path. *)
  let seq_engine = Engine.create ~jobs:1 () in
  let par_engine =
    Engine.create ~jobs:(max 2 (Domain.recommended_domain_count ())) ()
  in
  let seq = phase "sequential" seq_engine in
  let par = phase "parallel" par_engine in
  let warm = phase "warm-cache" par_engine in
  Engine.shutdown seq_engine;
  Engine.shutdown par_engine;
  Format.printf "verdicts identical (seq = par = warm): %b@."
    (List.for_all2 Job.equal_verdict seq par
    && List.for_all2 Job.equal_verdict par warm);
  Bench_json.write_file ~path:"BENCH_E15.json"
    (Bench_json.bench_record ~experiment:"E15"
       ~config:
         [ "grid_jobs", Bench_json.Int (List.length grid);
           "cores", Bench_json.Int (Domain.recommended_domain_count ());
         ]
       ~runs:(List.rev !records) ())

(* --- E19: the serve daemon under load ------------------------------------------------ *)

let e19 () =
  section "E19"
    "flm serve under load: p50/p99 latency and throughput at 1/8/64 \
     concurrent clients, cold vs warm store, vs one fresh engine per query";
  let json =
    Bench_e19.run ~out:"BENCH_E19.json" ~clients_list:[ 1; 8; 64 ]
      ~requests_per_client:24 ~jobs:4 ()
  in
  (match Bench_json.member "derived" json with
  | Some d ->
    let num field =
      Option.value ~default:0.0
        (Option.bind (Bench_json.member field d) Bench_json.to_float_opt)
    in
    Format.printf
      "warm serve p50 %.2f ms vs batch %.2f ms/query: %.0fx@."
      (num "warm_p50_ms") (num "batch_ms_per_query")
      (num "warm_p50_speedup_vs_batch")
  | None -> ());
  Format.printf "wrote BENCH_E19.json@."

(* --- E20: chaos campaigns ------------------------------------------------------------ *)

let e20 () =
  section "E20"
    "chaos campaigns: cube throughput over forked shards vs in-process, \
     and the delta-debugging shrinker's yield on the mined corpus";
  let json =
    Bench_e20.run ~out:"BENCH_E20.json" ~workers_list:[ 1; 3 ] ~trials:4 ()
  in
  let num field v =
    Option.value ~default:0.0
      (Option.bind (Bench_json.member field v) Bench_json.to_float_opt)
  in
  Format.printf "%-12s | %5s | %8s | %s@." "level" "cells" "seconds"
    "cells/sec";
  List.iter
    (fun r ->
      Format.printf "%-12s | %5.0f | %8.3f | %.1f@."
        (Option.value ~default:"?"
           (Option.bind (Bench_json.member "label" r) Bench_json.to_string_opt))
        (num "cells" r) (num "wall_seconds" r) (num "cells_per_sec" r))
    (Option.value ~default:[]
       (Option.bind (Bench_json.member "runs" json) Bench_json.to_list_opt));
  (match Bench_json.member "derived" json with
  | Some d ->
    Format.printf
      "shrinker: %.0f corpus entries, %.0f probes: rounds -%.0f%%, nodes \
       -%.0f%%, actions -%.0f%%@."
      (num "corpus_entries" d) (num "shrink_probes" d)
      (num "rounds_reduction_pct" d)
      (num "nodes_reduction_pct" d)
      (num "actions_reduction_pct" d)
  | None -> ());
  Format.printf "wrote BENCH_E20.json@."

(* --- E21: goodput through a faulty wire ---------------------------------------------- *)

let e21 () =
  section "E21"
    "goodput through a 25% per-frame drop/corrupt wire: resilient client \
     (retries + breaker + reconnect) vs bare client, same seed, same window";
  let json =
    Bench_e21.run ~out:"BENCH_E21.json" ~window_seconds:6.0 ~clients:3 ~jobs:2 ()
  in
  (match Bench_json.member "derived" json with
  | Some d ->
    let num field =
      Option.value ~default:0.0
        (Option.bind (Bench_json.member field d) Bench_json.to_float_opt)
    in
    Format.printf
      "bare %.1f req/s vs resilient %.1f req/s at the same fault rate: %.1fx@."
      (num "bare_goodput_rps")
      (num "resilient_goodput_rps")
      (num "goodput_ratio")
  | None -> ());
  Format.printf "wrote BENCH_E21.json@."

(* --- E23: the deep-lint summary cache ------------------------------------------------ *)

let e23 () =
  section "E23"
    "deep lint (interprocedural effects + lock order) over the repo: cold \
     parse-and-summarize vs warm content-addressed cache";
  let json = Bench_e23.run ~out:"BENCH_E23.json" () in
  let num field v =
    Option.value ~default:0.0
      (Option.bind (Bench_json.member field v) Bench_json.to_float_opt)
  in
  let str field v d =
    Option.value ~default:d
      (Option.bind (Bench_json.member field v) Bench_json.to_string_opt)
  in
  Format.printf "%-6s | %8s | %6s | %6s | %s@." "pass" "seconds" "hits"
    "misses" "findings";
  List.iter
    (fun r ->
      Format.printf "%-6s | %8.3f | %6.0f | %6.0f | %.0f@." (str "label" r "?")
        (num "wall_seconds" r) (num "cache_hits" r) (num "cache_misses" r)
        (num "findings" r))
    (Option.value ~default:[]
       (Option.bind (Bench_json.member "runs" json) Bench_json.to_list_opt));
  (match Bench_json.member "derived" json with
  | Some d ->
    Format.printf
      "warm speedup %.1fx (expected >= 5x); reports identical: %b@."
      (num "warm_speedup" d)
      (match Bench_json.member "findings_equal" d with
      | Some (Bench_json.Bool b) -> b
      | _ -> false)
  | None -> ());
  Format.printf "wrote BENCH_E23.json@."

(* --- E17: checkpoint/resume warm-start ---------------------------------------------- *)

let e17 () =
  section "E17"
    "checkpoint/resume: a cold sweep journaling into a store vs a fresh \
     process warm-starting from it with --resume, on the harary 2f+1 \
     boundary grid";
  let grid =
    List.concat_map
      (fun (f, n) ->
        List.map
          (fun kappa -> Job.Conn_cell { kappa; n; f })
          [ 2 * f; (2 * f) + 1; (2 * f) + 2 ])
      [ 1, 7; 1, 9; 1, 11; 2, 11; 2, 13 ]
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "flm_bench_e17_%d" (Unix.getpid ()))
  in
  let open_store () =
    match Store.open_dir dir with
    | Ok s -> s
    | Error e -> failwith (Flm_error.to_string e)
  in
  Format.printf "%-12s | %8s | %7s | %10s | %s@." "phase" "seconds" "resumed"
    "recomputed" "journal writes";
  (* Fresh engine per phase: the warm start must come from the journal on
     disk, not from a shared in-memory cache — this is the cross-process
     resume path, minus the process boundary. *)
  let phase label ~resume =
    let store = open_store () in
    let eng = Engine.create ~jobs:1 ~store ~resume () in
    let t0 = Metrics.wall_now () in
    let verdicts = run_grid eng grid in
    let dt = Metrics.wall_now () -. t0 in
    let snap = Metrics.snapshot (Engine.metrics eng) in
    Format.printf "%-12s | %8.3f | %7d | %10d | %d@." label dt
      snap.Metrics.resumed snap.Metrics.recomputed snap.Metrics.store_writes;
    Store.close store;
    dt, verdicts
  in
  let cold_dt, cold = phase "cold" ~resume:false in
  let warm_dt, warm = phase "warm-resume" ~resume:true in
  Format.printf "warm-start speedup: %.1fx over %d cells (expected >= 5x)@."
    (cold_dt /. warm_dt) (List.length grid);
  Format.printf "verdicts identical (cold = warm): %b@."
    (List.for_all2 Job.equal_verdict cold warm);
  Bench_json.write_file ~path:"BENCH_E17.json"
    (Bench_json.bench_record ~experiment:"E17"
       ~config:
         [ "grid_jobs", Bench_json.Int (List.length grid);
           "cores", Bench_json.Int (Domain.recommended_domain_count ());
         ]
       ~derived:
         [ ( "warm_start_speedup",
             Bench_json.Float
               (if warm_dt > 0.0 then cold_dt /. warm_dt else 0.0) );
         ]
       ~runs:
         [ Bench_json.run_record ~label:"cold" ~jobs:1 ~wall_seconds:cold_dt ();
           Bench_json.run_record ~label:"warm_resume" ~jobs:1
             ~wall_seconds:warm_dt ();
         ]
       ());
  (try Sys.remove (Filename.concat dir "journal.flm") with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* --- E18: strong scaling and the persistent-pool dividend --------------------------- *)

let e18 () =
  section "E18"
    "strong scaling of the boundary sweep (cold/warm cache at 1/2/4/8 jobs) \
     and the persistent-pool dividend vs spawn-per-batch dispatch";
  let json =
    Bench_e18.run ~out:"BENCH_E18.json" ~n_max:8 ~f_max:2
      ~jobs_list:[ 1; 2; 4; 8 ] ~batches:50 ()
  in
  Format.printf "%-22s | %4s | %8s | %s@." "run" "jobs" "seconds"
    "cache hit rate";
  let str field v d = Option.value ~default:d (Option.bind (Bench_json.member field v) Bench_json.to_string_opt) in
  let num field v = Option.value ~default:0.0 (Option.bind (Bench_json.member field v) Bench_json.to_float_opt) in
  List.iter
    (fun r ->
      Format.printf "%-22s | %4.0f | %8.3f | %5.1f%%@." (str "label" r "?")
        (num "jobs" r) (num "wall_seconds" r)
        (100.0 *. num "cache_hit_rate" r))
    (Option.value ~default:[]
       (Option.bind (Bench_json.member "runs" json) Bench_json.to_list_opt));
  (match Bench_json.member "derived" json with
  | Some d ->
    Format.printf
      "pool reuse speedup (persistent vs spawn-per-batch, warm batches): \
       %.1fx (expected >= 1.5x)@."
      (num "pool_reuse_speedup" d)
  | None -> ());
  Format.printf "wrote BENCH_E18.json@."

(* --- E22: the flat execution core ------------------------------------------------- *)

let e22 () =
  section "E22"
    "flat execution core: cold boundary sweep throughput at jobs=1 and \
     jobs scaling";
  (* The pre-flat-core baseline: bin/main.exe at commit d62ea01 (the revision
     before the arena executor landed), rebuilt in a git worktree and run as
     `flm sweep --n-max 12 --f-max 2 --jobs 1 --metrics` — 500 executions in
     12.906 s.  Method and provenance in EXPERIMENTS.md E22. *)
  let json =
    Bench_e22.run ~out:"BENCH_E22.json" ~baseline_execs_per_sec:38.7 ~n_max:12
      ~f_max:2 ~jobs_list:[ 1; 2; 4; 8 ] ()
  in
  let num field v = Option.value ~default:0.0 (Option.bind (Bench_json.member field v) Bench_json.to_float_opt) in
  let str field v d = Option.value ~default:d (Option.bind (Bench_json.member field v) Bench_json.to_string_opt) in
  Format.printf "%-22s | %4s | %8s | %s@." "run" "jobs" "seconds" "executions";
  List.iter
    (fun r ->
      Format.printf "%-22s | %4.0f | %8.3f | %10.0f@." (str "label" r "?")
        (num "jobs" r) (num "wall_seconds" r) (num "executions" r))
    (Option.value ~default:[]
       (Option.bind (Bench_json.member "runs" json) Bench_json.to_list_opt));
  (match Bench_json.member "derived" json with
  | Some d ->
    Format.printf
      "flat %.0f execs/s; vs pre-flat baseline %.0f execs/s (%.1fx, \
       expected >= 2x); wall monotone in jobs: %b@."
      (num "flat_execs_per_sec" d)
      (num "baseline_pre_flat_execs_per_sec" d)
      (num "flat_vs_baseline_speedup" d)
      (match Bench_json.member "wall_monotone_in_jobs" d with
      | Some (Bench_json.Bool b) -> b
      | _ -> false)
  | None -> ());
  Format.printf "wrote BENCH_E22.json@."

(* --- Bechamel timing benches -------------------------------------------------------- *)

let timing () =
  section "TIMING" "Bechamel micro-benchmarks of the hot paths";
  let open Bechamel in
  let tests =
    [ Test.make ~name:"connectivity H(5,20)"
        (Staged.stage (fun () ->
             ignore (Connectivity.vertex (Topology.harary ~k:5 ~n:20))));
      Test.make ~name:"menger-paths H(5,20)"
        (Staged.stage (fun () ->
             ignore
               (Paths.vertex_disjoint (Topology.harary ~k:5 ~n:20) ~src:0
                  ~dst:10)));
      Test.make ~name:"EIG run K7 f=2"
        (Staged.stage (fun () ->
             let g = Topology.complete 7 in
             let sys =
               System.make g (fun u ->
                   ( Eig.device ~n:7 ~f:2 ~me:u ~default:bool_default,
                     Value.bool (u mod 2 = 0) ))
             in
             ignore (Exec.run sys ~rounds:5)));
      Test.make ~name:"triangle certificate (EIG)"
        (Staged.stage (fun () ->
             ignore
               (Ba_nodes.certify
                  ~device:(fun w ->
                    Eig.device ~n:3 ~f:1 ~me:w ~default:bool_default)
                  ~v0:(Value.bool false) ~v1:(Value.bool true)
                  ~horizon:(Eig.decision_round ~f:1 + 1)
                  ~f:1 (Topology.complete 3))));
      Test.make ~name:"approx run K7 f=2 (8 rounds)"
        (Staged.stage (fun () ->
             let g = Topology.complete 7 in
             let inputs = Array.init 7 (fun u -> float_of_int u) in
             ignore
               (Exec.run (Approx.system g ~f:2 ~rounds:8 ~inputs) ~rounds:10)));
      Test.make ~name:"overlay EIG on H(3,7)"
        (Staged.stage (fun () ->
             let g = Topology.harary ~k:3 ~n:7 in
             let inputs = Array.init 7 (fun u -> Value.bool (u mod 2 = 0)) in
             let rounds =
               Overlay.horizon g ~f:1
                 ~inner_decision_round:(Eig.decision_round ~f:1)
             in
             ignore
               (Exec.run
                  (Overlay.eig_system g ~f:1 ~inputs ~default:bool_default)
                  ~rounds:(rounds + 1))));
      Test.make ~name:"clock ring run (9 nodes)"
        (Staged.stage (fun () ->
             let covering = Covering.triangle_ring ~copies:3 in
             let h = Clock.linear ~rate:2.0 () in
             let sys =
               Clock_system.make
                 ~wiring:(fun u -> Covering.wiring covering u)
                 covering.Covering.source
                 (fun i ->
                   Clock_system.Honest
                     ( Clock_proto.averaging ~l:Fun.id ~arity:2,
                       Clock.compose
                         (Clock.linear ~rate:2.0 ())
                         (Clock.iterate h (-i)) ))
             in
             ignore (Clock_exec.run sys ~until:32.0)));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let cfg =
      Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None ()
    in
    let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    Hashtbl.iter
      (fun name ols_result ->
        match Analyze.OLS.estimates ols_result with
        | Some [ ns ] -> Format.printf "  %-32s %12.1f ns/run@." name ns
        | Some _ | None -> Format.printf "  %-32s (no estimate)@." name)
      results
  in
  List.iter benchmark tests

(* E19/E20/E21 first in the default order: they fork processes, and
   forking is only defined while this process still has a single domain —
   E20's in-process level and every later experiment spawn engine pools.
   Selecting experiments on the command line keeps whatever order the
   caller asked for; the same caveat then falls on them. *)
let experiments =
  [ "E19", e19; "E20", e20; "E21", e21; "E1", e1; "E2", e2; "E3", e3;
    "E4", e4; "E5", e5; "E6", e6; "E7", e7; "E8", e8; "E9", e9; "E10", e10;
    "E11", e11; "E12", e12; "E13", e13; "E14", e14; "E15", e15; "E17", e17;
    "E18", e18; "E22", e22; "E23", e23; "TIMING", timing ]

let () =
  Format.printf
    "flm benchmark & experiment harness — Fischer-Lynch-Merritt (PODC 1985)@.";
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
    List.iter (fun (_, f) -> f ()) experiments;
    Format.printf "@.done.@."
  | ids ->
    List.iter
      (fun id ->
        match List.assoc_opt (String.uppercase_ascii id) experiments with
        | Some f -> f ()
        | None ->
          Format.eprintf "unknown experiment %S (known: %s)@." id
            (String.concat " " (List.map fst experiments));
          exit 2)
      ids;
    Format.printf "@.done.@."
