(* The execution core's regression gates, wired into @runtest via the
   @perf-smoke alias:

   - golden digests: each case below renders one answer of the executor to
     bytes and its MD5 must equal the committed digest.  The cases cover
     full trace dumps (including delayed delivery), the verdict of every
     job kind (its store encoding; a certificate's summary line), the
     journal of a checkpointed sweep, and a signed certificate — the one
     run where the signature functionality rewrites messages.  The digests
     were produced by the legacy boxed executor at commit d7caaca, the last
     commit that had it, and the flat arena executor matched every one of
     them there; so this gate holds the flat executor to the boxed path's
     behaviour without keeping a second implementation alive.  The last
     four cases (EIG under split-brain and babbler at K12, rooted
     broadcast, interactive consistency) came later, from commit 762e0ea
     before the dense EIG tree replaced the label-keyed map; they have no
     boxed answer.  [certificate_golden] pins every certificate
     construction whole (its printout and all its traces); those digests
     came from commit 2b93e41.
   - the grid digest: one MD5 over the digests of every trace the default
     n<=12 f<=2 sweep computes, zoo runs and certificates alike, computed
     at commit 67f5ee0.
   - allocation budget: the executor must not allocate meaningfully more
     than the boxed path did, and a fixed workload must stay under an
     absolute per-run byte ceiling.  A warm eig K12 f=2 run has its own
     minor-word ceiling, which guards the EIG relay's shared label tables
     and its native state, and a direct-major-word ceiling, which guards
     allocating each new tree level once.
   - cross-domain determinism: two fresh domains run two of the golden
     cases concurrently, and each must reproduce the committed digests.
   - one shared system: a single K12 split-brain system runs twice on one
     domain and once on each of two fresh domains at once, and each run
     must reproduce the committed digest — devices are immutable, so the
     sweep may share one cell's devices across its runs.
   - the relay's parse cache: EIG and rooted-broadcast cases, some with
     faulty senders sharing one physical message, run alone, interleaved
     and nested on one domain; each must reproduce its committed digest.

   Deterministic: fixed systems, fixed seeds, and the executor itself is
   deterministic, so the digests are stable from one process to the next.
   On a mismatch the computed digest is printed next to the committed one. *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "perf-smoke FAILED: %s\n" what
  end

(* A full textual dump of everything a trace can answer, printing each
   state and message with [pp]. *)
let dump ?(pp = Value.pp) t =
  let buf = Buffer.create 4096 in
  let g = System.graph (Trace.system t) in
  let n = Graph.n g in
  Buffer.add_string buf (Format.asprintf "%a@." Trace.pp t);
  for u = 0 to n - 1 do
    Array.iter
      (fun v -> Buffer.add_string buf (Format.asprintf "%a;" pp v))
      (Trace.node_behavior t u);
    Buffer.add_string buf
      (Format.asprintf "decision %a at %s@."
         (Format.pp_print_option pp)
         (Trace.decision t u)
         (match Trace.decision_round t u with
         | Some r -> string_of_int r
         | None -> "-"));
    for w = 0 to n - 1 do
      if Graph.mem_edge g u w then
        Array.iter
          (fun m ->
            Buffer.add_string buf
              (Format.asprintf "%a;" (Format.pp_print_option pp) m))
          (Trace.edge_behavior t ~src:u ~dst:w)
    done
  done;
  Buffer.add_string buf
    (Printf.sprintf "messages %d volume %d by-node %s\n"
       (Trace.message_count t) (Trace.message_volume t)
       (String.concat ","
          (Array.to_list (Array.map string_of_int (Trace.messages_by_node t)))));
  Buffer.contents buf

let bool_default = Value.bool false
let alt_inputs n = Array.init n (fun i -> Value.bool (i mod 2 = 0))

let eig_sys n f =
  Eig.system (Topology.complete n) ~f ~inputs:(alt_inputs n)
    ~default:bool_default

(* EIG on K_n with [adversary u] substituted at each faulty node [u] — the
   sweep zoo's split-brain and babbler exercise malformed, duplicated and
   equivocating relays, and split-brain steps one honest device over
   alternating sub-states. *)
let eig_attacked n f ~faulty adversary =
  List.fold_left
    (fun sys u -> System.substitute sys u (adversary u))
    (eig_sys n f) faulty

let split_brain n f u =
  Adversary.split_brain
    (Eig.device ~n ~f ~me:u ~default:bool_default)
    ~inputs:(Array.init (n - 1) (fun j -> Value.bool (j mod 2 = 0)))

let babbler n u =
  Adversary.babbler ~seed:(31 * u) ~arity:(n - 1)
    ~palette:[ Value.bool true; Value.bool false; Value.int 3 ]

(* Flood-vote on a ring merges whatever each round delivers, so unlike EIG
   (which drops claims of the wrong tree level) its trace moves with the
   delivery delay. *)
let flood_sys n =
  let g = Topology.cycle n in
  System.make g (fun u ->
      ( Naive.flood_vote g ~me:u ~rounds:n ~default:(Value.bool false),
        Value.bool (u mod 3 = 0) ))

let trace_bytes ?delay sys ~rounds () = dump (Exec.run ?delay sys ~rounds)

(* A verdict's persistent-store encoding; certificates are never persisted,
   so they are pinned by their one-line summary instead. *)
let verdict_bytes job () =
  match Job.run job with
  | Job.Cert c -> c.Job.summary
  | v -> Store_codec.encode (Option.get (Job.verdict_to_value v))

let journal_bytes () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "flm_perf_smoke_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir "journal.flm" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let store =
        match Store.open_dir dir with
        | Ok s -> s
        | Error _ -> failwith "perf-smoke: store open failed"
      in
      let eng = Engine.create ~jobs:1 ~store () in
      ignore (Engine.nf_boundary eng ~n_max:5 ~f_max:1);
      Engine.shutdown eng;
      Store.close store;
      In_channel.with_open_bin path In_channel.input_all)

(* Dolev–Strong on K3 under unforgeable signatures: the covering's replay
   devices relay signatures they never received, [Signature.sanitize]
   forges them away, and the construction ends in [Fault_axiom_failed]. *)
let signed_certificate_bytes () =
  let device w =
    Dolev_strong.device ~n:3 ~f:1 ~me:w ~default:(Value.bool false)
  in
  Format.asprintf "%a" Certificate.pp
    (Ba_nodes.certify ~signed:true ~device ~v0:(Value.bool false)
       ~v1:(Value.bool true)
       ~horizon:(Dolev_strong.decision_round ~f:1 + 1)
       ~f:1 (Topology.complete 3))

(* A certificate with every trace it holds: its full printout, then a
   complete dump of the covering trace, of each reconstructed run's trace
   and of each fault-free anchor trace, in the certificate's own order. *)
let certificate_bytes build () =
  let cert = build () in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (Format.asprintf "%a@." Certificate.pp cert);
  Buffer.add_string buf (dump cert.Certificate.covering_trace);
  List.iter
    (fun ((r : Reconstruct.t), _) -> Buffer.add_string buf (dump r.trace))
    cert.Certificate.runs;
  List.iter
    (fun (_, trace, _) -> Buffer.add_string buf (dump trace))
    cert.Certificate.aux;
  Buffer.contents buf

let v0 = Value.bool false
let v1 = Value.bool true
let eig_devices ~n ~f w = Eig.device ~n ~f ~me:w ~default:bool_default

let ba_nodes_cert ?signed ?partition ~device ~horizon ~f n () =
  Ba_nodes.certify ?signed ?partition ~device ~v0 ~v1 ~horizon ~f
    (Topology.complete n)

let ba_conn_cert ~f ~rounds ~horizon g () =
  Ba_connectivity.certify
    ~device:(fun w -> Naive.flood_vote g ~me:w ~rounds ~default:bool_default)
    ~v0 ~v1 ~horizon ~f g

(* One case per certificate construction and option.  The digests were
   computed at commit 2b93e41, before the constructions were rewritten as
   calls of [Certificate.build]. *)
let certificate_golden =
  let eig_horizon f = Eig.decision_round ~f + 1 in
  let ring_deadline = Eig.decision_round ~f:1 in
  let fire_round = Firing.fire_round ~f:1 in
  let firing w = Firing.device ~n:3 ~f:1 ~me:w in
  [ ( "certificate ba-nodes K3 eig",
      "471f18ea7f437a0ab54ae2f4f064adae",
      certificate_bytes
        (ba_nodes_cert ~device:(eig_devices ~n:3 ~f:1)
           ~horizon:(eig_horizon 1) ~f:1 3) );
    ( "certificate ba-nodes K3 phase-king",
      "565f1982aaee0195d4b6b28788a43bfe",
      certificate_bytes
        (ba_nodes_cert
           ~device:(fun w -> Phase_king.device ~n:3 ~f:1 ~me:w)
           ~horizon:(Phase_king.decision_round ~f:1 + 1)
           ~f:1 3) );
    ( "certificate ba-nodes K3 signed dolev-strong",
      "b73df9dac4342b65d85866ff4fad6712",
      certificate_bytes
        (ba_nodes_cert ~signed:true
           ~device:(fun w -> Dolev_strong.device ~n:3 ~f:1 ~me:w ~default:v0)
           ~horizon:(Dolev_strong.decision_round ~f:1 + 1)
           ~f:1 3) );
    ( "certificate ba-nodes K4 f=2 partition {0} {1,2} {3}",
      "70b0b45ab72b04d5e1a6bfbdb2bf167e",
      certificate_bytes
        (ba_nodes_cert
           ~partition:([ 0 ], [ 1; 2 ], [ 3 ])
           ~device:(eig_devices ~n:4 ~f:2) ~horizon:(eig_horizon 2) ~f:2 4) );
    ( "certificate ba-nodes K6 f=3",
      "f113d9dbec8b8c5dbcd56727dadf9a72",
      certificate_bytes
        (ba_nodes_cert ~device:(eig_devices ~n:6 ~f:3)
           ~horizon:(eig_horizon 3) ~f:3 6) );
    ( "certificate collapse K6 f=2",
      "ae97ab45e4ebecd6a6a4307209a6e3de",
      certificate_bytes (fun () ->
          Collapse.certify_via_triangle ~device:(eig_devices ~n:6 ~f:2) ~v0
            ~v1 ~horizon:(eig_horizon 2) ~f:2 (Topology.complete 6)) );
    ( "certificate ba-connectivity C4",
      "289a2ea233da33b105fc4fc5b7c496b8",
      certificate_bytes
        (ba_conn_cert ~f:1 ~rounds:4 ~horizon:7 (Topology.cycle 4)) );
    ( "certificate ba-connectivity H(4,11) f=2",
      "a0dfdefc17d5bde4a2c3df95313fbc55",
      certificate_bytes
        (ba_conn_cert ~f:2 ~rounds:5 ~horizon:8 (Topology.harary ~k:4 ~n:11))
    );
    ( "certificate weak-ring eig",
      "363dbee02aeb1b3ddb510c19269b3f12",
      certificate_bytes (fun () ->
          Weak_ring.certify ~device:(eig_devices ~n:3 ~f:1)
            ~deadline:ring_deadline ~horizon:(ring_deadline + 2) ()) );
    (* Deadline 2 defaults to 6 copies, so 8 takes the explicit path. *)
    ( "certificate weak-ring flood-vote deadline 2 copies 8",
      "733a243678a5cd6fab66c7570ba6f589",
      certificate_bytes (fun () ->
          Weak_ring.certify
            ~device:(fun w ->
              Naive.flood_vote (Topology.complete 3) ~me:w ~rounds:2
                ~default:bool_default)
            ~deadline:2 ~copies:8 ~horizon:4 ()) );
    ( "certificate firing-ring",
      "c17169d27398df6517cf5e5a0a05dc86",
      certificate_bytes (fun () ->
          Firing_ring.certify ~device:firing ~fire_round
            ~horizon:(fire_round + 2) ()) );
    ( "certificate firing-ring copies 6",
      "818f1aa63ec595b345e7be4b790404a9",
      certificate_bytes (fun () ->
          Firing_ring.certify ~device:firing ~fire_round ~copies:6
            ~horizon:(fire_round + 2) ()) );
    ( "certificate approx simple 5 rounds",
      "0663639f3769c53bdf362377e8919995",
      certificate_bytes (fun () ->
          Approx_chain.certify_simple
            ~device:(fun w -> Approx.device ~n:3 ~f:1 ~me:w ~rounds:5)
            ~horizon:(Approx.decision_round ~rounds:5 + 1)
            ()) );
    ( "certificate approx edg eps=1/16 gamma=0",
      "ebae5edde5503facd26df0b1d64e2ab8",
      certificate_bytes (fun () ->
          Approx_chain.certify_edg
            ~device:(fun w -> Approx.device ~n:3 ~f:1 ~me:w ~rounds:4)
            ~eps:(1.0 /. 16.0) ~gamma:0.0 ~delta:1.0
            ~horizon:(Approx.decision_round ~rounds:4 + 1)
            ()) );
    ( "certificate approx edg eps=0.1 gamma=0.5",
      "e8edfc6d08cff333be4cd57d9f40f59f",
      certificate_bytes (fun () ->
          let eps = 0.1 and delta = 1.0 in
          Approx_chain.certify_edg
            ~device:(fun w -> Approx.edg_device ~n:3 ~f:1 ~me:w ~eps ~delta)
            ~eps ~gamma:0.5 ~delta
            ~horizon:
              (Approx.decision_round ~rounds:(Approx.rounds_for ~eps ~delta)
              + 1)
            ()) );
  ]

(* Two golden cases as constructors, so the cross-domain check below can
   build its own systems in each domain.  Each builds its system once: the
   bytes closure reruns that one system. *)
let k12_split_brain () =
  ( "trace eig K12 f=2 split-brain at {0,1}",
    "dcefbc71a6eb1c281c58396965287a94",
    trace_bytes
      (eig_attacked 12 2 ~faulty:[ 0; 1 ] (split_brain 12 2))
      ~rounds:(Eig.decision_round ~f:2 + 1) )

let k7_broadcast () =
  ( "trace broadcast K7 f=2 general 0", "c164e0ec25970d28c1dd1b65aa62045a",
    trace_bytes
      (Broadcast.system (Topology.complete 7) ~f:2 ~general:0
         ~value:(Value.bool true) ~default:bool_default)
      ~rounds:(Broadcast.decision_round ~f:2 + 1) )

(* (label, committed MD5 hex, bytes) *)
let golden =
  [ ( "trace eig K4 f=1", "d9bdb3e04cdb28b0b76398559ebfe8c9",
      trace_bytes (eig_sys 4 1) ~rounds:(Eig.decision_round ~f:1 + 1) );
    ( "trace eig K7 f=2", "9cb4ffefbd83d3eeff69b31f7d040692",
      trace_bytes (eig_sys 7 2) ~rounds:(Eig.decision_round ~f:2 + 1) );
    ( "trace eig K5 f=1 long horizon", "34b2f3e7d53b7eccbb2591d3e614410c",
      trace_bytes (eig_sys 5 1) ~rounds:6 );
    ( "trace eig K4 f=1 delay 2", "f1b51a6ed38cd86299ac40961787b83a",
      trace_bytes ~delay:2 (eig_sys 4 1) ~rounds:8 );
    ( "trace eig K5 f=1 delay 3", "d4d95d6326ead7537af07867eeeb6514",
      trace_bytes ~delay:3 (eig_sys 5 1) ~rounds:10 );
    ( "trace flood-vote C7 delay 2", "a5984c596b23d2b6542ec4113d8278fd",
      trace_bytes ~delay:2 (flood_sys 7) ~rounds:16 );
    ( "verdict nf 4/1", "6fdd1afd2b526223aaebb0f710165737",
      verdict_bytes (Job.Nf_cell { n = 4; f = 1 }) );
    ( "verdict nf 7/2", "332ef290de025f494885059b44fa0f70",
      verdict_bytes (Job.Nf_cell { n = 7; f = 2 }) );
    ( "verdict conn 2/5/1", "82e7cf1dee7153df9285f07a60701137",
      verdict_bytes (Job.Conn_cell { kappa = 2; n = 5; f = 1 }) );
    ( "verdict certify ba 3/1", "9206e1fc8c45b038589071024ced09d9",
      verdict_bytes (Job.Certify { problem = Job.Ba; n = 3; f = 1 }) );
    ( "verdict chaos complete:4", "1972e5b0bbf1facd08a0548b2dfe4c27",
      verdict_bytes
        (Job.Chaos_trial
           { family = "complete:4"; f = 1; seed = 5; strategy = "chaos";
             trial = 0 }) );
    ( "verdict campaign eig complete:4", "83035ab1abbcb77a5cbc796fb6682270",
      verdict_bytes
        (Job.Campaign_trial
           { protocol = "eig"; family = "complete:4"; f = 1; seed = 2;
             strategy = "chaos"; trial = 1 }) );
    ( "journal of a checkpointed n<=5 f<=1 sweep",
      "3892ae0d6fa9c805769b5dd09c6fac9d", journal_bytes );
    ( "signed Dolev-Strong K3 f=1 certificate",
      "eed6d14298c5b7b3e5784f36b199acfd", signed_certificate_bytes );
    (* The four cases below were computed at commit 762e0ea, before the
       dense EIG tree replaced the label-keyed map; that commit has no
       boxed executor, so they have no boxed answer. *)
    k12_split_brain ();
    ( "trace eig K12 f=2 babbler at {10,11}",
      "fd5e627c21fc65e0b06d101c8818a1ff",
      trace_bytes
        (eig_attacked 12 2 ~faulty:[ 10; 11 ] (babbler 12))
        ~rounds:(Eig.decision_round ~f:2 + 1) );
    k7_broadcast ();
    ( "trace interactive K4 f=1", "3b2014bb2afeb7e159f975d9dcf16246",
      trace_bytes
        (Interactive.system (Topology.complete 4) ~f:1 ~inputs:(alt_inputs 4)
           ~default:bool_default)
        ~rounds:(Interactive.decision_round ~f:1 + 1) );
  ]

(* --- the n<=12 f<=2 grid ------------------------------------------------------ *)

(* Every trace the default sweep grid computes, mirroring
   [Sweep.survives_zoo] and [Sweep.nf_cell]: on an adequate cell the full
   dump of each of its 32 zoo runs, on an inadequate cell its certificate
   with all its traces.  That is 15 × 32 + 5 = 485 per-trace digests, in
   grid order, folded into one MD5. *)
let zoo_attack ~n ~f u = function
  | 0 -> Adversary.silent ~arity:(n - 1)
  | 1 -> Adversary.crash ~after:1 (eig_devices ~n ~f u)
  | 2 -> split_brain n f u
  | _ -> babbler n u

(* States and messages in their store encoding: exact, and much quicker to
   print than [Value.pp]'s boxes on K12's large EIG trees. *)
let encoded ppf v = Format.pp_print_string ppf (Store_codec.encode v)

let zoo_traces ~n ~f =
  let g = Topology.complete n in
  let rounds = Eig.decision_round ~f + 1 in
  let faulty_sets =
    if f = 1 then [ [ 0 ]; [ n - 1 ] ]
    else [ List.init f Fun.id; List.init f (fun i -> n - 1 - i) ]
  in
  List.concat_map
    (fun pattern ->
      let inputs =
        Array.init n (fun u -> Value.bool (pattern land (1 lsl u) <> 0))
      in
      List.concat_map
        (fun faulty ->
          List.map
            (fun which ->
              let sys =
                System.make g (fun u -> eig_devices ~n ~f u, inputs.(u))
              in
              let sys =
                List.fold_left
                  (fun acc u ->
                    System.substitute acc u (zoo_attack ~n ~f u which))
                  sys faulty
              in
              fun () -> dump ~pp:encoded (Exec.run sys ~rounds))
            [ 0; 1; 2; 3 ])
        faulty_sets)
    [ 0; 1; (1 lsl n) - 1; 0b1010101 land ((1 lsl n) - 1) ]

let grid_traces () =
  List.concat_map
    (fun (n, f) ->
      if Connectivity.is_adequate ~f (Topology.complete n) then zoo_traces ~n ~f
      else
        [ certificate_bytes
            (ba_nodes_cert ~device:(eig_devices ~n ~f)
               ~horizon:(Eig.decision_round ~f + 1) ~f n) ])
    (Sweep.nf_grid ~n_max:12 ~f_max:2)

(* Computed by running this check on a copy of commit 67f5ee0, where the
   arena still interned every state and message (twice, in two processes,
   with the same result). *)
let grid_digest = "d940bb8152280135f087ea9af222e54d"

let grid () =
  let digests =
    List.map
      (fun bytes -> Digest.to_hex (Digest.string (bytes ())))
      (grid_traces ())
  in
  let got = Digest.to_hex (Digest.string (String.concat "\n" digests)) in
  check
    (Printf.sprintf "n<=12 f<=2 grid, %d traces: digest %s, committed %s"
       (List.length digests) got grid_digest)
    (List.length digests = 485 && got = grid_digest)

(* --- the allocation budget ---------------------------------------------------- *)

(* Bytes allocated per eig K5 f=1 run by the boxed executor, measured by
   this suite's allocation check at commit d7caaca with OCaml 5.1.1 (the
   flat path measured 209,322 there).  [Gc.allocated_bytes] depends on the
   heap state at the start of the window — the boxed figure ranged from
   116 KB to 254 KB with the measuring order — so it was taken where this
   check stood: after the differential cases, flat first, boxed second. *)
let boxed_bytes_per_run = 208_056.0

let allocation_budget () =
  let sys = eig_sys 5 1 in
  let rounds = Eig.decision_round ~f:1 + 1 in
  let reps = 20 in
  (* Warm up first so one-time costs (scratch buffers, minor heap shape)
     don't land inside the measured window. *)
  ignore (Exec.run sys ~rounds);
  let before = Gc.allocated_bytes () in
  for _ = 1 to reps do
    ignore (Exec.run sys ~rounds)
  done;
  let flat = (Gc.allocated_bytes () -. before) /. float_of_int reps in
  check
    (Printf.sprintf
       "allocates no more than 1.25x the boxed path's %.0f bytes/run (%.0f)"
       boxed_bytes_per_run flat)
    (flat <= (boxed_bytes_per_run *. 1.25) +. 65536.0);
  (* The absolute ceiling: an eig K5 f=1 run allocates ~0.21 MB, so 2 MB
     is ~10x headroom — a backstop against a runaway, not a 2x detector
     (the relative check above catches that). *)
  let budget = 2_000_000.0 in
  check
    (Printf.sprintf "eig K5 f=1 stays under the %.0f-byte budget (%.0f)"
       budget flat)
    (flat <= budget)

(* A warm eig K12 f=2 run allocated 507,727 minor words while every relay
   round consed its own label keys and [resolve] built vote lists, and
   73,853 at commit fa2d2cd, where every step still re-encoded its whole
   tree; with the shared label tables, the scratch-array resolve and the
   tree kept in the device's own state it allocates 12,576.  Level arrays
   longer than 256 words go straight to the major heap: 32,365 direct
   major words (major minus promoted, from [Gc.counters]) at fa2d2cd,
   where each new level was allocated twice, and 16,513 with one
   allocation.  Each ceiling sits between its two figures, so encoding
   states during the run, or allocating a level twice, fails.  The minor
   figure comes from [Gc.minor_words]: the minor field of [Gc.counters]
   varied from 9,232 to 123,920 over repeats of this same run under
   OCaml 5.1. *)
let relay_allocation () =
  let sys = eig_sys 12 2 in
  let rounds = Eig.decision_round ~f:2 + 1 in
  ignore (Exec.run sys ~rounds);
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  ignore (Exec.run sys ~rounds);
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  let words = minor1 -. minor0 in
  let ceiling = 40_000.0 in
  check
    (Printf.sprintf "eig K12 f=2 allocates at most %.0f minor words (%.0f)"
       ceiling words)
    (words <= ceiling);
  let direct = major1 -. promoted1 -. (major0 -. promoted0) in
  let major_ceiling = 24_000.0 in
  check
    (Printf.sprintf
       "eig K12 f=2 allocates at most %.0f words directly in the major heap \
        (%.0f)"
       major_ceiling direct)
    (direct <= major_ceiling)

(* --- determinism across domains -------------------------------------------- *)

(* The relay's label tables are memoized per domain.  Two fresh domains
   each build their own while running the same cases at the same time, and
   each must still reproduce the committed digests. *)
let cross_domain () =
  let digests () =
    List.map
      (fun (label, expected, bytes) ->
        label, expected, Digest.to_hex (Digest.string (bytes ())))
      [ k12_split_brain (); k7_broadcast () ]
  in
  List.iteri
    (fun i results ->
      List.iter
        (fun (label, expected, got) ->
          check
            (Printf.sprintf "%s in domain %d: digest %s, committed %s" label i
               got expected)
            (got = expected))
        results)
    (List.map Domain.join (List.init 2 (fun _ -> Domain.spawn digests)))

(* --- one system, many runs ------------------------------------------------ *)

(* Devices are immutable values, so a sweep wires each zoo cell once and
   its runs share the devices.  One K12 system with two split-brain nodes
   (the zoo's attacker that steps one honest device over several
   sub-states) runs twice in a row on this domain, then on two fresh
   domains at once; every run must reproduce the committed digest. *)
let shared_system () =
  let label, expected, bytes = k12_split_brain () in
  let digest () = Digest.to_hex (Digest.string (bytes ())) in
  let here = [ digest (); digest () ] in
  let there = List.map Domain.join (List.init 2 (fun _ -> Domain.spawn digest)) in
  List.iteri
    (fun i got ->
      check
        (Printf.sprintf "%s, one system, run %d: digest %s, committed %s" label
           i got expected)
        (got = expected))
    (here @ there)

(* --- the relay's parse cache ----------------------------------------------- *)

(* One physical message, which every faulty node of the echo cases below
   sends on every port in every round.  The arena hands receivers the very
   values senders sent, so each receiver gets this one from both faulty
   senders; its claims parse differently per sender, level, root and n,
   and the relay's parse cache keys on all four. *)
let shared_message =
  Value.of_assoc
    (List.map
       (fun (label, v) -> Eig_tree.label_key label, v)
       [ [], Value.bool true; [ 0 ], Value.bool false; [ 3 ], Value.int 3;
         [ 0; 2 ], Value.bool true; [ 0; 6 ], Value.bool false;
         [ 4; 1 ], Value.bool true ])

let with_echo ~n ~rounds faulty sys =
  List.fold_left
    (fun sys u ->
      System.substitute sys u
        (Device.replay ~name:"echo"
           ~sends:(Array.make_matrix (n - 1) rounds (Some shared_message))))
    sys faulty

let broadcast_sys n f =
  Broadcast.system (Topology.complete n) ~f ~general:0 ~value:(Value.bool true)
    ~default:bool_default

let eig_echo n f ~rounds faulty =
  trace_bytes (with_echo ~n ~rounds faulty (eig_sys n f)) ~rounds

let k7_broadcast_echo () =
  let rounds = Broadcast.decision_round ~f:2 + 1 in
  ( "trace broadcast K7 f=2 echo at {3,5}", "deb95b8d58396292ac6f6d6f9c87970d",
    trace_bytes (with_echo ~n:7 ~rounds [ 3; 5 ] (broadcast_sys 7 2)) ~rounds )

let k7_eig_echo () =
  ( "trace eig K7 f=2 echo at {3,5}", "c14a5a48a1d1985777d6ac3fcb04e5c4",
    eig_echo 7 2 ~rounds:(Eig.decision_round ~f:2 + 1) [ 3; 5 ] )

(* Constructors, so each domain builds its own systems.  The first three
   digests are golden ones above; the echo digests were computed at commit
   7d0f68a, before the relay cached parses. *)
let cache_cases =
  [ (fun () ->
      ( "trace eig K7 f=2", "9cb4ffefbd83d3eeff69b31f7d040692",
        trace_bytes (eig_sys 7 2) ~rounds:(Eig.decision_round ~f:2 + 1) ));
    k7_broadcast;
    (fun () ->
      ( "trace eig K5 f=1 long horizon", "34b2f3e7d53b7eccbb2591d3e614410c",
        trace_bytes (eig_sys 5 1) ~rounds:6 ));
    k7_eig_echo;
    k7_broadcast_echo;
    (fun () ->
      ( "trace eig K5 f=1 echo at {1,3}", "abb9a668943ae597d026c238a2dadb04",
        eig_echo 5 1 ~rounds:6 [ 1; 3 ] ));
  ]

let digest_of case =
  let label, expected, bytes = case () in
  label, expected, Digest.to_hex (Digest.string (bytes ()))

(* Runs the broadcast echo case inside every step of node 6 of the EIG
   echo case, before the node's own relay.  At round 3 both relay level 2
   on K7 and both receive [shared_message] from senders 3 and 5, so the
   only key field telling the inner parses from the outer is the root. *)
let nested () =
  let rounds = Eig.decision_round ~f:2 + 1 in
  let inner = ref [] in
  let sys = with_echo ~n:7 ~rounds [ 3; 5 ] (eig_sys 7 2) in
  let (Device.Device honest) = System.device sys 6 in
  let step ~state ~round ~inbox =
    inner := digest_of k7_broadcast_echo :: !inner;
    honest.step ~state ~round ~inbox
  in
  let sys = System.substitute sys 6 (Device.Device { honest with step }) in
  let label, expected, _ = k7_eig_echo () in
  ( ( label ^ ", broadcast nested at node 6", expected,
      Digest.to_hex (Digest.string (trace_bytes sys ~rounds ())) ),
    !inner )

(* Each case alone on a fresh domain, then all of them interleaved on one
   other fresh domain, where every run meets the parses the runs before it
   left behind, and [nested] on a third.  Every digest must agree with the
   committed one. *)
let parse_cache () =
  let fresh f = Domain.join (Domain.spawn f) in
  let alone =
    List.map (fun case -> fresh (fun () -> digest_of case)) cache_cases
  in
  let order = [ 0; 3; 1; 4; 2; 5; 4; 0; 5; 1; 3; 2 ] in
  let interleaved =
    fresh (fun () ->
        List.map (fun i -> i, digest_of (List.nth cache_cases i)) order)
  in
  let outer, inner = fresh nested in
  List.iter
    (fun (label, expected, got) ->
      check
        (Printf.sprintf "%s: digest %s, committed %s" label got expected)
        (got = expected))
    (alone @ (outer :: inner));
  List.iteri
    (fun step (i, (label, _, got)) ->
      let _, _, solo = List.nth alone i in
      check
        (Printf.sprintf "%s interleaved (step %d): digest %s, alone %s" label
           step got solo)
        (got = solo))
    interleaved

let () =
  List.iter
    (fun (label, expected, bytes) ->
      let got = Digest.to_hex (Digest.string (bytes ())) in
      check
        (Printf.sprintf "%s: digest %s, committed %s" label got expected)
        (got = expected))
    (golden @ certificate_golden);
  grid ();
  allocation_budget ();
  relay_allocation ();
  cross_domain ();
  shared_system ();
  parse_cache ();
  if !failures > 0 then begin
    Printf.eprintf "perf-smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline
    (Printf.sprintf
       "perf-smoke ok: %d golden digests + the n<=12 f<=2 grid digest + \
        allocation budgets + cross-domain digests + one shared system + \
        parse-cache interleaving"
       (List.length golden + List.length certificate_golden))
