(* The campaign layer, without forking a fleet: spec JSON strictness and
   round-trips, cube enumeration (counts, determinism, skip accounting),
   corpus record/replay fidelity, and the shrinker's monotonicity — the
   minimized scenario is never larger than the original on any axis and
   still reproduces the recorded violation class.  The forked-worker and
   byte-identical-merge paths live in campaign_smoke. *)

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

let spec_exn () =
  match
    Campaign_spec.make ~name:"unit" ~seed:7 ~trials:3 ~workers:1
      ~protocols:[ "flood-vote" ]
      ~strategies:[ "equivocate"; "corrupt:1" ]
      ~families:[ "cycle" ] ~n_max:5 ~f_max:2 ()
  with
  | Ok t -> t
  | Error e -> Alcotest.failf "spec: %s" (Flm_error.to_string e)

(* (a) JSON: a spec round-trips exactly; omitted seed/trials/workers take
   their defaults; unknown fields, unknown protocols, and malformed
   strategies are typed rejections. *)
let spec_json () =
  let t = spec_exn () in
  (match Campaign_spec.of_json (Campaign_spec.to_json t) with
  | Ok t' -> check tbool "round-trips exactly" true (t = t')
  | Error e -> Alcotest.failf "round-trip: %s" (Flm_error.to_string e));
  let obj fields = Bench_json.Obj fields in
  let strings l = Bench_json.List (List.map (fun s -> Bench_json.String s) l) in
  let base =
    [ "name", Bench_json.String "defaults";
      "protocols", strings [ "eig" ];
      "strategies", strings [ "crash" ];
      "families", strings [ "complete" ];
      "n_max", Bench_json.Int 4;
      "f_max", Bench_json.Int 1;
    ]
  in
  (match Campaign_spec.of_json (obj base) with
  | Ok t ->
    check tint "default seed" 1 t.Campaign_spec.seed;
    check tint "default trials" 1 t.Campaign_spec.trials;
    check tint "default workers" 2 t.Campaign_spec.workers
  | Error e -> Alcotest.failf "defaults: %s" (Flm_error.to_string e));
  let rejected what fields =
    match Campaign_spec.of_json (obj fields) with
    | Error (Flm_error.Invalid_input _) -> ()
    | Error e ->
      Alcotest.failf "%s: wrong error class: %s" what (Flm_error.to_string e)
    | Ok _ -> Alcotest.failf "%s: expected a strict rejection" what
  in
  rejected "unknown field" (("workrs", Bench_json.Int 2) :: base);
  rejected "unknown protocol"
    (List.map
       (function
         | "protocols", _ -> "protocols", strings [ "paxos" ]
         | kv -> kv)
       base);
  rejected "malformed strategy"
    (List.map
       (function
         | "strategies", _ -> "strategies", strings [ "drop:nope" ]
         | kv -> kv)
       base);
  rejected "n_max too small"
    (List.map
       (function "n_max", _ -> "n_max", Bench_json.Int 2 | kv -> kv)
       base);
  rejected "zero trials" (("trials", Bench_json.Int 0) :: base)

(* (b) Enumeration: the cube's size is the product of its applicable axes,
   twice-enumerated cubes are equal, and inapplicable cells are skipped
   with reasons — never silently dropped.  On cycles only flood-vote
   applies (cycle:3 is K_3, but eig still needs n > 3f), so the eig cells
   all land in [skipped]. *)
let enumeration () =
  let t = spec_exn () in
  let cube = Campaign_spec.enumerate t in
  (* nf_grid over n<=5, f<=2 has 6 cells; flood-vote applies on all of
     them, times 2 strategies times 3 trials. *)
  check tint "cube size" (6 * 2 * 3) (List.length cube.Campaign_spec.jobs);
  check tint "nothing skipped for flood-vote" 0
    (List.length cube.Campaign_spec.skipped);
  check tbool "enumeration is deterministic" true
    (cube = Campaign_spec.enumerate t);
  match
    Campaign_spec.make ~name:"skips" ~workers:1
      ~protocols:[ "eig"; "flood-vote" ]
      ~strategies:[ "crash" ] ~families:[ "cycle" ] ~n_max:5 ~f_max:1 ()
  with
  | Error e -> Alcotest.failf "skips spec: %s" (Flm_error.to_string e)
  | Ok t ->
    let cube = Campaign_spec.enumerate t in
    check tint "flood-vote cells enumerated" 3
      (List.length cube.Campaign_spec.jobs);
    check tint "eig cells skipped with reasons" 3
      (List.length cube.Campaign_spec.skipped);
    check tbool "every skip carries a reason" true
      (List.for_all
         (fun (_, reason) -> reason <> "")
         cube.Campaign_spec.skipped)

(* The first violated trial of the unit cube, with its coordinates — the
   fixture for the corpus and shrinker tests below.  Seed 7 over
   flood-vote x cycle x {equivocate, corrupt:1} is known to violate. *)
let first_violation () =
  let cube = Campaign_spec.enumerate (spec_exn ()) in
  let entry_of = function
    | Job.Campaign_trial { protocol; family; f; seed; strategy; trial } as job
      -> (
      match Job.run job with
      | Job.Chaos outcome when not outcome.Job.survived ->
        Some
          {
            Campaign_corpus.protocol;
            family;
            f;
            seed;
            strategy;
            trial;
            outcome;
            minimized = None;
          }
      | _ -> None)
    | _ -> None
  in
  match List.find_map entry_of cube.Campaign_spec.jobs with
  | Some entry -> entry
  | None -> Alcotest.fail "the unit cube produced no violation"

(* (c) Corpus: record/find/entries round-trip through a real journaled
   store; replay reproduces the recorded outcome from coordinates alone;
   a tampered record is caught as divergence, never papered over. *)
let corpus () =
  let entry = first_violation () in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "flm_test_campaign_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let store =
    match Campaign_corpus.open_dir dir with
    | Ok s -> s
    | Error e -> Alcotest.failf "open corpus: %s" (Flm_error.to_string e)
  in
  Campaign_corpus.record store entry;
  (match Campaign_corpus.find store (Campaign_corpus.job entry) with
  | Some found -> check tbool "find returns the recorded entry" true (found = entry)
  | None -> Alcotest.fail "recorded entry not found");
  check tint "entries lists it" 1 (List.length (Campaign_corpus.entries store));
  (* Re-recording an equal entry is a no-op; superseding with a minimized
     scenario is not. *)
  let before = (Store.stat store).Store.bytes in
  Campaign_corpus.record store entry;
  check tint "equal re-record does not grow the journal" before
    (Store.stat store).Store.bytes;
  Store.close store;
  (match Campaign_corpus.replay entry with
  | Ok outcome -> check tbool "replay reproduces" true (outcome = entry.Campaign_corpus.outcome)
  | Error e -> Alcotest.failf "replay: %s" (Flm_error.to_string e));
  let tampered =
    {
      entry with
      Campaign_corpus.outcome =
        { entry.Campaign_corpus.outcome with Job.faulty = [] };
    }
  in
  (match Campaign_corpus.replay tampered with
  | Error (Flm_error.Job_failed _) -> ()
  | Ok _ -> Alcotest.fail "tampered entry should diverge on replay"
  | Error e ->
    Alcotest.failf "tampered entry: wrong error class: %s"
      (Flm_error.to_string e));
  let corpus_dir = Filename.concat dir Campaign_corpus.subdir in
  (try
     Array.iter
       (fun f -> Sys.remove (Filename.concat corpus_dir f))
       (Sys.readdir corpus_dir);
     Unix.rmdir corpus_dir;
     Unix.rmdir dir
   with _ -> ())

(* (d) The shrinker: the minimized scenario is no larger than the original
   on any axis, costs the probes it reports, and still reproduces a
   violation when run standalone. *)
let shrink () =
  let entry = first_violation () in
  match Campaign_shrink.minimize entry with
  | Error e -> Alcotest.failf "minimize: %s" (Flm_error.to_string e)
  | Ok (scenario, outcome, stats) ->
    let o = stats.Campaign_shrink.original
    and s = stats.Campaign_shrink.shrunk in
    check tbool "rounds monotone" true
      (s.Campaign_shrink.rounds <= o.Campaign_shrink.rounds);
    check tbool "nodes monotone" true
      (s.Campaign_shrink.nodes <= o.Campaign_shrink.nodes);
    check tbool "actions monotone" true
      (s.Campaign_shrink.actions <= o.Campaign_shrink.actions);
    check tbool "shrunk size is the scenario's size" true
      (Campaign_shrink.size_of scenario = s);
    check tbool "at least the full-length probe ran" true
      (stats.Campaign_shrink.probes >= 1);
    check tbool "minimized outcome is a violation" true
      (not outcome.Job.survived);
    (* The scenario is self-contained: re-running it from scratch gives
       the same violating outcome. *)
    check tbool "minimized scenario reproduces standalone" true
      (Job.campaign_scenario scenario = outcome)

(* The spec decoder is total: any JSON tree gives [Ok] or a typed error. *)
let prop_spec_total =
  QCheck.Test.make ~name:"spec decoder is total" ~count:500
    (Util.near_json [ Campaign_spec.to_json (spec_exn ()) ])
    (fun j -> match Campaign_spec.of_json j with Ok _ | Error _ -> true)

let suite =
  ( "campaign",
    [ Alcotest.test_case "spec json" `Quick spec_json;
      Alcotest.test_case "enumeration" `Quick enumeration;
      Alcotest.test_case "corpus" `Quick corpus;
      Alcotest.test_case "shrink" `Quick shrink;
      QCheck_alcotest.to_alcotest prop_spec_total;
    ] )
