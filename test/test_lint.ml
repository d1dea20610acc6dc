(* The static analyzer against inline fixtures: every rule fires at the
   expected location, each family's suppression comment silences it (and
   is counted), clean code stays clean, and malformed suppressions are
   themselves findings. *)

let check = Alcotest.check
let tint = Alcotest.int
let tstring = Alcotest.string

(* Fixture paths only steer Lint_scope; nothing is read from disk. *)
let proto = "lib/protocols/fixture.ml"
let engine = "lib/engine/fixture.ml"

let show fs =
  String.concat "; " (List.map (Format.asprintf "%a" Lint_rule.pp_finding) fs)

let expect_one ~path ~rule ~line src =
  match Flm_lint.check_source ~path src with
  | [ f ], 0 ->
    check tstring "rule id" (Lint_rule.to_string rule)
      (Lint_rule.to_string f.Lint_rule.rule);
    check tint "line" line f.Lint_rule.line
  | fs, n ->
    Alcotest.failf "expected exactly one %s, got %d finding(s) [%s] (%d supp)"
      (Lint_rule.to_string rule) (List.length fs) (show fs) n

let expect_clean ~path src =
  match Flm_lint.check_source ~path src with
  | [], 0 -> ()
  | fs, n ->
    Alcotest.failf "expected clean, got %d finding(s) [%s] (%d supp)"
      (List.length fs) (show fs) n

(* (a) Locality family, seeded one rule at a time into a protocol path. *)
let locality () =
  expect_one ~path:proto ~rule:Lint_rule.Locality_random ~line:1
    "let coin () = Random.int 2";
  expect_one ~path:proto ~rule:Lint_rule.Locality_time ~line:1
    "let now () = Sys.time ()";
  expect_one ~path:proto ~rule:Lint_rule.Locality_time ~line:2
    "let pad = ()\nlet now () = Unix.gettimeofday ()";
  expect_one ~path:proto ~rule:Lint_rule.Locality_domain ~line:1
    "let me () = Domain.self ()";
  expect_one ~path:proto ~rule:Lint_rule.Locality_hash ~line:1
    "let h x = Hashtbl.hash x";
  expect_one ~path:proto ~rule:Lint_rule.Locality_mutable_state ~line:1
    "let calls = ref 0";
  (* The same constructs are no business of the locality family outside
     the model layer: an engine file may hold a ref. *)
  expect_clean ~path:engine "let calls = ref 0"

(* (b) Concurrency family in an engine path. *)
let concurrency () =
  expect_one ~path:engine ~rule:Lint_rule.Concurrency_lock_pairing ~line:2
    "let f m g =\n  Mutex.lock m;\n  g ()";
  expect_one ~path:engine ~rule:Lint_rule.Concurrency_condvar ~line:1
    "let w c m = Condition.wait c m";
  expect_one ~path:engine ~rule:Lint_rule.Concurrency_nested_lock ~line:4
    "let f a b =\n\
     \  Mutex.lock a;\n\
     \  Fun.protect ~finally:(fun () -> Mutex.unlock a) @@ fun () ->\n\
     \  Mutex.lock b;\n\
     \  Mutex.unlock b";
  (* The blessed shapes pass: protect-with-finally, and branch-balanced
     manual pairing. *)
  expect_clean ~path:engine
    "let f m g =\n\
     \  Mutex.lock m;\n\
     \  Fun.protect ~finally:(fun () -> Mutex.unlock m) g";
  expect_clean ~path:engine
    "let f m p =\n\
     \  Mutex.lock m;\n\
     \  if p then begin Mutex.unlock m; 1 end\n\
     \  else begin Mutex.unlock m; 2 end";
  expect_clean ~path:engine
    "let w c m g =\n\
     \  Mutex.lock m;\n\
     \  Fun.protect ~finally:(fun () -> Mutex.unlock m) @@ fun () ->\n\
     \  while g () do Condition.wait c m done"

(* (c) Hygiene family. *)
let hygiene () =
  expect_one ~path:engine ~rule:Lint_rule.Hygiene_obj_magic ~line:1
    "let cast x = Obj.magic x";
  (* obj-magic is the one repo-wide rule: it fires outside lib/ too. *)
  expect_one ~path:"test/fixture.ml" ~rule:Lint_rule.Hygiene_obj_magic ~line:1
    "let cast x = Obj.magic x";
  expect_one ~path:engine ~rule:Lint_rule.Hygiene_poly_compare ~line:1
    "let same k h = k.fp = h";
  expect_one ~path:engine ~rule:Lint_rule.Hygiene_untyped_raise ~line:1
    "let boom () = failwith \"no\"";
  expect_one ~path:engine ~rule:Lint_rule.Hygiene_untyped_raise ~line:1
    "let boom () = raise (Invalid_argument \"no\")";
  (* lib/graph's Invalid_argument precondition idiom is allow-listed as a
     directory fact, with the reason on record. *)
  expect_clean ~path:"lib/graph/fixture.ml" "let g () = invalid_arg \"x\"";
  check Alcotest.bool "graph allow-list reason recorded" true
    (Lint_scope.allow_reason ~dir:"lib/graph" Lint_rule.Hygiene_untyped_raise
    <> None)

(* (c') The serve scope: Unix/sockets/domains are the daemon's job, so the
   locality family stays off in lib/serve (with the exemption on record),
   while the concurrency family and typed-raise hygiene bind exactly as in
   the engine.  The same Unix call in a protocol path still fires. *)
let serve_scope () =
  let serve = "lib/serve/fixture.ml" in
  expect_clean ~path:serve
    "let now () = Unix.gettimeofday ()\n\
     let sock () = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0\n\
     let me () = Domain.self ()";
  expect_one ~path:proto ~rule:Lint_rule.Locality_time ~line:1
    "let sock () = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0";
  expect_one ~path:serve ~rule:Lint_rule.Concurrency_lock_pairing ~line:2
    "let f m g =\n  Mutex.lock m;\n  g ()";
  expect_one ~path:serve ~rule:Lint_rule.Hygiene_untyped_raise ~line:1
    "let boom () = failwith \"no\"";
  List.iter
    (fun rule ->
      check Alcotest.bool
        (Printf.sprintf "serve exemption for %s recorded"
           (Lint_rule.to_string rule))
        true
        (Lint_scope.allow_reason ~dir:"lib/serve" rule <> None))
    [ Lint_rule.Locality_time; Lint_rule.Locality_domain ]

(* (c''') The resilience scope mirrors serve: retry clocks, backoff
   sleeps, and per-connection proxy domains are wall-clock, process-boundary
   code, so locality stays off with the exemption on record, while
   concurrency and typed-raise hygiene bind in full. *)
let resilience_scope () =
  let resilience = "lib/resilience/fixture.ml" in
  expect_clean ~path:resilience
    "let now () = Unix.gettimeofday ()\n\
     let sock () = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0\n\
     let me () = Domain.self ()";
  expect_one ~path:resilience ~rule:Lint_rule.Concurrency_lock_pairing ~line:2
    "let f m g =\n  Mutex.lock m;\n  g ()";
  expect_one ~path:resilience ~rule:Lint_rule.Hygiene_untyped_raise ~line:1
    "let boom () = failwith \"no\"";
  List.iter
    (fun rule ->
      check Alcotest.bool
        (Printf.sprintf "resilience exemption for %s recorded"
           (Lint_rule.to_string rule))
        true
        (Lint_scope.allow_reason ~dir:"lib/resilience" rule <> None))
    [ Lint_rule.Locality_time; Lint_rule.Locality_domain ]

(* (c'') The campaign scope mirrors serve: the driver forks workers and
   reads the wall clock (the fleet boundary), so the locality family stays
   off with the exemption on record, while concurrency and typed-raise
   hygiene bind in full. *)
let campaign_scope () =
  let campaign = "lib/campaign/fixture.ml" in
  expect_clean ~path:campaign
    "let now () = Unix.gettimeofday ()\nlet spawn () = Unix.fork ()";
  expect_one ~path:campaign ~rule:Lint_rule.Concurrency_lock_pairing ~line:2
    "let f m g =\n  Mutex.lock m;\n  g ()";
  expect_one ~path:campaign ~rule:Lint_rule.Hygiene_untyped_raise ~line:1
    "let boom () = failwith \"no\"";
  List.iter
    (fun rule ->
      check Alcotest.bool
        (Printf.sprintf "campaign exemption for %s recorded"
           (Lint_rule.to_string rule))
        true
        (Lint_scope.allow_reason ~dir:"lib/campaign" rule <> None))
    [ Lint_rule.Locality_time; Lint_rule.Locality_domain ]

(* (c'''') The system scope: the executor is bound by the locality family
   like the model layer — a nondeterministic executor would unsound every
   memo and resume tier — except locality/domain, allow-listed with its
   reason: the flat core's per-domain Domain.DLS scratch inbox rows and its
   atomic run counter are deterministic executor machinery. *)
let system_scope () =
  let system = "lib/system/fixture.ml" in
  expect_clean ~path:system
    "let key = Domain.DLS.new_key (fun () -> Bytes.create 64)\n\
     let me () = Domain.self ()";
  expect_one ~path:system ~rule:Lint_rule.Locality_random ~line:1
    "let coin () = Random.int 2";
  expect_one ~path:system ~rule:Lint_rule.Locality_time ~line:1
    "let now () = Unix.gettimeofday ()";
  expect_one ~path:system ~rule:Lint_rule.Locality_hash ~line:1
    "let h x = Hashtbl.hash x";
  expect_one ~path:system ~rule:Lint_rule.Locality_mutable_state ~line:1
    "let calls = ref 0";
  check Alcotest.bool "system exemption for locality/domain recorded" true
    (Lint_scope.allow_reason ~dir:"lib/system" Lint_rule.Locality_domain
    <> None)

(* (d) One suppression per family: the finding disappears and is counted. *)
let suppressions () =
  let suppressed_one ~path src =
    match Flm_lint.check_source ~path src with
    | [], 1 -> ()
    | fs, n ->
      Alcotest.failf "expected 0 findings/1 suppressed, got %d [%s] (%d supp)"
        (List.length fs) (show fs) n
  in
  suppressed_one ~path:proto
    "(* flm-lint: allow locality/random -- seeded fixture *)\n\
     let coin () = Random.int 2";
  suppressed_one ~path:engine
    "(* flm-lint: allow concurrency/lock-pairing -- fixture *)\n\
     let f m g = Mutex.lock m; g ()";
  suppressed_one ~path:engine
    "(* flm-lint: allow hygiene/untyped-raise -- fixture *)\n\
     let boom () = failwith \"no\"";
  (* A suppression only reaches the line below the comment. *)
  expect_one ~path:proto ~rule:Lint_rule.Locality_random ~line:3
    "(* flm-lint: allow locality/random -- too far away *)\n\
     let pad = ()\n\
     let coin () = Random.int 2"

(* (e) The meta rules: reasonless or unknown-rule suppressions, and files
   that do not parse. *)
let meta () =
  expect_one ~path:proto ~rule:Lint_rule.Lint_suppression ~line:1
    "(* flm-lint: allow locality/random *)\nlet ok = 1";
  expect_one ~path:proto ~rule:Lint_rule.Lint_suppression ~line:1
    "(* flm-lint: allow bogus/rule -- why *)\nlet ok = 1";
  expect_one ~path:proto ~rule:Lint_rule.Lint_parse ~line:1 "let let";
  (* Every catalog id survives the string round-trip used by reports and
     suppressions. *)
  List.iter
    (fun r ->
      check Alcotest.bool
        (Printf.sprintf "%s round-trips" (Lint_rule.to_string r))
        true
        (Lint_rule.of_string (Lint_rule.to_string r) = Some r))
    Lint_rule.all

(* (f) Clean model code is clean, and the JSON report round-trips through
   Bench_json like every other machine artifact. *)
let clean_and_json () =
  expect_clean ~path:proto "let double x = x + x\nlet twice f x = f (f x)";
  let findings, _ =
    Flm_lint.check_source ~path:proto "let coin () = Random.int 2"
  in
  let report = Lint_report.make ~findings ~suppressed:0 ~files:1 () in
  check tint "findings exit via Axiom_violation's code"
    (Flm_error.exit_code
       (Flm_error.Axiom_violation { axiom = "lint"; detail = "" }))
    (Lint_report.exit_code report);
  check tint "clean exit is 0" 0
    (Lint_report.exit_code
       (Lint_report.make ~findings:[] ~suppressed:0 ~files:1 ()));
  match Bench_json.parse (Lint_report.json_string report) with
  | Ok (Bench_json.Obj fields) ->
    check Alcotest.bool "tool field survives the round-trip" true
      (List.assoc_opt "tool" fields = Some (Bench_json.String "flm-lint"))
  | Ok _ -> Alcotest.fail "lint JSON should parse back to an object"
  | Error e -> Alcotest.failf "lint JSON failed to parse: %s" e

(* (g) Suppression lexer edge cases: a suppression on the final line of a
   file without a trailing newline, CRLF line endings, and a char literal
   containing a double quote (which must not open a phantom string and
   swallow the comment). *)
let suppress_edges () =
  let suppressed_one ~path src =
    match Flm_lint.check_source ~path src with
    | [], 1 -> ()
    | fs, n ->
      Alcotest.failf "expected 0 findings/1 suppressed, got %d [%s] (%d supp)"
        (List.length fs) (show fs) n
  in
  (* trailing comment, final line, no newline at EOF *)
  suppressed_one ~path:proto
    "let coin () = Random.int 2 (* flm-lint: allow locality/random -- \
     fixture *)";
  (* CRLF endings throughout *)
  suppressed_one ~path:proto
    "(* flm-lint: allow locality/random -- fixture *)\r\n\
     let coin () = Random.int 2\r\n";
  (* a '"' char literal before the comment *)
  suppressed_one ~path:proto
    "let q = '\"'\n\n\
     (* flm-lint: allow locality/random -- fixture *)\n\
     let coin () = Random.int 2"

(* (h) Deterministic rendering: findings sort by (file, line, rule id) and
   exact duplicates collapse, in the report constructor both formats use. *)
let determinism () =
  let f ~rule ~file ~line = Lint_rule.finding ~rule ~file ~line ~col:0 "m" in
  let a = f ~rule:Lint_rule.Locality_random ~file:"b.ml" ~line:3 in
  let b = f ~rule:Lint_rule.Locality_time ~file:"a.ml" ~line:9 in
  let c = f ~rule:Lint_rule.Locality_random ~file:"a.ml" ~line:9 in
  let report =
    Lint_report.make ~findings:[ a; b; c; a; b ] ~suppressed:0 ~files:2 ()
  in
  check tint "duplicates collapse" 3 (List.length report.Lint_report.findings);
  check Alcotest.(list string) "sorted by (file, line, rule id)"
    [ "a.ml:9:locality/random"; "a.ml:9:locality/time";
      "b.ml:3:locality/random" ]
    (List.map
       (fun (f : Lint_rule.finding) ->
         Printf.sprintf "%s:%d:%s" f.file f.line (Lint_rule.to_string f.rule))
       report.Lint_report.findings)

(* (i) The cross-module escape the deep pass exists for: a protocol calls a
   clean-looking helper whose callee draws from Random / reads the clock.
   Shallow lint passes every file; deep lint flags the protocol with the
   full multi-hop witness path. *)
let deep_escape () =
  let proto_src = "let step view = Helper.mix view\nlet at v = Helper.lag v" in
  let helper =
    "lib/core/helper.ml", "let mix v = Shuffle.pick v\nlet lag v = Clockish.now v"
  in
  let shuffle =
    "lib/core/shuffle.ml", "let pick v = List.nth v (Random.int 2)"
  in
  let clockish = "lib/core/clockish.ml", "let now _ = Unix.gettimeofday ()" in
  (* the gap deep mode closes: every file is shallow-clean on its own *)
  expect_clean ~path:proto proto_src;
  List.iter
    (fun (path, src) -> expect_clean ~path src)
    [ helper; shuffle; clockish ];
  let report =
    Flm_lint.check_sources_deep
      ~sources:[ (proto, proto_src); helper; shuffle; clockish ]
  in
  match report.Lint_report.findings with
  | [ rand; time ] ->
    check tstring "transitive-random flagged" "locality/transitive-random"
      (Lint_rule.to_string rand.Lint_rule.rule);
    check tstring "flagged in the protocol file" proto rand.Lint_rule.file;
    check tint "at the calling definition" 1 rand.Lint_rule.line;
    check Alcotest.(list string) "multi-hop witness path"
      [ "Fixture.step"; "Helper.mix"; "Shuffle.pick";
        "Random.int (lib/core/shuffle.ml:1)" ]
      rand.Lint_rule.witness;
    check tstring "transitive-time flagged" "locality/transitive-time"
      (Lint_rule.to_string time.Lint_rule.rule);
    check tint "time escape at its definition" 2 time.Lint_rule.line;
    check Alcotest.(list string) "time witness path"
      [ "Fixture.at"; "Helper.lag"; "Clockish.now";
        "Unix.gettimeofday (lib/core/clockish.ml:1)" ]
      time.Lint_rule.witness
  | fs ->
    Alcotest.failf "expected the two deep escapes, got %d [%s]"
      (List.length fs) (show fs)

(* (j) The global lock-order graph: two modules whose helpers take their
   own mutex and then call into each other — each file is shallow-clean
   (every lock is protect-paired), but the composition deadlocks. *)
let lock_sources =
  [ ( "lib/engine/locka.ml",
      "let m = Mutex.create ()\n\
       let with_a f = Mutex.lock m; Fun.protect ~finally:(fun () -> \
       Mutex.unlock m) f\n\
       let a_then_b f = with_a (fun () -> Lockb.with_b f)" );
    ( "lib/engine/lockb.ml",
      "let m = Mutex.create ()\n\
       let with_b f = Mutex.lock m; Fun.protect ~finally:(fun () -> \
       Mutex.unlock m) f\n\
       let b_then_a f = with_b (fun () -> Locka.with_a f)" ) ]

let deep_lock_order () =
  List.iter (fun (path, src) -> expect_clean ~path src) lock_sources;
  let report = Flm_lint.check_sources_deep ~sources:lock_sources in
  (match report.Lint_report.findings with
  | [ f ] ->
    check tstring "lock-order cycle flagged" "concurrency/lock-order-cycle"
      (Lint_rule.to_string f.Lint_rule.rule);
    check tstring "sited at the first held acquisition" "lib/engine/locka.ml"
      f.Lint_rule.file;
    check tint "cycle carries both acquisition sites" 2
      (List.length f.Lint_rule.witness)
  | fs ->
    Alcotest.failf "expected exactly the cycle, got %d [%s]" (List.length fs)
      (show fs));
  (* an inline suppression on one acquisition site silences the cycle; the
     comment must sit on the held-acquisition line it excuses *)
  let suppressed =
    ( "lib/engine/locka.ml",
      "let m = Mutex.create ()\n\
       let with_a f = Mutex.lock m; Fun.protect ~finally:(fun () -> \
       Mutex.unlock m) f\n\
       (* flm-lint: allow concurrency/lock-order-cycle -- ordered by \
       fixture design *)\n\
       let a_then_b f = with_a (fun () -> Lockb.with_b f)" )
    :: List.tl lock_sources
  in
  let report = Flm_lint.check_sources_deep ~sources:suppressed in
  check tint "suppressed cycle reports nothing" 0
    (List.length report.Lint_report.findings);
  check tint "and is counted" 1 report.Lint_report.suppressed

(* (k) Baseline: matching is by (rule, file, line); only new findings
   survive, and the file round-trips through Bench_json. *)
let baseline () =
  let f ~line = Lint_rule.finding ~rule:Lint_rule.Deep_random ~file:"a.ml" ~line ~col:0 "m" in
  let old = f ~line:3 in
  let fresh = f ~line:9 in
  let path = Filename.temp_file "flm-baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Lint_baseline.write ~path [ old ];
      match Lint_baseline.load path with
      | Error e -> Alcotest.failf "baseline failed to load: %s" e
      | Ok keys ->
        let kept, held = Lint_baseline.filter ~baseline:keys [ old; fresh ] in
        check tint "old finding held back" 1 held;
        check Alcotest.(list int) "new finding survives" [ 9 ]
          (List.map (fun (f : Lint_rule.finding) -> f.line) kept));
  check Alcotest.bool "unreadable baseline is an error, not a cold start"
    true
    (match Lint_baseline.load "/nonexistent/baseline.json" with
    | Error _ -> true
    | Ok _ -> false)

(* (l) The summary cache round-trips everything the deep pass needs, and a
   digest mismatch reads as a miss. *)
let cache_roundtrip () =
  let dir = Filename.temp_file "flm-lint-cache" "" in
  Sys.remove dir;
  let src = "let m = Mutex.create ()\nlet f x = Helper.mix x" in
  let path = "lib/engine/fixture.ml" in
  let entry = Flm_lint.summarize ~path src in
  Lint_cache.save ~dir [ entry ];
  let table = Lint_cache.load ~dir in
  (match Hashtbl.find_opt table path with
  | None -> Alcotest.fail "cache entry did not round-trip"
  | Some e ->
    check tstring "digest survives" entry.Lint_cache.digest
      e.Lint_cache.digest;
    check tint "definitions survive" 2
      (List.length e.Lint_cache.summary.Lint_callgraph.defs);
    let d = List.nth e.Lint_cache.summary.Lint_callgraph.defs 1 in
    (* the parameter [x] is collected as a (never-resolving) candidate —
       the extractor is deliberately syntactic about lowercase idents *)
    check Alcotest.(list (pair string int)) "refs survive"
      [ ("Helper.mix", 2); ("x", 2) ] d.Lint_callgraph.refs);
  check Alcotest.bool "stale digest misses" true
    (match Hashtbl.find_opt table path with
    | Some e -> e.Lint_cache.digest <> Lint_cache.digest "changed"
    | None -> false);
  Sys.remove (Filename.concat dir "summaries.json");
  Unix.rmdir dir

(* A baseline document as [Lint_baseline.write] lays it out. *)
let baseline_doc entries =
  Bench_json.Obj
    [ "tool", Bench_json.String "flm-lint-baseline";
      "schema_version", Bench_json.Int Lint_baseline.schema_version;
      "findings", Bench_json.List entries ]

let baseline_entry rule line =
  Bench_json.Obj
    [ "rule", Bench_json.String rule; "file", Bench_json.String "a.ml";
      "line", line ]

(* (m) A malformed finding entry fails the whole load, naming the entry:
   dropping it would resurface the finding it holds back. *)
let baseline_malformed () =
  let path = Filename.temp_file "flm-baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bench_json.write_file ~path
        (baseline_doc
           [ baseline_entry "deep/random" (Bench_json.Int 3);
             baseline_entry "deep/time" (Bench_json.String "7");
             Bench_json.Obj [ "rule", Bench_json.String "deep/io" ] ]);
      match Lint_baseline.load path with
      | Ok keys ->
        Alcotest.failf "malformed baseline loaded with %d key(s)"
          (List.length keys)
      | Error e ->
        check tstring "error names the first bad entry"
          (path ^ ": findings[1]: field \"line\" must be an integer")
          e)

(* The baseline decoder is total: any JSON tree on disk loads as [Ok] or
   [Error], never an exception. *)
let prop_baseline_total =
  let valid =
    baseline_doc
      [ baseline_entry "deep/random" (Bench_json.Int 3);
        baseline_entry "deep/time" (Bench_json.Int 9) ]
  in
  QCheck.Test.make ~name:"baseline decoder is total" ~count:1000
    (Util.near_json [ valid ])
    (fun j ->
      let path = Filename.temp_file "flm-baseline" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Bench_json.write_file ~path j;
          match Lint_baseline.load path with Ok _ | Error _ -> true))

let suite =
  ( "lint",
    [ Alcotest.test_case "locality rules" `Quick locality;
      Alcotest.test_case "concurrency rules" `Quick concurrency;
      Alcotest.test_case "hygiene rules" `Quick hygiene;
      Alcotest.test_case "serve scope" `Quick serve_scope;
      Alcotest.test_case "resilience scope" `Quick resilience_scope;
      Alcotest.test_case "campaign scope" `Quick campaign_scope;
      Alcotest.test_case "system scope" `Quick system_scope;
      Alcotest.test_case "suppressions" `Quick suppressions;
      Alcotest.test_case "meta rules" `Quick meta;
      Alcotest.test_case "clean and json" `Quick clean_and_json;
      Alcotest.test_case "suppress edge cases" `Quick suppress_edges;
      Alcotest.test_case "deterministic output" `Quick determinism;
      Alcotest.test_case "deep cross-module escape" `Quick deep_escape;
      Alcotest.test_case "deep lock-order cycle" `Quick deep_lock_order;
      Alcotest.test_case "baseline" `Quick baseline;
      Alcotest.test_case "summary cache" `Quick cache_roundtrip;
      Alcotest.test_case "baseline malformed entry" `Quick baseline_malformed;
      QCheck_alcotest.to_alcotest prop_baseline_total;
    ] )
