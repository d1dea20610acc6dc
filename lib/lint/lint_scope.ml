(* Scoping is by directory, not by module: the Locality axiom binds the
   model layer (protocols, clocks, problem specs), the concurrency rules
   bind the layers that actually hold locks (engine, store), and the
   hygiene rules bind everything.  The table is code, not configuration —
   adding a directory to a family is a reviewed change. *)

type dirclass =
  | Protocols
  | Clocks
  | Problems
  | System
  | Engine
  | Store
  | Serve
  | Resilience
  | Campaign
  | Graph
  | Lint
  | Other_lib
  | Outside  (* bin, bench, test, examples, anything else *)

(* Match on path components so both repo-relative ("lib/engine/pool.ml")
   and absolute paths classify identically. *)
let classify path =
  let parts = String.split_on_char '/' path in
  let rec find = function
    | "lib" :: dir :: _ :: _ -> (
      match dir with
      | "protocols" -> Protocols
      | "clocks" -> Clocks
      | "problems" -> Problems
      | "system" -> System
      | "engine" -> Engine
      | "store" -> Store
      | "serve" -> Serve
      | "resilience" -> Resilience
      | "campaign" -> Campaign
      | "graph" -> Graph
      | "lint" -> Lint
      | _ -> Other_lib)
    | _ :: rest -> find rest
    | [] -> Outside
  in
  find parts

let locality =
  [ Lint_rule.Locality_random; Locality_time; Locality_domain; Locality_hash;
    Locality_mutable_state ]

let concurrency =
  [ Lint_rule.Concurrency_lock_pairing; Concurrency_condvar;
    Concurrency_nested_lock ]

(* [Hygiene_poly_compare] keys on fingerprints, which only circulate in the
   library layers; [Hygiene_obj_magic] is repo-wide. *)
let rules_for path =
  match classify path with
  | Protocols | Clocks | Problems ->
    locality @ [ Lint_rule.Hygiene_obj_magic; Hygiene_poly_compare ]
  | System ->
    (* The executor hosts the simulation; the model-layer Locality axiom
       binds it too (a nondeterministic executor would unsound every memo
       and resume tier) — except [locality/domain], allow-listed below: the
       flat core's per-domain scratch arenas are Domain.DLS caches by
       design. *)
    [ Lint_rule.Locality_random; Locality_time; Locality_hash;
      Locality_mutable_state; Hygiene_obj_magic; Hygiene_poly_compare ]
  | Engine | Store | Serve | Resilience | Campaign ->
    concurrency
    @ [ Lint_rule.Hygiene_obj_magic; Hygiene_poly_compare;
        Hygiene_untyped_raise ]
  | Graph | Lint | Other_lib ->
    [ Lint_rule.Hygiene_obj_magic; Hygiene_poly_compare ]
  | Outside -> [ Lint_rule.Hygiene_obj_magic ]

(* The deep (interprocedural) catalog derives from the shallow one: a file
   bound by a Locality rule is also bound by its transitive counterpart,
   and the lock-order cycle check fires wherever lock pairing does.  I/O
   rides with the time rule — both are ambient-world reads the model layer
   must not reach, and neither has a per-directory story of its own. *)
let deep_rules_for path =
  let shallow = rules_for path in
  let has r = List.mem r shallow in
  List.concat
    [ (if has Lint_rule.Locality_random then [ Lint_rule.Deep_random ] else []);
      (if has Lint_rule.Locality_time then [ Lint_rule.Deep_time; Deep_io ]
       else []);
      (if has Lint_rule.Locality_domain then [ Lint_rule.Deep_domain ] else []);
      (if has Lint_rule.Locality_mutable_state then [ Lint_rule.Deep_state ]
       else []);
      (if has Lint_rule.Concurrency_lock_pairing then
         [ Lint_rule.Concurrency_lock_order ]
       else []) ]

(* "lib/<dir>" for allow-list lookups, from any path spelling. *)
let dir_of path =
  let parts = String.split_on_char '/' path in
  let rec find = function
    | "lib" :: dir :: _ :: _ -> Some ("lib/" ^ dir)
    | _ :: rest -> find rest
    | [] -> None
  in
  find parts

(* Directory-level allow-list: rules that would fire in a directory but are
   deliberately not applied there, each with the reason on record.  This is
   the coarse-grained sibling of inline suppressions — use it when a whole
   directory's idiom is the exception, not a single site. *)
let allow_listed =
  [ (* lib/system is the executor, not a device: runs are deterministic
       functions of the system description, but the machinery that makes
       them fast is per-domain by construction. *)
    ( "lib/system",
      Lint_rule.Locality_domain,
      "the flat execution core keeps per-domain scratch (Domain.DLS inbox \
       buffers reused across runs) and one atomic run counter; these are \
       deterministic caches owned by the executor — devices never see them, \
       and the remaining Locality rules bind lib/system in full" );
    ( "lib/graph",
      Lint_rule.Hygiene_untyped_raise,
      "graph constructors document Invalid_argument as their precondition \
       contract; engine-facing callers route them through Flm_error.guard \
       and Topology.of_family, which type the failure at the boundary" );
    ( "lib/error",
      Lint_rule.Hygiene_untyped_raise,
      "Flm_error is the error taxonomy itself; its own precondition checks \
       cannot raise through the module they define" );
    (* lib/serve is the process boundary, not model code: the Locality
       family stays off there by design, while the concurrency family and
       typed-raise hygiene are in full force. *)
    ( "lib/serve",
      Lint_rule.Locality_time,
      "the daemon is the process boundary: sockets, signals, and wall-clock \
       latency measurement are its job; simulated rounds inside jobs never \
       read them" );
    ( "lib/serve",
      Lint_rule.Locality_domain,
      "sessions are domains and the registry/metrics are lock-protected \
       shared state; the concurrency rules (lock pairing, condvar \
       discipline, no nested locks) bind instead" );
    (* lib/resilience is client-side process-boundary code: retry clocks,
       backoff sleeps, and the chaos proxy's frame pump live on the wall
       clock and in session domains, exactly like lib/serve. *)
    ( "lib/resilience",
      Lint_rule.Locality_time,
      "retry deadlines, backoff sleeps, breaker cooldowns, and proxy frame \
       delays are wall-clock by definition; simulated rounds inside the \
       jobs whose queries are being retried never read them" );
    ( "lib/resilience",
      Lint_rule.Locality_domain,
      "the chaos proxy runs one domain per relayed connection and the \
       breaker is lock-protected shared state; the concurrency rules (lock \
       pairing, condvar discipline, no nested locks) bind instead" );
    (* lib/campaign is the fleet boundary, not model code: it forks worker
       processes, forwards signals, and measures shard deadlines against
       the wall clock.  Locality stays off by design; the concurrency
       family and typed-raise hygiene bind in full. *)
    ( "lib/campaign",
      Lint_rule.Locality_time,
      "the campaign driver supervises worker processes against wall-clock \
       shard deadlines and timestamps forks; simulated rounds inside the \
       trials it launches never read the clock" );
    ( "lib/campaign",
      Lint_rule.Locality_domain,
      "workers are forked processes, each owning its own engine domains; \
       the driver itself only forks while single-domain and never touches \
       Domain — the concurrency rules bind instead" ) ]

let allow_reason ~dir rule =
  List.find_map
    (fun (d, r, reason) -> if d = dir && r = rule then Some reason else None)
    allow_listed
