type cert_problem = Ba | Ba_collapse | Ba_conn

type spec =
  | Nf_cell of { n : int; f : int }
  | Conn_cell of { kappa : int; n : int; f : int }
  | Certify of { problem : cert_problem; n : int; f : int }
  | Chaos_trial of {
      family : string;
      f : int;
      seed : int;
      strategy : string;
      trial : int;
    }
  | Campaign_trial of {
      protocol : string;
      family : string;
      f : int;
      seed : int;
      strategy : string;
      trial : int;
    }

type t = spec

type scenario = {
  protocol : string;
  family : string;
  f : int;
  seed : int;
  trial : int;
  rounds : int option;
  faults : (int * string) list;
}

type cert_outcome = {
  contradiction : bool;
  summary : string;
  certificate : Certificate.t;
}

type chaos_outcome = {
  trial : int;
  seed : int;
  strategy : string;
  faulty : int list;
  survived : bool;
  violations : string list;
}

type verdict =
  | Cell of Sweep.cell
  | Conn of (int * bool * bool option * bool option)
  | Cert of cert_outcome
  | Chaos of chaos_outcome

let cert_problem_name = function
  | Ba -> "ba"
  | Ba_collapse -> "ba-collapse"
  | Ba_conn -> "ba-conn"

let cert_problem_of_string = function
  | "ba" -> Some Ba
  | "ba-collapse" -> Some Ba_collapse
  | "ba-conn" -> Some Ba_conn
  | _ -> None

let bool_default = Value.bool false

(* Derived deterministically from the spec; recorded in the descriptor so a
   fingerprint pins the whole problem x topology x f x protocol x horizon
   tuple, not just the spec fields. *)
let shape = function
  | Nf_cell { n; f } ->
    "nf-cell", Printf.sprintf "complete:%d" n, n, f, "eig",
    Eig.decision_round ~f + 1
  | Conn_cell { kappa; n; f } ->
    "conn-cell", Printf.sprintf "harary:%d:%d" kappa n, n, f,
    "dolev-relay/flood-vote", n / 2 + 3
  | Certify { problem = Ba; n; f } ->
    "certify:ba", Printf.sprintf "complete:%d" n, n, f, "eig",
    Eig.decision_round ~f + 1
  | Certify { problem = Ba_collapse; n; f } ->
    "certify:ba-collapse", Printf.sprintf "complete:%d" n, n, f, "eig",
    Eig.decision_round ~f + 1
  | Certify { problem = Ba_conn; n; f } ->
    "certify:ba-conn", Printf.sprintf "cycle:%d" n, n, f, "flood-vote", n + 3
  | Chaos_trial { family; f; seed; strategy; trial } ->
    (* n/protocol/horizon are derived inside [run] after the family parses;
       the descriptor pins the full seed coordinates instead, which is what
       makes two trials distinct cache keys. *)
    ( Printf.sprintf "chaos[seed=%d,trial=%d,strategy=%s]" seed trial strategy,
      family, 0, f, "chaos-target", 0 )
  | Campaign_trial { protocol; family; f; seed; strategy; trial } ->
    (* Unlike chaos trials, the protocol is an explicit cube axis, so it is
       part of the descriptor rather than implied by the topology. *)
    ( Printf.sprintf "campaign[seed=%d,trial=%d,strategy=%s]" seed trial
        strategy,
      family, 0, f, protocol, 0 )

let describe job =
  let problem, topology, n, f, protocol, horizon = shape job in
  Value.tag "flm-job"
    (Value.of_assoc
       [ Value.string "problem", Value.string problem;
         Value.string "topology", Value.string topology;
         Value.string "n", Value.int n;
         Value.string "f", Value.int f;
         Value.string "protocol", Value.string protocol;
         Value.string "horizon", Value.int horizon;
       ])

let key job = Fingerprint.intern (describe job)

let label job =
  let problem, topology, _, f, _, _ = shape job in
  Printf.sprintf "%s(%s,f=%d)" problem topology f

(* Relative work estimate, used by the engine to dispatch batches
   largest-first.  The proxy is executions x n^2 x horizon: every execution
   moves O(n^2) messages per round, and the per-kind multiplier counts how
   many executions the job triggers (the nf-cell zoo replays patterns x
   faulty sets x adversaries; certificates build scenario chains).  Units
   are meaningless — only the ordering matters — and the estimate never
   raises: an unparseable chaos family costs 1 and fails inside [run]. *)
let cost job =
  let exec_work ~n ~horizon = n * n * (horizon + 1) in
  let family_work family =
    match Topology.of_family family with
    | Ok g ->
      let n = Graph.n g in
      exec_work ~n ~horizon:(n + 2)
    | Error _ -> 1
  in
  let work =
    match job with
    | Nf_cell { n; f } ->
      32 * exec_work ~n ~horizon:(Eig.decision_round ~f + 1)
    | Conn_cell { n; f; _ } -> 8 * (f + 1) * exec_work ~n ~horizon:((n / 2) + 3)
    | Certify { n; f; _ } ->
      8 * (f + 1) * exec_work ~n ~horizon:(Eig.decision_round ~f + 1)
    | Chaos_trial { family; _ } | Campaign_trial { family; _ } ->
      family_work family
  in
  max 1 work

(* --- the seeded-trial core (shared by chaos and campaign trials) ----------- *)

let fail_input what detail =
  Flm_error.raise_error (Flm_error.Invalid_input { what; detail })

(* The trial PRNG tree.  Key layout (stable — recorded seeds replay against
   it): trial stream = derive(of_seed seed) trial; per-node inputs under
   key 1; faulty-count under key 2; faulty-set under key 3; per-node install
   streams under key 4.  [campaign_scenario] reuses the same keys, which is
   what lets a corpus entry or a shrunk scenario replay a cube trial
   bit-for-bit. *)
let trial_rng ~seed ~trial = Fault_prng.derive (Fault_prng.of_seed seed) trial

let seeded_inputs rng n =
  Array.init n (fun u ->
      Value.bool
        (fst (Fault_prng.flip (Fault_prng.derive (Fault_prng.derive rng 1) u) ~p:0.5)))

(* The tail every trial shares: seeded inputs, the system they drive
   ([system inputs] gives it with its horizon), the faults installed
   against the trial stream, one run, and the Byzantine-agreement verdict
   over the correct nodes.  Each node's install stream depends only on
   (seed, trial, node), never on which other nodes are faulty — so
   dropping a node from the set (as the shrinker does) leaves the remaining
   installs byte-identical. *)
let seeded_trial g ~seed ~trial ~system ~faults =
  let rng = trial_rng ~seed ~trial in
  let inputs = seeded_inputs rng (Graph.n g) in
  let sys, horizon = system inputs in
  let faults = faults rng in
  let faulted, labels =
    List.fold_left
      (fun (sys, labels) (u, strategy) ->
        let node_rng = Fault_prng.derive (Fault_prng.derive rng 4) u in
        let sys, label =
          Fault_strategy.install ~rng:node_rng ~horizon ~strategy sys u
        in
        sys, (u, label) :: labels)
      (sys, []) faults
  in
  let faulty = List.map fst faults in
  let correct =
    List.filter (fun u -> not (List.mem u faulty)) (Graph.nodes g)
  in
  let violations =
    Ba_spec.check
      ~trace:(Exec.run faulted ~rounds:horizon)
      ~correct
      ~inputs:(fun u -> inputs.(u))
  in
  {
    trial;
    seed;
    strategy =
      String.concat ";"
        (List.rev_map (fun (u, l) -> Printf.sprintf "%d:%s" u l) labels);
    faulty;
    survived = violations = [];
    violations = List.map (Format.asprintf "%a" Violation.pp) violations;
  }

let parse_family family =
  match Topology.of_family family with
  | Ok g -> g
  | Error d -> fail_input family d

let parse_strategy strategy =
  match Fault_strategy.of_string strategy with
  | Ok s -> s
  | Error d -> fail_input strategy d

(* A seeded faulty set, each member running [strategy]. *)
let seeded_faults ~n ~f strategy rng =
  let k =
    1 + fst (Fault_prng.int (Fault_prng.derive rng 2) (max 1 (min f (n - 1))))
  in
  List.map
    (fun u -> u, strategy)
    (fst (Fault_prng.choose_distinct (Fault_prng.derive rng 3) ~k ~bound:n))

(* One chaos trial: parse the target family, pick a seeded faulty set,
   install the strategy at each faulty node, run the strongest protocol the
   graph supports, and check the Byzantine-agreement conditions over the
   correct nodes.  Every random choice is a pure function of
   (seed, trial, node, round, port), so trials are reproducible and
   jobs-count independent.  Bad user input surfaces as
   [Flm_error.Error (Invalid_input _)] — never a cached verdict. *)
let run_chaos ~family ~f ~seed ~strategy ~trial =
  let g = parse_family family in
  let strategy = parse_strategy strategy in
  let n = Graph.n g in
  if f < 1 then fail_input "f" "f >= 1 required";
  if n < 2 then fail_input family "chaos needs at least 2 nodes";
  (* Target the strongest protocol the topology admits: EIG on complete
     graphs, EIG-over-overlay on adequate graphs, the flood-vote strawman
     on anything else (where survival is not expected — that is the point). *)
  let system inputs =
    if Graph.min_degree g = n - 1 then
      ( System.make g (fun u ->
            Eig.device ~n ~f ~me:u ~default:bool_default, inputs.(u)),
        Eig.decision_round ~f + 1 )
    else if n > 3 * f && Connectivity.is_adequate ~f g then
      ( Overlay.eig_system g ~f ~inputs ~default:bool_default,
        Overlay.horizon g ~f ~inner_decision_round:(Eig.decision_round ~f) + 1 )
    else
      ( System.make g (fun u ->
            Naive.flood_vote g ~me:u ~rounds:n ~default:bool_default, inputs.(u)),
        n + 2 )
  in
  seeded_trial g ~seed ~trial ~system ~faults:(seeded_faults ~n ~f strategy)

(* --- the campaign protocol registry ---------------------------------------- *)

(* Campaign trials make the protocol an explicit cube axis instead of
   deriving it from the topology.  The registry is a closed set of named
   targets with per-protocol applicability: EIG and Phase King need complete
   graphs (and their resilience bounds n > 3f / n > 4f), the flood-vote
   strawman runs anywhere.  Enumerators use [campaign_applies] to skip (and
   count) inapplicable cells rather than silently folding them into a
   different protocol. *)

let campaign_protocols = [ "eig"; "phase-king"; "flood-vote" ]

let campaign_horizon ~protocol g ~f =
  let n = Graph.n g in
  let complete = Graph.min_degree g = n - 1 in
  match protocol with
  | "eig" when complete && n > 3 * f -> Some (Eig.decision_round ~f + 1)
  | "phase-king" when complete && n > 4 * f ->
    Some (Phase_king.decision_round ~f + 1)
  | "flood-vote" -> Some (n + 2)
  | "eig" | "phase-king" -> None
  | other -> fail_input other "unknown campaign protocol"

let campaign_applies ~protocol g ~f = campaign_horizon ~protocol g ~f <> None

let campaign_rounds ~protocol ~family ~f =
  let g = parse_family family in
  match campaign_horizon ~protocol g ~f with
  | Some h -> h
  | None ->
    fail_input protocol
      (Printf.sprintf "not applicable on %s with f=%d" family f)

let campaign_system ~protocol g ~f ~inputs =
  let n = Graph.n g in
  match campaign_horizon ~protocol g ~f with
  | None ->
    fail_input protocol
      (Printf.sprintf "not applicable on this topology (n=%d, f=%d)" n f)
  | Some horizon ->
    let device u =
      match protocol with
      | "eig" -> Eig.device ~n ~f ~me:u ~default:bool_default
      | "phase-king" -> Phase_king.device ~n ~f ~me:u
      | _ -> Naive.flood_vote g ~me:u ~rounds:n ~default:bool_default
    in
    System.make g (fun u -> device u, inputs.(u)), horizon

let run_campaign ~protocol ~family ~f ~seed ~strategy ~trial =
  let g = parse_family family in
  let strategy = parse_strategy strategy in
  let n = Graph.n g in
  if f < 1 then fail_input "f" "f >= 1 required";
  if n < 2 then fail_input family "campaign needs at least 2 nodes";
  seeded_trial g ~seed ~trial
    ~system:(fun inputs -> campaign_system ~protocol g ~f ~inputs)
    ~faults:(seeded_faults ~n ~f strategy)

(* --- explicit-control scenario replay (the shrinker's runner) -------------- *)

let campaign_scenario { protocol; family; f; seed; trial; rounds; faults } =
  let g = parse_family family in
  let n = Graph.n g in
  if f < 1 then fail_input "f" "f >= 1 required";
  let faults =
    List.map
      (fun (u, spec) ->
        if u < 0 || u >= n then
          fail_input "scenario"
            (Printf.sprintf "faulty node %d out of range [0,%d)" u n);
        u, parse_strategy spec)
      faults
  in
  let system inputs =
    let sys, full_horizon = campaign_system ~protocol g ~f ~inputs in
    match rounds with
    | None -> sys, full_horizon
    | Some r when r >= 1 -> sys, min r full_horizon
    | Some _ -> fail_input "scenario" "rounds must be >= 1"
  in
  seeded_trial g ~seed ~trial ~system ~faults:(fun _ -> faults)

let run job =
  match job with
  | Nf_cell { n; f } -> Cell (Sweep.nf_cell ~n ~f ())
  | Conn_cell { kappa; n; f } -> Conn (Sweep.connectivity_cell ~f ~n ~kappa ())
  | Certify { problem; n; f } ->
    let horizon = Eig.decision_round ~f + 1 in
    let eig w = Eig.device ~n ~f ~me:w ~default:bool_default in
    let v0 = Value.bool false and v1 = Value.bool true in
    (* Precondition failures (n > 3f, a graph without a small cut…) raise
       [Invalid_argument]; the guard types them as [Invalid_input], raised
       again here so supervision reports them instead of a wrapped
       [Invalid_argument]. *)
    let what, certify =
      match problem with
      | Ba ->
        ( "ba-nodes certificate",
          fun () ->
            Ba_nodes.certify ~device:eig ~v0 ~v1 ~horizon ~f
              (Topology.complete n) )
      | Ba_collapse ->
        ( "collapse certificate",
          fun () ->
            Collapse.certify_via_triangle ~device:eig ~v0 ~v1 ~horizon ~f
              (Topology.complete n) )
      | Ba_conn ->
        ( "ba-connectivity certificate",
          fun () ->
            let g = Topology.cycle n in
            Ba_connectivity.certify
              ~device:(fun w ->
                Naive.flood_vote g ~me:w ~rounds:n ~default:bool_default)
              ~v0 ~v1 ~horizon:(n + 3) ~f g )
    in
    let certificate =
      Result.fold ~ok:Fun.id ~error:Flm_error.raise_error
        (Flm_error.guard ~what certify)
    in
    Cert
      {
        contradiction = Certificate.is_contradiction certificate;
        summary = Certificate.verdict_line certificate;
        certificate;
      }
  | Chaos_trial { family; f; seed; strategy; trial } ->
    Chaos (run_chaos ~family ~f ~seed ~strategy ~trial)
  | Campaign_trial { protocol; family; f; seed; strategy; trial } ->
    Chaos (run_campaign ~protocol ~family ~f ~seed ~strategy ~trial)

(* --- the persistent-store projection --------------------------------------- *)

(* Cells, connectivity rows, and chaos outcomes are plain data and round-trip
   exactly through Value.t — that is what makes resumed sweeps byte-identical
   to uninterrupted ones.  Certificates carry traces and device closures, so
   a [Cert] verdict has no faithful first-order projection: it is never
   persisted ([verdict_to_value] = None) and always recomputed. *)

let opt_bool = function
  | None -> Value.tag "none" Value.unit
  | Some b -> Value.tag "some" (Value.bool b)

let opt_bool_of = function
  | Value.Tag ("none", Value.Unit) -> Some None
  | Value.Tag ("some", Value.Bool b) -> Some (Some b)
  | _ -> None

let verdict_to_value = function
  | Cell { Sweep.n; f; adequate; survived_attacks; certificate_broke_it } ->
    Some
      (Value.tag "verdict:cell"
         (Value.list
            [ Value.int n; Value.int f; Value.bool adequate;
              opt_bool survived_attacks; opt_bool certificate_broke_it ]))
  | Conn (kappa, adequate, relay_ok, cert_broke) ->
    Some
      (Value.tag "verdict:conn"
         (Value.list
            [ Value.int kappa; Value.bool adequate; opt_bool relay_ok;
              opt_bool cert_broke ]))
  | Chaos { trial; seed; strategy; faulty; survived; violations } ->
    Some
      (Value.tag "verdict:chaos"
         (Value.list
            [ Value.int trial; Value.int seed; Value.string strategy;
              Value.int_list faulty; Value.bool survived;
              Value.list (List.map Value.string violations) ]))
  | Cert _ -> None

let verdict_of_value v =
  let ( let* ) = Option.bind in
  match v with
  | Value.Tag
      ( "verdict:cell",
        Value.List
          [ Value.Int n; Value.Int f; Value.Bool adequate; survived; broke ] )
    ->
    let* survived_attacks = opt_bool_of survived in
    let* certificate_broke_it = opt_bool_of broke in
    Some
      (Cell { Sweep.n; f; adequate; survived_attacks; certificate_broke_it })
  | Value.Tag
      ( "verdict:conn",
        Value.List [ Value.Int kappa; Value.Bool adequate; relay; cert ] ) ->
    let* relay_ok = opt_bool_of relay in
    let* cert_broke = opt_bool_of cert in
    Some (Conn (kappa, adequate, relay_ok, cert_broke))
  | Value.Tag
      ( "verdict:chaos",
        Value.List
          [ Value.Int trial; Value.Int seed; Value.String strategy; faulty;
            Value.Bool survived; Value.List violations ] ) ->
    let* faulty =
      match faulty with
      | Value.List _ -> ( try Some (Value.get_int_list faulty) with _ -> None)
      | _ -> None
    in
    let* violations =
      List.fold_right
        (fun v acc ->
          match v, acc with
          | Value.String s, Some rest -> Some (s :: rest)
          | _ -> None)
        violations (Some [])
    in
    Some (Chaos { trial; seed; strategy; faulty; survived; violations })
  | _ -> None

(* Certificates carry traces and device closures; compare their data
   projection.  Cells and connectivity rows are plain data. *)
let equal_verdict a b =
  match a, b with
  | Cell x, Cell y -> x = y
  | Conn x, Conn y -> x = y
  | Cert x, Cert y ->
    x.contradiction = y.contradiction && String.equal x.summary y.summary
  | Chaos x, Chaos y -> x = y
  | (Cell _ | Conn _ | Cert _ | Chaos _), _ -> false

let pp_verdict ppf = function
  | Cell c ->
    Format.fprintf ppf "cell(n=%d,f=%d,%s)" c.Sweep.n c.Sweep.f
      (match c.Sweep.survived_attacks, c.Sweep.certificate_broke_it with
      | Some s, _ -> Printf.sprintf "survived=%b" s
      | _, Some b -> Printf.sprintf "broken=%b" b
      | None, None -> "-")
  | Conn (kappa, adequate, relay, cert) ->
    Format.fprintf ppf "conn(kappa=%d,adequate=%b,relay=%s,cert=%s)" kappa
      adequate
      (match relay with Some b -> string_of_bool b | None -> "-")
      (match cert with Some b -> string_of_bool b | None -> "-")
  | Cert c -> Format.fprintf ppf "cert(%s)" c.summary
  | Chaos c ->
    Format.fprintf ppf "chaos(trial=%d,seed=%d,faulty=[%s],%s%s)" c.trial c.seed
      (String.concat "," (List.map string_of_int c.faulty))
      (if c.survived then "survived" else "violated")
      (if c.survived then ""
       else Printf.sprintf ": %s" (String.concat " | " c.violations))
