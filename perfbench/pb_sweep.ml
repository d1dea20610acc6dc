(* sweep_cold: the default `flm sweep` grid (n <= 12, f <= 2) on a fresh
   single-core engine per operation.

   The seed does not change the grid: the op is the CLI's default sweep,
   and its inputs are the grid itself. *)

let full_grid = 12, 2
let toy_grid = 6, 1

(* The 3f+1 table: K_n is adequate iff n >= 3f+1; EIG survives the zoo
   on the adequate side and the covering certificate breaks it on the
   other. *)
let expected_cell ~n ~f : Sweep.cell =
  let adequate = n >= (3 * f) + 1 in
  { n;
    f;
    adequate;
    survived_attacks = (if adequate then Some true else None);
    certificate_broke_it = (if adequate then None else Some true) }

let table_ok ~n_max ~f_max cells =
  let expected =
    List.map (fun (n, f) -> expected_cell ~n ~f) (Sweep.nf_grid ~n_max ~f_max)
  in
  List.length cells = List.length expected && List.for_all2 ( = ) cells expected

(* One end-to-end op: the intern table dropped and the heap compacted (a
   cold `flm sweep` process starts with neither), so no op inherits the
   previous ops' heap; then a fresh jobs=1 engine runs the grid. *)
let op ~n_max ~f_max =
  Fingerprint.clear ();
  Gc.compact ();
  let t0 = Pb_stats.now () in
  let eng = Engine.create ~jobs:1 () in
  let cells = Engine.nf_boundary eng ~n_max ~f_max in
  let dt = Pb_stats.now () -. t0 in
  let m = Metrics.snapshot (Engine.metrics eng) in
  Engine.shutdown eng;
  dt, table_ok ~n_max ~f_max cells, m

(* --- the traced composition ------------------------------------------------ *)

(* The same cells, rebuilt from the layers' public functions with a span
   around each call: job keys and zoo-run keys through Fingerprint and an
   Exec_cache (as the engine's memo does), coverings, Exec.run,
   Scenario.of_trace/matches and Ba_spec.check.  Device construction and
   system wiring are glue and stay unattributed. *)

let bool_default = Value.bool false

let attacks ~n ~f u =
  let honest = Eig.device ~n ~f ~me:u ~default:bool_default in
  [ Adversary.silent ~arity:(n - 1);
    Adversary.crash ~after:1 honest;
    Adversary.split_brain honest
      ~inputs:(Array.init (n - 1) (fun j -> Value.bool (j mod 2 = 0)));
    Adversary.babbler ~seed:(31 * u) ~arity:(n - 1)
      ~palette:[ Value.bool true; Value.bool false; Value.int 3 ] ]

let lookup sp cache key_desc =
  let key = Pb_span.span sp "fingerprint" (fun () -> Fingerprint.intern key_desc) in
  key, Pb_span.span sp "exec_cache" (fun () -> Exec_cache.find_opt cache key)

let check sp ~trace ~correct ~inputs =
  Pb_span.incr sp "ba_spec";
  Pb_span.span sp "ba_spec" (fun () -> Ba_spec.check ~trace ~correct ~inputs)

let exec sp sys ~rounds =
  Pb_span.incr sp "exec";
  Pb_span.span sp "exec" (fun () -> Exec.run sys ~rounds)

let zoo sp scen ~n ~f =
  let g = Topology.complete n in
  let horizon = Eig.decision_round ~f + 1 in
  let patterns = [ 0; 1; (1 lsl n) - 1; 0b1010101 land ((1 lsl n) - 1) ] in
  let faulty_sets =
    if f = 1 then [ [ 0 ]; [ n - 1 ] ]
    else [ List.init f (fun i -> i); List.init f (fun i -> n - 1 - i) ]
  in
  List.for_all
    (fun pattern ->
      let inputs = Array.init n (fun u -> Value.bool (pattern land (1 lsl u) <> 0)) in
      List.for_all
        (fun faulty ->
          List.for_all
            (fun which ->
              let desc =
                Value.tag "zoo-run"
                  (Value.list
                     [ Value.int n; Value.int f; Value.int horizon;
                       Value.int pattern; Value.int_list faulty; Value.int which ])
              in
              match lookup sp scen desc with
              | _, Some ok -> ok
              | key, None ->
                let sys =
                  System.make g (fun u ->
                      Eig.device ~n ~f ~me:u ~default:bool_default, inputs.(u))
                in
                let sys =
                  List.fold_left
                    (fun acc u ->
                      System.substitute acc u (List.nth (attacks ~n ~f u) which))
                    sys faulty
                in
                let trace = exec sp sys ~rounds:horizon in
                let correct =
                  List.filter (fun u -> not (List.mem u faulty)) (Graph.nodes g)
                in
                let ok = check sp ~trace ~correct ~inputs:(fun u -> inputs.(u)) = [] in
                Pb_span.span sp "exec_cache" (fun () -> Exec_cache.insert scen key ok);
                ok)
            [ 0; 1; 2; 3 ])
        faulty_sets)
    patterns

(* Reconstruct.run, composed: replay devices for the faulty side, the
   target-graph execution, and the locality witness as two scenario
   extractions and one match. *)
let reconstruct sp ~covering ~covering_system ~covering_trace ~device ~chi
    ~rounds ~label =
  let g = covering.Covering.target in
  let m = Covering.copies covering in
  let modm i = ((i mod m) + m) mod m in
  let correct = List.filter (fun v -> chi v <> None) (Graph.nodes g) in
  let faulty = List.filter (fun v -> chi v = None) (Graph.nodes g) in
  let copy_of v = modm (Option.get (chi v)) in
  let replay_device x =
    let schedule =
      List.map
        (fun w ->
          if List.mem w correct then
            let src_copy = modm (copy_of w + Covering.shift_of covering w x) in
            ( Covering.encode covering ~copy:src_copy x,
              Covering.encode covering ~copy:(copy_of w) w )
          else
            let dst_copy = modm (Covering.shift_of covering x w) in
            Covering.encode covering ~copy:0 x, Covering.encode covering ~copy:dst_copy w)
        (Graph.neighbors g x)
    in
    Adversary.from_trace covering_trace
      ~name:(Printf.sprintf "F@%d(%s)" x label)
      ~schedule
  in
  let system =
    System.make g (fun v ->
        if List.mem v correct then
          ( device v,
            System.input covering_system (Covering.encode covering ~copy:(copy_of v) v) )
        else replay_device v, Value.unit)
  in
  let trace = exec sp system ~rounds in
  let chi_list = List.map (fun v -> v, copy_of v) correct in
  let source, target =
    Pb_span.span sp "scenario.extract" (fun () ->
        ( Scenario.of_trace covering_trace
            (List.map (fun (v, copy) -> Covering.encode covering ~copy v) chi_list),
          Scenario.of_trace trace correct ))
  in
  Pb_span.incr sp "scenario.match";
  let locality =
    Pb_span.span sp "scenario.match" (fun () ->
        Scenario.matches ~map:(fun s -> snd (Covering.decode covering s)) source target)
  in
  { Reconstruct.label; chi = chi_list; faulty; correct; system; trace; locality }

let certificate sp ~n ~f =
  let g = Topology.complete n in
  let device w = Eig.device ~n ~f ~me:w ~default:bool_default in
  let horizon = Eig.decision_round ~f + 1 in
  let a, _, c = Ba_nodes.default_partition g ~f in
  let in_a v = List.mem v a and in_c v = List.mem v c in
  (* Installing devices through the covering map is folded into the
     covering span: it is the covering's construction as a system. *)
  let covering, covering_system =
    Pb_span.span sp "covering" (fun () ->
        let covering =
          Covering.crossed g ~crossed:(fun u v -> (in_a u && in_c v) || (in_c u && in_a v))
        in
        ( covering,
          System.of_covering covering ~device ~input:(fun s ->
              if fst (Covering.decode covering s) = 0 then Value.bool false
              else Value.bool true) ))
  in
  Pb_span.incr ~by:(Graph.n covering.Covering.source) sp "covering";
  let covering_trace = exec sp covering_system ~rounds:horizon in
  let run label chi =
    let r =
      reconstruct sp ~covering ~covering_system ~covering_trace ~device ~chi
        ~rounds:horizon ~label
    in
    let inputs u = System.input r.Reconstruct.system u in
    r, check sp ~trace:r.Reconstruct.trace ~correct:r.Reconstruct.correct ~inputs
  in
  let runs =
    [ run "E1" (fun v -> if in_a v then None else Some 0);
      run "E2" (fun v -> if in_a v then Some 1 else if in_c v then Some 0 else None);
      run "E3" (fun v -> if in_c v then None else Some 1) ]
  in
  match Certificate.decide ~runs ~fallback:"unbroken" () with
  | Certificate.Contradiction _ -> true
  | Certificate.Fault_axiom_failed _ | Certificate.Unbroken _ -> false

let traced_op sp ~n_max ~f_max =
  Fingerprint.clear ();
  Gc.compact ();
  let verdicts = Exec_cache.create () in
  let scen = Exec_cache.create ~capacity:(8 * 4096) () in
  let runs0 = Exec.total_runs () in
  let t0 = Pb_stats.now () in
  let cells =
    List.map
      (fun (n, f) ->
        match lookup sp verdicts (Job.describe (Job.Nf_cell { n; f })) with
        | _, Some cell -> cell
        | key, None ->
          let adequate = Connectivity.is_adequate ~f (Topology.complete n) in
          let cell : Sweep.cell =
            if adequate then
              { n; f; adequate; survived_attacks = Some (zoo sp scen ~n ~f);
                certificate_broke_it = None }
            else
              { n; f; adequate; survived_attacks = None;
                certificate_broke_it = Some (certificate sp ~n ~f) }
          in
          Pb_span.span sp "exec_cache" (fun () -> Exec_cache.insert verdicts key cell);
          cell)
      (Sweep.nf_grid ~n_max ~f_max)
  in
  let dt = Pb_stats.now () -. t0 in
  dt, table_ok ~n_max ~f_max cells, Exec.total_runs () - runs0

(* --- the workload ------------------------------------------------------------ *)

(* Set-up is engine creation plus one untimed warm-up sweep of a smaller
   grid.  The warm-up keeps the process's one-time costs (code paging, the
   first heap growth) out of the timed sample: the first sweep of a
   process was often the fastest, a different regime from every op after
   it.  An untraced run sets up once before its window and again at each
   of [marks] marks through it (Pb_stats.marks); setup_s is the median. *)
let warmup_grid = 9, 2
let marks = 6

let run ~toy ~seconds ~trace =
  let n_max, f_max = if toy then toy_grid else full_grid in
  let setup () =
    let n_max, f_max = if toy then 4, 1 else warmup_grid in
    let dt, ok, _ = op ~n_max ~f_max in
    dt, ok
  in
  let first = setup () in
  Pb_stats.reset_peak_rss 0;
  if not trace then begin
    let ops, more =
      Pb_stats.timed_loop ~seconds ~extra:(marks, setup) (fun () -> op ~n_max ~f_max)
    in
    let setups = first :: more in
    let failed = List.length (List.filter (fun (_, ok, _) -> not ok) ops) in
    let setup_failed = List.length (List.filter (fun (_, ok) -> not ok) setups) in
    let metrics, notes =
      Pb_result.end_to_end ~tail_q:0.75 ~setups:(List.map fst setups)
        ~op_seconds:(List.map (fun (dt, _, _) -> dt) ops)
        ~peak_rss_mb:(Pb_stats.peak_rss_mb 0)
    in
    { Pb_result.attempted = List.length ops;
      failed = failed + setup_failed;
      metrics;
      notes =
        ("grid", Printf.sprintf "n<=%d f<=%d" n_max f_max)
        :: ( "op_ms",
             String.concat " "
               (List.map (fun (dt, _, _) -> Printf.sprintf "%.0f" (1000.0 *. dt)) ops) )
        :: notes }
  end
  else begin
    (* One engine op gives the engine's own counts (cache, pool,
       executions); then the composition runs with spans off and on in
       turn, for the overhead ratio. *)
    let _, engine_ok, m = op ~n_max ~f_max in
    let sp = Pb_span.create () and off = Pb_span.create ~on:false () in
    let plain, traced =
      Pb_stats.alternate ~seconds
        (fun () -> traced_op off ~n_max ~f_max)
        (fun () -> traced_op sp ~n_max ~f_max)
    in
    let n_traced = List.length traced in
    let runs_engine = m.Metrics.executions_run in
    let runs_composed = List.map (fun (_, _, r) -> r) (plain @ traced) in
    (* The composition copies the engine's sweep by hand; a different
       execution count means it has drifted from lib/impossibility, which
       is reported, not failed. *)
    let drift = List.exists (( <> ) runs_engine) runs_composed in
    let fails ops = List.length (List.filter (fun (_, ok, _) -> not ok) ops) in
    let failed =
      fails plain + fails traced + (if engine_ok then 0 else 1) + if snd first then 0 else 1
    in
    let attempted = 1 + List.length plain + n_traced in
    let ms, us, count = Pb_result.per_op ~ops:n_traced sp in
    let traced_wall = List.fold_left (fun acc (dt, _, _) -> acc +. dt) 0.0 traced in
    let exec_s = Pb_span.seconds sp "exec" in
    let values =
      [ "fingerprint.intern_us", us "fingerprint";
        "exec_cache.find_us", us "exec_cache";
        "exec_cache.hits", float_of_int m.Metrics.cache_hits;
        "exec_cache.misses", float_of_int m.Metrics.cache_misses;
        ( "exec_cache.hit_ratio",
          Pb_result.ratio (float_of_int m.Metrics.cache_hits)
            (float_of_int (m.Metrics.cache_hits + m.Metrics.cache_misses)) );
        "exec_cache.evictions", float_of_int m.Metrics.evictions;
        "pool.busy_s", m.Metrics.sched_busy_seconds;
        "pool.sched_efficiency", Metrics.scheduling_efficiency m;
        "covering.build_ms", ms "covering";
        "covering.nodes", count "covering";
        "exec.runs", count "exec";
        "exec.run_ms", ms "exec";
        "exec.us_per_run",
        Pb_result.ratio (1e6 *. exec_s) (float_of_int (Pb_span.count sp "exec"));
        "scenario.extract_ms", ms "scenario.extract";
        "scenario.match_ms", ms "scenario.match";
        "scenario.matches", count "scenario.match";
        "ba_spec.check_ms", ms "ba_spec";
        "ba_spec.checks", count "ba_spec";
        ( "unattributed_ms",
          1000.0 *. (traced_wall -. Pb_span.attributed sp) /. float_of_int n_traced );
        ( "trace.overhead_ratio",
          Pb_stats.median (List.map (fun (dt, _, _) -> dt) traced)
          /. Pb_stats.median (List.map (fun (dt, _, _) -> dt) plain)
          -. 1.0 );
        "fail_ratio", Pb_result.ratio (float_of_int failed) (float_of_int attempted) ]
    in
    { Pb_result.attempted;
      failed;
      metrics = Pb_result.layers values;
      notes =
        [ "grid", Printf.sprintf "n<=%d f<=%d" n_max f_max;
          ( "ops",
            Printf.sprintf "1 engine, %d composed with spans off, %d with spans on"
              (List.length plain) n_traced );
          ( "exec.runs per op",
            Printf.sprintf "engine %d, composed %s%s" runs_engine
              (String.concat "," (List.map string_of_int runs_composed))
              (if drift then " (the composition has drifted from the engine)" else "") ) ] }
  end
