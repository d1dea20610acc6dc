(* E22: the flat execution core.  Two questions, one record:

   1. Throughput: cold-sweep executions/sec at jobs = 1.  The cross-binary
      comparison against the pre-flat-core revision is measured offline
      (the method and figure are recorded in EXPERIMENTS.md) and passed in
      as [baseline_execs_per_sec] so the record carries it.
   2. Scaling: cold-sweep wall time must be monotone non-increasing in the
      jobs count (within [tolerance]), and on a multicore box the best
      speedup must clear [cores x 0.6].  On a single-core box the speedup
      criterion cannot hold by construction, so it auto-relaxes to a
      warning — recorded, not asserted.

   Shared between bench/main.exe (full config, BENCH_E22.json) and the
   @bench-smoke test (tiny config, temp file). *)

let wall = Metrics.wall_now

let q = Bench_json.quantize_us

(* One cold boundary sweep on a fresh engine; returns (wall, executions). *)
let cold_sweep ~jobs ~n_max ~f_max =
  let eng = Engine.create ~jobs () in
  let t0 = wall () in
  ignore (Engine.nf_boundary eng ~n_max ~f_max);
  let dt = wall () -. t0 in
  let snap = Metrics.snapshot (Engine.metrics eng) in
  Engine.shutdown eng;
  dt, snap.Metrics.executions_run

let run ?out ?baseline_execs_per_sec ?(tolerance = 0.15) ~n_max ~f_max
    ~jobs_list () =
  let cores = Domain.recommended_domain_count () in
  let scaling =
    List.map
      (fun jobs ->
        let dt, execs = cold_sweep ~jobs ~n_max ~f_max in
        jobs, dt, execs)
      jobs_list
  in
  let runs =
    List.map
      (fun (jobs, dt, execs) ->
        Bench_json.run_record
          ~label:(Printf.sprintf "sweep_cold_j%d" jobs)
          ~jobs ~wall_seconds:(q dt)
          ~extra:[ "executions", Bench_json.Int execs ]
          ())
      scaling
  in
  (* Monotone non-increasing wall time in jobs, within the tolerance: more
     participants must never make the cold sweep meaningfully slower. *)
  let monotone =
    let rec check = function
      | (_, prev, _) :: ((_, next, _) :: _ as rest) ->
        next <= prev *. (1.0 +. tolerance) && check rest
      | _ -> true
    in
    check scaling
  in
  let j1_dt, j1_execs =
    match scaling with
    | (1, dt, execs) :: _ -> dt, execs
    | _ -> invalid_arg "Bench_e22.run: jobs_list must start with 1"
  in
  let flat_eps = if j1_dt > 0.0 then float_of_int j1_execs /. j1_dt else 0.0 in
  let best_speedup =
    List.fold_left
      (fun best (_, dt, _) ->
        if dt > 0.0 then Float.max best (j1_dt /. dt) else best)
      1.0 scaling
  in
  let speedup_target = float_of_int cores *. 0.6 in
  let speedup_ok = best_speedup >= speedup_target in
  (* Single core: the scaling criterion is unachievable by construction —
     relax it to a recorded warning instead of a failure. *)
  let speedup_relaxed = cores <= 1 in
  if speedup_relaxed && not speedup_ok then
    Format.printf
      "E22: single core (cores=%d) — relaxing the multicore speedup \
       criterion to a warning (best %.2fx, target %.2fx)@."
      cores best_speedup speedup_target;
  let derived =
    [ "flat_execs_per_sec", Bench_json.Float (q flat_eps);
      "wall_monotone_in_jobs", Bench_json.Bool monotone;
      "best_jobs_speedup", Bench_json.Float (q best_speedup);
      "jobs_speedup_target", Bench_json.Float (q speedup_target);
      "jobs_speedup_ok", Bench_json.Bool (speedup_ok || speedup_relaxed);
      "jobs_speedup_relaxed_single_core", Bench_json.Bool speedup_relaxed;
    ]
    @
    match baseline_execs_per_sec with
    | None -> []
    | Some b ->
      [ "baseline_pre_flat_execs_per_sec", Bench_json.Float (q b);
        ( "flat_vs_baseline_speedup",
          Bench_json.Float (q (if b > 0.0 then flat_eps /. b else 0.0)) );
      ]
  in
  let json =
    Bench_json.bench_record ~experiment:"E22"
      ~config:
        [ "n_max", Bench_json.Int n_max;
          "f_max", Bench_json.Int f_max;
          ( "jobs_list",
            Bench_json.List (List.map (fun j -> Bench_json.Int j) jobs_list) );
          "tolerance", Bench_json.Float (q tolerance);
          "cores", Bench_json.Int cores;
        ]
      ~derived
      ~runs
      ()
  in
  (match out with Some path -> Bench_json.write_file ~path json | None -> ());
  json
