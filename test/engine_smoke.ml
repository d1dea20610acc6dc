(* A ~2-second engine smoke check, wired into @runtest via the
   @engine-smoke alias: a tiny sweep grid with jobs=2 must reproduce the
   sequential verdicts exactly, so parallel-path regressions fail tier-1. *)

let () =
  let eng = Engine.create ~jobs:2 () in
  let par = Engine.nf_boundary eng ~n_max:5 ~f_max:1 in
  let seq = Sweep.nf_boundary ~n_max:5 ~f_max:1 in
  if par <> seq then begin
    prerr_endline "engine-smoke: parallel nf verdicts diverge from sequential";
    exit 1
  end;
  let conn = Engine.connectivity_boundary eng ~f:1 ~kappas:[ 2; 3 ] ~n:7 in
  if conn <> Sweep.connectivity_boundary ~f:1 ~kappas:[ 2; 3 ] ~n:7 then begin
    prerr_endline "engine-smoke: parallel connectivity verdicts diverge";
    exit 1
  end;
  (* The verdict cache is the only tier: the cold grid misses once per job
     and hits nothing; a warm re-run is one hit per job, with no miss and
     no execution. *)
  let snap_cold = Metrics.snapshot (Engine.metrics eng) in
  if snap_cold.Metrics.cache_hits <> 0
     || snap_cold.Metrics.cache_misses <> snap_cold.Metrics.jobs_completed
  then begin
    Printf.eprintf "engine-smoke: cold grid recorded %d hits / %d misses for %d jobs\n"
      snap_cold.Metrics.cache_hits snap_cold.Metrics.cache_misses
      snap_cold.Metrics.jobs_completed;
    exit 1
  end;
  if Engine.nf_boundary eng ~n_max:5 ~f_max:1 <> seq then begin
    prerr_endline "engine-smoke: warm-cache verdicts diverge";
    exit 1
  end;
  let snap = Metrics.snapshot (Engine.metrics eng) in
  let warm_jobs = List.length seq in
  let hits = snap.Metrics.cache_hits - snap_cold.Metrics.cache_hits
  and misses = snap.Metrics.cache_misses - snap_cold.Metrics.cache_misses
  and runs = snap.Metrics.executions_run - snap_cold.Metrics.executions_run in
  if hits <> warm_jobs || misses <> 0 || runs <> 0 then begin
    Printf.eprintf
      "engine-smoke: warm re-run of %d jobs recorded %d hits / %d misses / %d \
       executions\n"
      warm_jobs hits misses runs;
    exit 1
  end;
  Printf.printf
    "engine-smoke ok: jobs=%d, %d jobs completed, %d executions, %d hits / %d \
     misses\n"
    (Engine.jobs eng) snap.Metrics.jobs_completed snap.Metrics.executions_run
    snap.Metrics.cache_hits snap.Metrics.cache_misses
