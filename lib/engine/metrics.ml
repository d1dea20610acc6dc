type snapshot = {
  jobs_completed : int;
  jobs_failed : int;
  jobs_timed_out : int;
  degraded : int;
  cache_hits : int;
  cache_misses : int;
  dedups : int;
  evictions : int;
  resumed : int;
  recomputed : int;
  store_writes : int;
  executions_run : int;
  total_job_seconds : float;
  max_job_seconds : float;
  elapsed_seconds : float;
  sched_batches : int;
  sched_busy_seconds : float;
  sched_capacity_seconds : float;
}

type t = {
  lock : Mutex.t;
  mutable jobs_completed : int;
  mutable jobs_failed : int;
  mutable jobs_timed_out : int;
  mutable degraded : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable dedups : int;
  mutable evictions : int;
  mutable resumed : int;
  mutable recomputed : int;
  mutable store_writes : int;
  mutable total_job_seconds : float;
  mutable max_job_seconds : float;
  mutable sched_batches : int;
  mutable sched_busy_seconds : float;
  mutable sched_capacity_seconds : float;
  mutable created_at : float;
  mutable exec_baseline : int;
}

let wall_now = Unix.gettimeofday

let create () =
  {
    lock = Mutex.create ();
    jobs_completed = 0;
    jobs_failed = 0;
    jobs_timed_out = 0;
    degraded = 0;
    cache_hits = 0;
    cache_misses = 0;
    dedups = 0;
    evictions = 0;
    resumed = 0;
    recomputed = 0;
    store_writes = 0;
    total_job_seconds = 0.0;
    max_job_seconds = 0.0;
    sched_batches = 0;
    sched_busy_seconds = 0.0;
    sched_capacity_seconds = 0.0;
    created_at = wall_now ();
    exec_baseline = Exec.total_runs ();
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let reset t =
  with_lock t (fun () ->
      t.jobs_completed <- 0;
      t.jobs_failed <- 0;
      t.jobs_timed_out <- 0;
      t.degraded <- 0;
      t.cache_hits <- 0;
      t.cache_misses <- 0;
      t.dedups <- 0;
      t.evictions <- 0;
      t.resumed <- 0;
      t.recomputed <- 0;
      t.store_writes <- 0;
      t.total_job_seconds <- 0.0;
      t.max_job_seconds <- 0.0;
      t.sched_batches <- 0;
      t.sched_busy_seconds <- 0.0;
      t.sched_capacity_seconds <- 0.0;
      t.created_at <- wall_now ();
      t.exec_baseline <- Exec.total_runs ())

let cache_hit t = with_lock t (fun () -> t.cache_hits <- t.cache_hits + 1)
let cache_miss t = with_lock t (fun () -> t.cache_misses <- t.cache_misses + 1)
let record_dedup t = with_lock t (fun () -> t.dedups <- t.dedups + 1)
let record_eviction t = with_lock t (fun () -> t.evictions <- t.evictions + 1)
let record_resumed t = with_lock t (fun () -> t.resumed <- t.resumed + 1)

let record_recomputed t =
  with_lock t (fun () -> t.recomputed <- t.recomputed + 1)

let record_store_write t =
  with_lock t (fun () -> t.store_writes <- t.store_writes + 1)

let record_job t ~seconds =
  with_lock t (fun () ->
      t.jobs_completed <- t.jobs_completed + 1;
      t.total_job_seconds <- t.total_job_seconds +. seconds;
      if seconds > t.max_job_seconds then t.max_job_seconds <- seconds)

let record_failure t ~timeout =
  with_lock t (fun () ->
      t.jobs_failed <- t.jobs_failed + 1;
      if timeout then t.jobs_timed_out <- t.jobs_timed_out + 1)

let record_schedule t ~participants ~busy_seconds ~span_seconds =
  with_lock t (fun () ->
      t.sched_batches <- t.sched_batches + 1;
      t.sched_busy_seconds <- t.sched_busy_seconds +. busy_seconds;
      t.sched_capacity_seconds <-
        t.sched_capacity_seconds +. (span_seconds *. float_of_int participants))
let record_degraded t = with_lock t (fun () -> t.degraded <- t.degraded + 1)

let snapshot t =
  with_lock t (fun () ->
      {
        jobs_completed = t.jobs_completed;
        jobs_failed = t.jobs_failed;
        jobs_timed_out = t.jobs_timed_out;
        degraded = t.degraded;
        cache_hits = t.cache_hits;
        cache_misses = t.cache_misses;
        dedups = t.dedups;
        evictions = t.evictions;
        resumed = t.resumed;
        recomputed = t.recomputed;
        store_writes = t.store_writes;
        executions_run = Exec.total_runs () - t.exec_baseline;
        total_job_seconds = t.total_job_seconds;
        max_job_seconds = t.max_job_seconds;
        elapsed_seconds = wall_now () -. t.created_at;
        sched_batches = t.sched_batches;
        sched_busy_seconds = t.sched_busy_seconds;
        sched_capacity_seconds = t.sched_capacity_seconds;
      })

let hit_rate (s : snapshot) =
  let total = s.cache_hits + s.cache_misses in
  if total = 0 then 0.0 else float_of_int s.cache_hits /. float_of_int total

let scheduling_efficiency (s : snapshot) =
  if s.sched_capacity_seconds <= 0.0 then 1.0
  else min 1.0 (s.sched_busy_seconds /. s.sched_capacity_seconds)

let jobs_per_second (s : snapshot) =
  if s.elapsed_seconds <= 0.0 then 0.0
  else float_of_int s.jobs_completed /. s.elapsed_seconds

let pp_snapshot ppf (s : snapshot) =
  Format.fprintf ppf
    "@[<v>engine metrics:@   jobs completed:   %d (%.1f jobs/s over %.3f s \
     elapsed)@   supervision:      %d failed (%d timeouts), %d \
     degradations@   executions run:   %d@   cache:            %d hits / %d \
     misses / %d evictions / %d deduped (hit rate %.1f%%)@   store:            \
     %d resumed, %d recomputed, %d journal writes@   job wall-clock:   %.3f \
     s total, %.3f s max, %.3f s mean@   scheduling:       %d batches, %.3f \
     s busy / %.3f s capacity (efficiency %.1f%%)@]"
    s.jobs_completed (jobs_per_second s) s.elapsed_seconds s.jobs_failed
    s.jobs_timed_out s.degraded s.executions_run s.cache_hits
    s.cache_misses s.evictions s.dedups
    (100.0 *. hit_rate s)
    s.resumed s.recomputed s.store_writes
    s.total_job_seconds s.max_job_seconds
    (if s.jobs_completed = 0 then 0.0
     else s.total_job_seconds /. float_of_int s.jobs_completed)
    s.sched_batches s.sched_busy_seconds s.sched_capacity_seconds
    (100.0 *. scheduling_efficiency s)

let pp_report ppf t = pp_snapshot ppf (snapshot t)
