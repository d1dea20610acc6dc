type config = { timeout_ms : int option }

let default_config = { timeout_ms = None }

(* The out-of-the-box worker count: scale with the hardware, but capped.
   E18 measured the inverted curve — on grids the size we serve today,
   domains beyond a handful only add scheduling overhead (and on a
   many-core host an uncapped default would also crowd the 128-domain
   runtime budget that serve sessions draw from). *)
let jobs_cap = 8
let default_jobs () = max 1 (min (Domain.recommended_domain_count ()) jobs_cap)

type t = {
  pool : Pool.t;
  verdicts : Job.verdict Exec_cache.t;
  metrics : Metrics.t;
  config : config;
  store : Store.t option;
  resume : bool;
}

let create ?jobs ?(config = default_config) ?store ?(resume = false) () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let reject detail =
    Flm_error.raise_error
      (Flm_error.Invalid_input { what = "engine config"; detail })
  in
  (match config.timeout_ms with
  | Some ms when ms < 1 -> reject "Engine.create: timeout_ms >= 1 required"
  | Some _ | None -> ());
  let metrics = Metrics.create () in
  {
    pool =
      Pool.create ~jobs
        ~on_degrade:(fun _reason -> Metrics.record_degraded metrics)
        ();
    verdicts = Exec_cache.create ~metrics ();
    metrics;
    config;
    store;
    resume;
  }

let jobs t = Pool.jobs t.pool
let metrics t = t.metrics
let config t = t.config
let store t = t.store

(* The persistent tier below the verdict cache, read-through/write-behind:
   on a cache miss, a resuming engine first consults the store (a checkpoint
   hit skips execution entirely and is counted as [resumed]); a store miss
   executes and then journals the verdict ([recomputed] + one store write).
   Only successful verdicts reach this point — failures and timeouts raise
   before [persist], mirroring the cache's never-admit-failures rule — and
   [Cert] verdicts carry closures, so they are never persisted and always
   recompute (verdict_to_value = None). *)
let persist t job v =
  match t.store with
  | None -> ()
  | Some store -> (
    match Job.verdict_to_value v with
    | None -> ()
    | Some payload ->
      Store.put store ~key:(Job.describe job) payload;
      Metrics.record_store_write t.metrics)

let resume_find t job =
  match t.store with
  | Some store when t.resume -> (
    match Store.find store (Job.describe job) with
    | None -> None
    | Some payload -> (
      (* A record that does not parse back is a miss, never a verdict. *)
      match Job.verdict_of_value payload with
      | Some v ->
        Metrics.record_resumed t.metrics;
        Some v
      | None -> None))
  | Some _ | None -> None

(* The memoized job body: verdict cache, then the persistent tier, then
   execution.  Exceptions escape to [run_job_result], the one boundary. *)
let compute t job =
  let t0 = Metrics.wall_now () in
  let v =
    Exec_cache.find_or_run t.verdicts (Job.key job) (fun () ->
        match resume_find t job with
        | Some v -> v
        | None ->
          let v = Job.run job in
          if t.store <> None then Metrics.record_recomputed t.metrics;
          persist t job v;
          v)
  in
  Metrics.record_job t.metrics ~seconds:(Metrics.wall_now () -. t0);
  v

(* The supervised job boundary: per-job deadline and typed classification of
   anything the job throws.  Never raises — a poisoned job becomes an
   [Error] verdict and the batch keeps draining.  Jobs are deterministic, so
   a failure is final: re-running it would fail the same way.  The verdict
   cache only admits successes ({!Exec_cache.find_or_run} inserts after the
   thunk returns), so a timeout or failure is never replayed from cache.
   The label is built only when a deadline or an error needs it. *)
let run_job_result t job =
  match
    match t.config.timeout_ms with
    | None -> compute t job
    | Some timeout_ms ->
      Flm_error.Deadline.with_deadline ~job:(Job.label job) ~timeout_ms
        (fun () -> compute t job)
  with
  | v -> Ok v
  | exception e ->
    let e = Flm_error.classify ~job:(Job.label job) e in
    Metrics.record_failure t.metrics
      ~timeout:(match e with Flm_error.Job_timeout _ -> true | _ -> false);
    Error e

(* Batches dispatch largest-first ([Job.cost]) and report per-batch
   busy/span into the metrics, from which the scheduling-efficiency figure
   is derived.  Neither affects results: the pool lands outcomes by input
   index whatever the dispatch order. *)
let batch_costs jobs = Array.of_list (List.map Job.cost jobs)

let batch_stats t { Pool.participants; busy_seconds; span_seconds } =
  Metrics.record_schedule t.metrics ~participants ~busy_seconds ~span_seconds

(* Worker closures return [result] and never raise, so one hostile job
   cannot take down the batch or perturb its ordering: outcomes land by
   input index. *)
let run_all_results t jobs =
  Pool.map_list ~costs:(batch_costs jobs) ~on_stats:(batch_stats t) t.pool
    (run_job_result t) jobs

let nf_jobs ~n_max ~f_max =
  List.map (fun (n, f) -> Job.Nf_cell { n; f }) (Sweep.nf_grid ~n_max ~f_max)

(* The whole batch drains first; then the lowest failing index is raised as
   a typed error, whichever domain hit it. *)
let run_all_exn t jobs =
  List.map
    (function Ok v -> v | Error e -> Flm_error.raise_error e)
    (run_all_results t jobs)

let nf_boundary t ~n_max ~f_max =
  List.map
    (function
      | Job.Cell c -> c
      | Job.Conn _ | Job.Cert _ | Job.Chaos _ -> assert false)
    (run_all_exn t (nf_jobs ~n_max ~f_max))

let connectivity_boundary t ~f ~kappas ~n =
  List.map
    (function
      | Job.Conn r -> r
      | Job.Cell _ | Job.Cert _ | Job.Chaos _ -> assert false)
    (run_all_exn t
       (List.map (fun kappa -> Job.Conn_cell { kappa; n; f }) kappas))

let certify_result t ~problem ~n ~f =
  match run_job_result t (Job.Certify { problem; n; f }) with
  | Ok (Job.Cert outcome) -> Ok outcome
  | Ok (Job.Cell _ | Job.Conn _ | Job.Chaos _) -> assert false
  | Error _ as e -> e

let chaos t ~family ~f ~seed ~strategy ~trials =
  List.map
    (function
      | Ok (Job.Chaos outcome) -> Ok outcome
      | Ok (Job.Cell _ | Job.Conn _ | Job.Cert _) -> assert false
      | Error e -> Error e)
    (run_all_results t
       (List.init trials (fun trial ->
            Job.Chaos_trial { family; f; seed; strategy; trial })))

let shutdown t = Pool.shutdown t.pool

let pp_report ppf t =
  Format.fprintf ppf "%a@ verdict cache: %d/%d (LRU)" Metrics.pp_report
    t.metrics
    (Exec_cache.length t.verdicts)
    (Exec_cache.capacity t.verdicts)

let report t = Format.asprintf "@[<v>%a@]" pp_report t
