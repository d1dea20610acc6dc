type config = {
  jobs : int option;
  timeout_ms : int option;
  shard_timeout_ms : int option;
  shard_retries : int;
  shrink : bool;
}

let default_config =
  {
    jobs = None;
    timeout_ms = None;
    shard_timeout_ms = None;
    shard_retries = 1;
    shrink = true;
  }

type shard_report = {
  shard : int;
  cells : int;
  attempts : int;
  result : (unit, Flm_error.t) result;
}

type summary = {
  total : int;
  skipped : int;
  survived : int;
  violated : int;
  failed : int;
  corpus : int;
  corpus_new : int;
  minimized : int;
  shards : shard_report list;
  merged_records : int;
  interrupted : bool;
}

let shards_dirname = "shards"
let shards_dir dir = Filename.concat dir shards_dirname
let shard_dir dir w = Filename.concat (shards_dir dir) (string_of_int w)

let shard_jobs ~workers jobs w =
  List.filteri (fun i _ -> i mod workers = w) jobs

(* --- the worker body (runs in the forked child) ----------------------------- *)

let engine_config config = { Engine.timeout_ms = config.timeout_ms }

(* A worker's whole life: own journaled store, own engine, run the shard,
   exit.  Exit 0 means "the shard drained" — individual job failures are
   simply absent from the journal and the parent counts them; a nonzero
   exit carries the class code of a failure that stopped the worker cold
   (unusable store directory, corrupt journal). *)
let worker_main ~dir ~config ~w jobs =
  match Store.open_dir (shard_dir dir w) with
  | Error e ->
    prerr_endline (Flm_error.to_string e);
    exit (Flm_error.exit_code e)
  | Ok store ->
    let eng =
      Engine.create ?jobs:config.jobs ~config:(engine_config config) ~store
        ~resume:true ()
    in
    let _ = Engine.run_all_results eng jobs in
    Engine.shutdown eng;
    Store.close store;
    exit 0

(* --- parent-side supervision ------------------------------------------------ *)

let interrupted = Atomic.make false

let with_signals f =
  let install s = Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set interrupted true)) in
  Atomic.set interrupted false;
  let old_term = install Sys.sigterm and old_int = install Sys.sigint in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int)
    f

let error_of_exit code =
  let detail = Printf.sprintf "worker exited with code %d" code in
  match code with
  | 10 -> Flm_error.Invalid_input { what = "worker"; detail }
  | 11 -> Flm_error.Job_failed { job = "worker"; exn = detail }
  | 12 -> Flm_error.Job_timeout { job = "worker"; timeout_ms = 0 }
  | 14 -> Flm_error.Axiom_violation { axiom = "worker"; detail }
  | 15 -> Flm_error.Store_corrupt { path = "worker"; offset = 0; detail }
  | 16 -> Flm_error.Net { endpoint = "worker"; detail }
  | _ -> Flm_error.Worker_crashed { detail }

type shard_state = {
  w : int;
  shard_cells : Job.t list;
  mutable pid : int;  (* 0 = not running *)
  mutable started : float;
  mutable tries : int;
  mutable outcome : (unit, Flm_error.t) result option;
}

let fork_shard ~dir ~config st =
  st.tries <- st.tries + 1;
  st.started <- Unix.gettimeofday ();
  match Unix.fork () with
  | 0 ->
    (* Workers die by default on the forwarded SIGTERM; their journals
       hold every completed trial, which is exactly the checkpoint. *)
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    Sys.set_signal Sys.sigint Sys.Signal_default;
    worker_main ~dir ~config ~w:st.w st.shard_cells
  | pid -> st.pid <- pid
  | exception Unix.Unix_error (e, _, _) ->
    (* An unforkable shard must land in [outcome], or supervision would
       wait forever on a worker that never existed. *)
    st.outcome <-
      Some
        (Error
           (Flm_error.Worker_crashed
              { detail = "fork failed: " ^ Unix.error_message e }))

let supervise_shards ~dir ~config states =
  let deadline_s =
    Option.map (fun ms -> float_of_int ms /. 1000.0) config.shard_timeout_ms
  in
  let forwarded = ref false in
  let running () = List.filter (fun st -> st.outcome = None) states in
  while running () <> [] do
    if Atomic.get interrupted && not !forwarded then begin
      forwarded := true;
      List.iter
        (fun st ->
          if st.pid <> 0 then try Unix.kill st.pid Sys.sigterm with Unix.Unix_error _ -> ())
        (running ())
    end;
    List.iter
      (fun st ->
        match Unix.waitpid [ Unix.WNOHANG ] st.pid with
        | 0, _ ->
          let overdue =
            match deadline_s with
            | Some d -> Unix.gettimeofday () -. st.started > d
            | None -> false
          in
          if overdue then begin
            (try Unix.kill st.pid Sys.sigkill with Unix.Unix_error _ -> ());
            let _ = Unix.waitpid [] st.pid in
            st.pid <- 0;
            st.outcome <-
              Some
                (Error
                   (Flm_error.Job_timeout
                      { job = Printf.sprintf "shard %d" st.w;
                        timeout_ms = Option.get config.shard_timeout_ms }))
          end
        | _, Unix.WEXITED 0 ->
          st.pid <- 0;
          st.outcome <- Some (Ok ())
        | _, (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ as status) ->
          st.pid <- 0;
          let err =
            match status with
            | Unix.WEXITED c -> error_of_exit c
            | Unix.WSIGNALED s | Unix.WSTOPPED s ->
              Flm_error.Worker_crashed
                { detail = Printf.sprintf "worker killed by signal %d" s }
          in
          if Atomic.get interrupted then st.outcome <- Some (Error err)
          else if Flm_error.retryable err && st.tries <= config.shard_retries
          then
            (* Re-fork: the shard resumes from its own journal, so only
               in-flight trials are re-run. *)
            fork_shard ~dir ~config st
          else st.outcome <- Some (Error err)
        | exception Unix.Unix_error _ ->
          st.pid <- 0;
          st.outcome <-
            Some
              (Error (Flm_error.Worker_crashed { detail = "worker lost (wait failed)" })))
      (List.filter (fun st -> st.pid <> 0 && st.outcome = None) (running ()));
    if running () <> [] then ignore (Unix.select [] [] [] 0.02)
  done

(* --- merge + corpus --------------------------------------------------------- *)

let mkdir_p dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let harvest ~cube primary corpus ~shrink =
  let survived = ref 0 and violated = ref 0 and failed = ref 0 in
  let corpus_new = ref 0 in
  List.iter
    (fun job ->
      match Option.bind (Store.find primary (Job.describe job)) Job.verdict_of_value with
      | Some (Job.Chaos outcome) ->
        if outcome.Job.survived then incr survived
        else begin
          incr violated;
          match job with
          | Job.Campaign_trial { protocol; family; f; seed; strategy; trial } ->
            if Campaign_corpus.find corpus job = None then begin
              incr corpus_new;
              Campaign_corpus.record corpus
                { Campaign_corpus.protocol; family; f; seed; strategy; trial;
                  outcome; minimized = None }
            end
          | _ -> ()
        end
      | Some _ | None -> incr failed)
    cube.Campaign_spec.jobs;
  (* Shrink every unminimized entry (not just this run's): a corpus left
     half-mined by an interrupted run finishes on the next one. *)
  let minimized = ref 0 in
  List.iter
    (fun entry ->
      match entry.Campaign_corpus.minimized with
      | Some _ -> incr minimized
      | None ->
        if shrink && not (Atomic.get interrupted) then (
          match Campaign_shrink.minimize entry with
          | Ok (scenario, _, _) ->
            Campaign_corpus.record corpus
              { entry with Campaign_corpus.minimized = Some scenario };
            incr minimized
          | Error _ -> ()))
    (Campaign_corpus.entries corpus);
  !survived, !violated, !failed, !corpus_new, !minimized

(* --- entry points ----------------------------------------------------------- *)

let run ~dir ?(config = default_config) spec =
  let ( let* ) = Result.bind in
  let cube = Campaign_spec.enumerate spec in
  let total = List.length cube.Campaign_spec.jobs in
  mkdir_p dir;
  with_signals (fun () ->
      let* shards =
        if spec.Campaign_spec.workers = 1 then begin
          (* In-process reference path: same store layout, no fork. *)
          let* primary = Store.open_dir dir in
          let eng =
            Engine.create ?jobs:config.jobs ~config:(engine_config config)
              ~store:primary ~resume:true ()
          in
          let _ = Engine.run_all_results eng cube.Campaign_spec.jobs in
          Engine.shutdown eng;
          Store.close primary;
          Ok []
        end
        else begin
          mkdir_p (shards_dir dir);
          let states =
            List.init spec.Campaign_spec.workers (fun w ->
                {
                  w;
                  shard_cells =
                    shard_jobs ~workers:spec.Campaign_spec.workers
                      cube.Campaign_spec.jobs w;
                  pid = 0;
                  started = 0.0;
                  tries = 0;
                  outcome = None;
                })
          in
          (* Fork every worker while the parent is still single-domain. *)
          List.iter (fun st -> fork_shard ~dir ~config st) states;
          supervise_shards ~dir ~config states;
          Ok
            (List.map
               (fun st ->
                 {
                   shard = st.w;
                   cells = List.length st.shard_cells;
                   attempts = st.tries;
                   result = Option.get st.outcome;
                 })
               states)
        end
      in
      let* primary = Store.open_dir dir in
      List.iter
        (fun (r : shard_report) ->
          let sdir = shard_dir dir r.shard in
          if Sys.file_exists sdir then
            (* An untrustworthy shard journal contributes nothing; its
               cells are counted as failed below — the honest reading. *)
            match Store.merge_from primary sdir with Ok _ | Error _ -> ())
        shards;
      (* Canonical compaction: erase completion order, so this journal is
         byte-identical to the in-process run's. *)
      let _dropped = Store.gc ~canonical:true primary in
      let* corpus = Campaign_corpus.open_dir dir in
      let survived, violated, failed, corpus_new, minimized =
        harvest ~cube primary corpus ~shrink:config.shrink
      in
      let corpus_total = Store.length corpus in
      let merged_records = Store.length primary in
      Store.close corpus;
      Store.close primary;
      Ok
        {
          total;
          skipped = List.length cube.Campaign_spec.skipped;
          survived;
          violated;
          failed;
          corpus = corpus_total;
          corpus_new;
          minimized;
          shards;
          merged_records;
          interrupted = Atomic.get interrupted;
        })

let status ~dir =
  let ( let* ) = Result.bind in
  let* primary = Store.open_dir dir in
  let primary_stats = Store.stat primary in
  Store.close primary;
  let shard_stats =
    match Sys.readdir (shards_dir dir) with
    | entries ->
      List.filter_map
        (fun name ->
          match int_of_string_opt name with
          | None -> None
          | Some _ -> (
            match Store.open_dir (shard_dir dir (int_of_string name)) with
            | Ok s ->
              let st = Store.stat s in
              Store.close s;
              Some st
            | Error _ -> None))
        (List.sort compare (Array.to_list entries))
    | exception Sys_error _ -> []
  in
  let* corpus = Campaign_corpus.open_dir dir in
  let n = Store.length corpus in
  Store.close corpus;
  Ok (primary_stats, shard_stats, n)
