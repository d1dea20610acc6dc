(* The daemon.  The calling domain owns the accept loop; every accepted
   connection runs as a session in its own domain, and all sessions share
   one resident engine — so the verdict cache, the worker pool, and the
   optional persistent store stay warm across requests, and identical
   concurrent requests coalesce in the cache's single-flight layer instead
   of computing twice.

   Shutdown discipline: SIGTERM/SIGINT only flip an atomic; the accept
   loop and the session read loops poll it on a short select timeout, so
   every in-flight request is answered, every session domain is joined,
   and the engine and store are closed in order.  No lock is ever held
   across a blocking operation (join, select, engine work). *)

type config = {
  socket_path : string;
  jobs : int;
  store_dir : string option;
  resume : bool;
  max_sessions : int;
  engine_config : Engine.config;
}

let default_max_sessions = 16

(* Session read loops and the accept loop wake at this period to notice
   the stop flag; drain latency is bounded by it. *)
let poll_interval = 0.25

(* Backstop for a peer that dies mid-frame without resetting the
   connection: the kernel read times out and the session closes. *)
let io_timeout = 10.0

(* After stop is requested, each session keeps its connection open for one
   more window: a health probe arriving in it is answered (with
   [draining = true]), any other op gets a typed refusal, and then the
   session closes — so a drain is visible to clients as state, not as a
   silent hangup, while staying bounded at one answer per connection. *)
let drain_grace = poll_interval

let net = Flm_error.net
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* --- session registry ----------------------------------------------------

   Sessions are domains; domains must be joined.  A session that finishes
   pushes its id onto [done_ids]; the accept loop reaps (joins) finished
   handles between accepts, and [drain] waits for [live] to reach zero.
   Handles are looked up under the lock but joined outside it. *)

type registry = {
  lock : Mutex.t;
  drained : Condition.t;
  handles : (int, unit Domain.t) Hashtbl.t;
  mutable done_ids : int list;
  mutable live : int;
  mutable next_id : int;
}

let registry_create () =
  {
    lock = Mutex.create ();
    drained = Condition.create ();
    handles = Hashtbl.create 32;
    done_ids = [];
    live = 0;
    next_id = 0;
  }

let with_lock reg f =
  Mutex.lock reg.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg.lock) f

let live_sessions reg = with_lock reg (fun () -> reg.live)

let session_done reg id =
  with_lock reg (fun () ->
      reg.live <- reg.live - 1;
      reg.done_ids <- id :: reg.done_ids;
      Condition.broadcast reg.drained)

(* A done id whose handle is not registered yet (the spawner has not run
   [Hashtbl.add]) stays queued for the next reap. *)
let reap reg =
  let handles =
    with_lock reg (fun () ->
        let pending, found =
          List.partition_map
            (fun id ->
              match Hashtbl.find_opt reg.handles id with
              | Some h ->
                Hashtbl.remove reg.handles id;
                Either.Right h
              | None -> Either.Left id)
            reg.done_ids
        in
        reg.done_ids <- pending;
        found)
  in
  List.iter Domain.join handles

let spawn_session reg session =
  let id =
    with_lock reg (fun () ->
        let id = reg.next_id in
        reg.next_id <- id + 1;
        reg.live <- reg.live + 1;
        id)
  in
  let handle =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> session_done reg id) (fun () ->
            session id))
  in
  with_lock reg (fun () -> Hashtbl.add reg.handles id handle)

let drain reg =
  with_lock reg (fun () ->
      while reg.live > 0 do
        Condition.wait reg.drained reg.lock
      done);
  reap reg

(* --- request handling ----------------------------------------------------- *)

type server = {
  cfg : config;
  engine : Engine.t;
  metrics : Serve_metrics.t;
  stop : bool Atomic.t;
  sessions : unit -> int;  (** live session count, for health answers *)
  log : string -> unit;
}

let verdict_json v =
  Serve_proto.Verdict.to_json (Serve_proto.Verdict.of_job_verdict v)

(* Install the per-request deadline around work run in this session's
   domain.  The engine's supervision nests its own configured deadline
   inside (the tighter wins) and classifies the timeout, so [f] returns
   the error instead of raising; the exception branch is a backstop for
   work outside a supervised region. *)
let with_request_deadline ~label timeout_ms f =
  match timeout_ms with
  | None -> f ()
  | Some ms -> (
    match Flm_error.Deadline.with_deadline ~job:label ~timeout_ms:ms f with
    | v -> v
    | exception Flm_error.Error e -> Error e)

let stats_json server =
  let s : Serve_metrics.snapshot = Serve_metrics.snapshot server.metrics in
  let m : Metrics.snapshot = Metrics.snapshot (Engine.metrics server.engine) in
  Bench_json.Obj
    [ ( "server",
        Bench_json.Obj
          [ "requests", Bench_json.Int s.requests;
            "ok", Bench_json.Int s.ok;
            "failed", Bench_json.Int s.failed;
            "malformed", Bench_json.Int s.malformed;
            "rejected_overload", Bench_json.Int s.rejected_overload;
            "latency_count", Bench_json.Int s.latency_count;
            "p50_ms", Bench_json.Float s.p50_ms;
            "p99_ms", Bench_json.Float s.p99_ms;
            "max_ms", Bench_json.Float s.max_ms;
          ] );
      ( "engine",
        Bench_json.Obj
          [ "jobs", Bench_json.Int (Engine.jobs server.engine);
            "jobs_completed", Bench_json.Int m.jobs_completed;
            "jobs_failed", Bench_json.Int m.jobs_failed;
            "cache_hits", Bench_json.Int m.cache_hits;
            "cache_misses", Bench_json.Int m.cache_misses;
            "coalesced", Bench_json.Int m.dedups;
            "evictions", Bench_json.Int m.evictions;
            "resumed", Bench_json.Int m.resumed;
            "recomputed", Bench_json.Int m.recomputed;
            "store_writes", Bench_json.Int m.store_writes;
            "executions_run", Bench_json.Int m.executions_run;
          ] );
    ]

let store_stat_response server =
  match Engine.store server.engine with
  | None ->
    Serve_proto.Response.Failed
      (Flm_error.Invalid_input
         {
           what = "store";
           detail = "the daemon is running without --store; nothing to stat";
         })
  | Some st ->
    let s = Store.stat st in
    Serve_proto.Response.Result
      (Bench_json.Obj
         [ "path", Bench_json.String s.Store.path;
           "live", Bench_json.Int s.Store.live;
           "records", Bench_json.Int s.Store.records;
           "corrupt", Bench_json.Int s.Store.corrupt;
           "bytes", Bench_json.Int s.Store.bytes;
         ])

(* Health answers read counters only — never engine queues — so they stay
   cheap while every session is busy, and truthful while draining. *)
let ping_response server ~draining =
  let s : Serve_metrics.snapshot = Serve_metrics.snapshot server.metrics in
  Serve_proto.Response.Result
    (Serve_proto.Ping.to_json
       {
         Serve_proto.Ping.draining;
         sessions = server.sessions ();
         max_sessions = server.cfg.max_sessions;
         requests = s.requests;
         ok = s.ok;
         failed = s.failed;
         jobs = Engine.jobs server.engine;
         store_attached = Engine.store server.engine <> None;
       })

let handle_op server (req : Serve_proto.Request.t) =
  match req.Serve_proto.Request.op with
  | Serve_proto.Request.Certify { problem; n; f } -> (
    let job = Job.Certify { problem; n; f } in
    match
      with_request_deadline ~label:(Job.label job)
        req.Serve_proto.Request.timeout_ms (fun () ->
          Engine.run_job_result server.engine job)
    with
    | Ok v -> Serve_proto.Response.Result (verdict_json v)
    | Error e -> Serve_proto.Response.Failed e)
  | Serve_proto.Request.Chaos { family; f; seed; strategy; trials } -> (
    match
      with_request_deadline ~label:"chaos" req.Serve_proto.Request.timeout_ms
        (fun () ->
          Ok (Engine.chaos server.engine ~family ~f ~seed ~strategy ~trials))
    with
    | Error e -> Serve_proto.Response.Failed e
    | Ok slots ->
      Serve_proto.Response.Result
        (Bench_json.List
           (List.map
              (fun slot ->
                Serve_proto.Slot.to_json
                  (Result.map (fun o -> Serve_proto.Verdict.Chaos o) slot))
              slots)))
  | Serve_proto.Request.Sweep { n_max; f_max } -> (
    match
      with_request_deadline ~label:"sweep" req.Serve_proto.Request.timeout_ms
        (fun () ->
          Flm_error.guard ~what:"sweep" (fun () ->
              Engine.nf_boundary server.engine ~n_max ~f_max))
    with
    | Ok cells ->
      Serve_proto.Response.Result
        (Bench_json.List (List.map (fun c -> verdict_json (Job.Cell c)) cells))
    | Error e -> Serve_proto.Response.Failed e)
  | Serve_proto.Request.Store_stat -> store_stat_response server
  | Serve_proto.Request.Stats ->
    Serve_proto.Response.Result (stats_json server)
  | Serve_proto.Request.Ping ->
    ping_response server ~draining:(Atomic.get server.stop)

(* --- sessions ------------------------------------------------------------- *)

let handle_connection server fd id =
  let endpoint = Printf.sprintf "%s#%d" server.cfg.socket_path id in
  let respond resp =
    Serve_proto.write_frame ~endpoint fd
      (Bench_json.to_string (Serve_proto.Response.to_json resp))
  in
  (* Framing errors close the connection (the peer is not speaking the
     protocol); document errors are answered and the connection lives.
     [answer_frame] consumes one readable frame; [~draining] routes every
     op except a health probe to a typed refusal. *)
  let answer_frame ~draining =
    match Serve_proto.read_frame ~endpoint fd with
    | Ok Serve_proto.Eof -> `Close
    | Error e ->
      Serve_metrics.record_malformed server.metrics;
      let (_ : (unit, Flm_error.t) result) =
        respond (Serve_proto.Response.Failed e)
      in
      `Close
    | Ok (Serve_proto.Frame payload) -> (
      let t0 = Metrics.wall_now () in
      let parsed =
        match Bench_json.parse payload with
        | Error e -> Error ("malformed request document: " ^ e)
        | Ok doc -> Serve_proto.Request.of_json doc
      in
      match parsed with
      | Error detail -> (
        Serve_metrics.record_malformed server.metrics;
        match respond (Serve_proto.Response.Failed (net ~endpoint detail)) with
        | Ok () -> if draining then `Close else `Continue
        | Error _ -> `Close)
      | Ok req -> (
        Serve_metrics.record_request server.metrics;
        let resp =
          match req.Serve_proto.Request.op with
          | Serve_proto.Request.Ping -> ping_response server ~draining
          | _ when draining ->
            Serve_proto.Response.Failed
              (net ~endpoint
                 (Printf.sprintf
                    "server draining; %s refused — reconnect after restart"
                    (Serve_proto.Request.label req)))
          | _ -> handle_op server req
        in
        (match resp with
        | Serve_proto.Response.Result _ -> Serve_metrics.record_ok server.metrics
        | Serve_proto.Response.Failed _ ->
          Serve_metrics.record_failed server.metrics);
        Serve_metrics.record_latency server.metrics
          ~seconds:(Metrics.wall_now () -. t0);
        match respond resp with
        | Ok () -> if draining then `Close else `Continue
        | Error _ -> `Close))
  in
  let rec loop () =
    if not (Atomic.get server.stop) then
      match Unix.select [ fd ] [] [] poll_interval with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
        match answer_frame ~draining:(Atomic.get server.stop) with
        | `Continue -> loop ()
        | `Close -> ())
    else
      (* Stop noticed between requests: grant one grace window so a
         health probe is answered [draining = true] instead of the
         connection silently vanishing, then close. *)
      match Unix.select [ fd ] [] [] drain_grace with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ :: _, _, _ -> ignore (answer_frame ~draining:true)
  in
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
    (fun () ->
      match
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO io_timeout;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO io_timeout;
        loop ()
      with
      | () -> ()
      | exception e ->
        (* A session must never take the daemon down. *)
        server.log
          (Printf.sprintf "session %d died: %s" id (Printexc.to_string e)))

(* --- socket lifecycle ----------------------------------------------------- *)

(* A socket path that exists is either a live daemon (refuse to replace
   it) or a leftover from a process that died without unlinking (safe to
   remove: connecting to it is refused by the kernel). *)
let claim_socket_path path =
  if not (Sys.file_exists path) then Ok ()
  else
    match (Unix.stat path).Unix.st_kind with
    | exception Unix.Unix_error (e, _, _) ->
      Error
        (net ~endpoint:path
           (Printf.sprintf "cannot stat socket path: %s" (Unix.error_message e)))
    | Unix.S_REG | Unix.S_DIR | Unix.S_CHR | Unix.S_BLK | Unix.S_LNK
    | Unix.S_FIFO ->
      Error (net ~endpoint:path "path exists and is not a socket; refusing")
    | Unix.S_SOCK -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let verdict =
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () ->
          Error (net ~endpoint:path "a daemon is already serving this socket")
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> (
          match Unix.unlink path with
          | () -> Ok ()
          | exception Unix.Unix_error (e, _, _) ->
            Error
              (net ~endpoint:path
                 (Printf.sprintf "cannot remove stale socket: %s"
                    (Unix.error_message e))))
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
        | exception Unix.Unix_error (e, _, _) ->
          Error
            (net ~endpoint:path
               (Printf.sprintf "cannot probe existing socket: %s"
                  (Unix.error_message e)))
      in
      close_quietly fd;
      verdict)

let refuse_overload server fd =
  Serve_metrics.record_overload server.metrics;
  let e =
    net ~endpoint:server.cfg.socket_path
      (Printf.sprintf "server at capacity (%d sessions); retry later"
         server.cfg.max_sessions)
  in
  let (_ : (unit, Flm_error.t) result) =
    Serve_proto.write_frame ~endpoint:server.cfg.socket_path fd
      (Bench_json.to_string
         (Serve_proto.Response.to_json (Serve_proto.Response.Failed e)))
  in
  close_quietly fd

let accept_loop server reg listen_fd =
  while not (Atomic.get server.stop) do
    (match Unix.select [ listen_fd ] [] [] poll_interval with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept listen_fd with
      | exception
          Unix.Unix_error
            ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
        ->
        ()
      | fd, _peer ->
        if live_sessions reg >= server.cfg.max_sessions then
          refuse_overload server fd
        else
          spawn_session reg (fun id ->
              server.log (Printf.sprintf "session %d open" id);
              handle_connection server fd id;
              server.log (Printf.sprintf "session %d closed" id))));
    reap reg
  done

(* Flip the stop flag on SIGTERM/SIGINT, ignore SIGPIPE (a client dying
   mid-response must surface as EPIPE on the write, not kill the daemon);
   returns the restorer. *)
let install_signals stop =
  let on_stop = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  let prev_term = Sys.signal Sys.sigterm on_stop in
  let prev_int = Sys.signal Sys.sigint on_stop in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  fun () ->
    Sys.set_signal Sys.sigterm prev_term;
    Sys.set_signal Sys.sigint prev_int;
    Sys.set_signal Sys.sigpipe prev_pipe

let final_report server =
  let s : Serve_metrics.snapshot = Serve_metrics.snapshot server.metrics in
  Printf.sprintf
    "%s\n\
     serve: %d requests (%d ok, %d failed, %d malformed, %d refused), p50 \
     %.2f ms, p99 %.2f ms"
    (Engine.report server.engine)
    s.requests s.ok s.failed s.malformed s.rejected_overload s.p50_ms s.p99_ms

let validate cfg =
  if cfg.jobs < 1 then
    Error
      (Flm_error.Invalid_input
         {
           what = "jobs";
           detail = Printf.sprintf "need at least 1 worker, got %d" cfg.jobs;
         })
  else if cfg.max_sessions < 1 then
    Error
      (Flm_error.Invalid_input
         {
           what = "max-sessions";
           detail =
             Printf.sprintf "need at least 1 session, got %d" cfg.max_sessions;
         })
  else Serve_proto.validate_socket_path cfg.socket_path

let run ?(on_ready = fun () -> ()) ?(log = fun _ -> ()) cfg =
  let ( let* ) = Result.bind in
  let endpoint = cfg.socket_path in
  let* () = validate cfg in
  let* () = claim_socket_path cfg.socket_path in
  let* store =
    match cfg.store_dir with
    | None -> Ok None
    | Some dir ->
      let* st = Store.open_dir dir in
      Ok (Some st)
  in
  let close_store () = Option.iter Store.close store in
  let* engine =
    match
      Flm_error.guard ~what:"serve" (fun () ->
          Engine.create ~jobs:cfg.jobs ~config:cfg.engine_config ?store
            ~resume:cfg.resume ())
    with
    | Ok e -> Ok e
    | Error e ->
      close_store ();
      Error e
  in
  let reg = registry_create () in
  let server =
    {
      cfg;
      engine;
      metrics = Serve_metrics.create ();
      stop = Atomic.make false;
      sessions = (fun () -> live_sessions reg);
      log;
    }
  in
  let teardown_engine () =
    Engine.shutdown engine;
    close_store ()
  in
  let* listen_fd =
    match
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match
        Unix.bind fd (Unix.ADDR_UNIX cfg.socket_path);
        Unix.listen fd 64
      with
      | () -> fd
      | exception e ->
        close_quietly fd;
        raise e
    with
    | fd -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      teardown_engine ();
      Error
        (net ~endpoint
           (Printf.sprintf "cannot listen: %s" (Unix.error_message e)))
  in
  let restore_signals = install_signals server.stop in
  Fun.protect ~finally:restore_signals (fun () ->
      log
        (Printf.sprintf "listening on %s (jobs=%d, sessions<=%d, store=%s)"
           cfg.socket_path cfg.jobs cfg.max_sessions
           (match cfg.store_dir with Some d -> d | None -> "none"));
      on_ready ();
      accept_loop server reg listen_fd;
      (* Stop: no new sessions, drain the live ones, then release the
         engine's domains and the store. *)
      log "stop requested; draining sessions";
      close_quietly listen_fd;
      (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
      drain reg;
      let report = final_report server in
      let* () = Flm_error.guard ~what:"serve" teardown_engine in
      log "drained; engine and store closed";
      Ok report)
