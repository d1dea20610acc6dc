(* End-to-end smoke of the serve subsystem, driving a real daemon over a
   real Unix socket:

   - protocol hygiene: a framing violation is refused with a typed Net
     error and closes the connection; a malformed document is answered
     and the connection stays usable;
   - fidelity: certify/sweep/chaos answers are byte-identical to running
     the same jobs in batch mode (same projection, same printer);
   - coalescing: concurrent identical certify requests are computed once
     (the engine's single-flight dedup counter moves);
   - overload: a connection past max-sessions is refused, not queued;
   - shutdown: SIGTERM lets the in-flight request finish, answers it,
     drains, and leaves a journal with zero corrupt records.

   Run via the @serve-smoke alias (wired into @runtest). *)

let failures = ref 0

let check name ok =
  if ok then Printf.printf "serve_smoke: ok: %s\n%!" name
  else begin
    incr failures;
    Printf.eprintf "serve_smoke: FAIL: %s\n%!" name
  end

let tmpdir =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "flm_serve_smoke_%d" (Unix.getpid ()))

let socket_path = Filename.concat tmpdir "flm.sock"
let store_dir = Filename.concat tmpdir "store"

let connect () =
  match Serve_client.connect ~socket_path () with
  | Ok c -> c
  | Error e ->
    Printf.eprintf "serve_smoke: cannot connect: %s\n%!" (Flm_error.to_string e);
    exit 1

let req op = { Serve_proto.Request.op; timeout_ms = None }

(* The batch-mode reference: the same job run in this process, projected
   and printed by the same codec the daemon uses. *)
let local_verdict spec =
  Bench_json.to_string
    (Serve_proto.Verdict.to_json
       (Serve_proto.Verdict.of_job_verdict (Job.run spec)))

let daemon_json client op =
  match Serve_client.result client (req op) with
  | Ok doc -> Ok (Bench_json.to_string doc)
  | Error e -> Error e

let raw_connect () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  fd

let read_response fd =
  match Serve_proto.read_frame ~endpoint:"smoke" fd with
  | Ok (Serve_proto.Frame s) -> (
    match Bench_json.parse s with
    | Ok json -> Serve_proto.Response.of_json json
    | Error e -> Error e)
  | Ok Serve_proto.Eof -> Error "eof"
  | Error e -> Error (Flm_error.to_string e)

let int_at path doc =
  let rec go path doc =
    match path with
    | [] -> Bench_json.to_int_opt doc
    | k :: rest -> (
      match Bench_json.member k doc with Some v -> go rest v | None -> None)
  in
  Option.value ~default:(-1) (go path doc)

let () =
  (try Unix.mkdir tmpdir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let ready = Atomic.make false in
  let cfg =
    {
      Serve.socket_path;
      jobs = 2;
      store_dir = Some store_dir;
      resume = false;
      max_sessions = 4;
      engine_config = Engine.default_config;
    }
  in
  let daemon =
    Domain.spawn (fun () ->
        Serve.run ~on_ready:(fun () -> Atomic.set ready true) cfg)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  check "daemon ready" (Atomic.get ready);

  (* (a) Framing violation: a zero length prefix is answered with a typed
     Net error and the connection is closed — it cannot resynchronize. *)
  let fd = raw_connect () in
  ignore (Unix.write fd (Bytes.make 4 '\000') 0 4);
  (match read_response fd with
  | Ok (Serve_proto.Response.Failed (Flm_error.Net _)) ->
    check "framing violation refused with Net" true
  | _ -> check "framing violation refused with Net" false);
  (match Serve_proto.read_frame ~endpoint:"smoke" fd with
  | Ok Serve_proto.Eof -> check "connection closed after framing error" true
  | _ -> check "connection closed after framing error" false);
  Unix.close fd;

  (* (b) Malformed document: answered with Net, and the same connection
     then serves a valid request. *)
  let fd = raw_connect () in
  (match Serve_proto.write_frame ~endpoint:"smoke" fd "this is not json" with
  | Ok () -> ()
  | Error e ->
    check ("write malformed doc: " ^ Flm_error.to_string e) false);
  (match read_response fd with
  | Ok (Serve_proto.Response.Failed (Flm_error.Net _)) ->
    check "malformed document answered with Net" true
  | _ -> check "malformed document answered with Net" false);
  (match
     Serve_proto.write_frame ~endpoint:"smoke" fd
       (Bench_json.to_string
          (Serve_proto.Request.to_json (req Serve_proto.Request.Stats)))
   with
  | Ok () -> ()
  | Error _ -> check "stats after malformed doc" false);
  (match read_response fd with
  | Ok (Serve_proto.Response.Result _) ->
    check "connection survives a malformed document" true
  | _ -> check "connection survives a malformed document" false);
  Unix.close fd;

  (* (b') Version mismatch: a well-formed document speaking tomorrow's
     protocol is answered with a typed Net error naming both versions, and
     the connection stays usable — a skewed client gets told, not cut. *)
  let fd = raw_connect () in
  (match
     Serve_proto.write_frame ~endpoint:"smoke" fd
       (Bench_json.to_string
          (Bench_json.Obj
             [ "v", Bench_json.Int (Serve_proto.protocol_version + 1);
               "op", Bench_json.String "stats";
             ]))
   with
  | Ok () -> ()
  | Error e -> check ("write version-mismatch doc: " ^ Flm_error.to_string e) false);
  (match read_response fd with
  | Ok (Serve_proto.Response.Failed (Flm_error.Net { detail; _ })) ->
    check "version mismatch answered with Net naming the version"
      (let needle = Printf.sprintf "version %d" (Serve_proto.protocol_version + 1) in
       let rec has i =
         i + String.length needle <= String.length detail
         && (String.sub detail i (String.length needle) = needle || has (i + 1))
       in
       has 0)
  | _ -> check "version mismatch answered with Net naming the version" false);
  (match
     Serve_proto.write_frame ~endpoint:"smoke" fd
       (Bench_json.to_string
          (Serve_proto.Request.to_json (req Serve_proto.Request.Stats)))
   with
  | Ok () -> ()
  | Error _ -> check "stats after version mismatch" false);
  (match read_response fd with
  | Ok (Serve_proto.Response.Result _) ->
    check "connection survives a version mismatch" true
  | _ -> check "connection survives a version mismatch" false);
  Unix.close fd;

  (* (a') Oversized frame: a length prefix past max_frame_bytes is refused
     with a typed Net error and the connection is closed — the daemon will
     not allocate on an attacker's say-so, and cannot resynchronize. *)
  let fd = raw_connect () in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (Serve_proto.max_frame_bytes + 1));
  ignore (Unix.write fd header 0 4);
  (match read_response fd with
  | Ok (Serve_proto.Response.Failed (Flm_error.Net _)) ->
    check "oversized frame refused with Net" true
  | _ -> check "oversized frame refused with Net" false);
  (match Serve_proto.read_frame ~endpoint:"smoke" fd with
  | Ok Serve_proto.Eof -> check "connection closed after oversized frame" true
  | _ -> check "connection closed after oversized frame" false);
  Unix.close fd;

  (* (c) Byte-identical verdicts vs batch mode. *)
  let c = connect () in
  (match
     daemon_json c
       (Serve_proto.Request.Certify { problem = Job.Ba; n = 3; f = 1 })
   with
  | Ok got ->
    check "certify byte-identical to batch"
      (got = local_verdict (Job.Certify { problem = Job.Ba; n = 3; f = 1 }))
  | Error _ -> check "certify byte-identical to batch" false);
  (match daemon_json c (Serve_proto.Request.Sweep { n_max = 6; f_max = 2 }) with
  | Ok got ->
    let local =
      Bench_json.to_string
        (Bench_json.List
           (List.map
              (fun cell ->
                Serve_proto.Verdict.to_json (Serve_proto.Verdict.Cell cell))
              (Sweep.nf_boundary ~n_max:6 ~f_max:2)))
    in
    check "sweep byte-identical to batch" (got = local)
  | Error _ -> check "sweep byte-identical to batch" false);
  let family = "complete:5" and cseed = 7 and strategy = "drop" in
  (match
     daemon_json c
       (Serve_proto.Request.Chaos
          { family; f = 1; seed = cseed; strategy; trials = 4 })
   with
  | Ok got ->
    let local =
      Bench_json.to_string
        (Bench_json.List
           (List.init 4 (fun trial ->
                Serve_proto.Slot.to_json
                  (Ok
                     (Serve_proto.Verdict.of_job_verdict
                        (Job.run
                           (Job.Chaos_trial
                              { family; f = 1; seed = cseed; strategy; trial })))))))
    in
    check "chaos byte-identical to batch" (got = local)
  | Error _ -> check "chaos byte-identical to batch" false);
  Serve_client.close c;

  (* (d) Coalescing: four clients fire the same fresh ~0.4 s certify at
     once; the engine computes it once and the rest join the flight.  While
     those four sessions are busy, a fifth connection must be refused. *)
  let slow = Job.Certify { problem = Job.Ba; n = 8; f = 4 } in
  let barrier = Atomic.make 0 in
  let clients =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let c = connect () in
            Atomic.incr barrier;
            while Atomic.get barrier < 4 do
              Domain.cpu_relax ()
            done;
            let r =
              daemon_json c
                (Serve_proto.Request.Certify
                   { problem = Job.Ba; n = 8; f = 4 })
            in
            Serve_client.close c;
            r))
  in
  while Atomic.get barrier < 4 do
    Unix.sleepf 0.005
  done;
  Unix.sleepf 0.05;
  let refused =
    match Serve_client.connect ~socket_path () with
    | Error (Flm_error.Net _) -> true
    | Error _ -> false
    | Ok c5 -> (
      let r = Serve_client.result c5 (req Serve_proto.Request.Stats) in
      Serve_client.close c5;
      match r with Error (Flm_error.Net _) -> true | Ok _ | Error _ -> false)
  in
  check "overload: fifth session refused with Net" refused;
  let answers = List.map Domain.join clients in
  let reference = local_verdict slow in
  check "coalesced answers all byte-identical to batch"
    (List.for_all (function Ok s -> s = reference | Error _ -> false) answers);

  (* (e) Counters: the flight was joined, the refusal was counted. *)
  let c = connect () in
  (match Serve_client.result c (req Serve_proto.Request.Stats) with
  | Ok doc ->
    check "stats: coalesced > 0" (int_at [ "engine"; "coalesced" ] doc > 0);
    check "stats: overload counted"
      (int_at [ "server"; "rejected_overload" ] doc > 0);
    check "stats: latency samples present"
      (int_at [ "server"; "latency_count" ] doc > 0)
  | Error _ -> check "stats request" false);
  (match Serve_client.result c (req Serve_proto.Request.Store_stat) with
  | Ok doc -> check "store-stat: journaled verdicts" (int_at [ "live" ] doc > 0)
  | Error _ -> check "store-stat request" false);
  Serve_client.close c;

  (* (f) SIGTERM drain: a ~1.4 s certify is in flight when the signal
     lands; the session finishes it, answers, and the daemon shuts down
     with an intact journal and an unlinked socket. *)
  let late =
    Domain.spawn (fun () ->
        let c = connect () in
        let r =
          daemon_json c
            (Serve_proto.Request.Certify { problem = Job.Ba; n = 8; f = 3 })
        in
        Serve_client.close c;
        r)
  in
  Unix.sleepf 0.3;
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  (match Domain.join late with
  | Ok got ->
    check "in-flight request answered across SIGTERM"
      (got = local_verdict (Job.Certify { problem = Job.Ba; n = 8; f = 3 }))
  | Error _ -> check "in-flight request answered across SIGTERM" false);
  (match Domain.join daemon with
  | Ok report -> check "daemon drained to a report" (String.length report > 0)
  | Error e ->
    check ("daemon drained cleanly: " ^ Flm_error.to_string e) false);
  check "socket unlinked on shutdown" (not (Sys.file_exists socket_path));
  (match Store.verify store_dir with
  | Ok (records, []) -> check "journal intact after drain" (records > 0)
  | Ok (_, cs) ->
    check
      (Printf.sprintf "journal intact after drain (%d corrupt)"
         (List.length cs))
      false
  | Error e ->
    check ("journal intact after drain: " ^ Flm_error.to_string e) false);

  if !failures > 0 then exit 1;
  print_endline "serve_smoke: OK"
