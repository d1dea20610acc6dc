(* The framing layer and the versioned request/response schemas.  Parsing
   is strict by construction: every reader checks the protocol version,
   every required field's presence and type, size bounds, and rejects
   unknown fields — the wire is a contract, not a suggestion. *)

let protocol_version = 1
let max_frame_bytes = 1 lsl 20

(* --- strict JSON readers ------------------------------------------------- *)

let ( let* ) = Result.bind

module Read = Bench_json.Read

(* Every rejection reads "<document>: <detail>" on the wire. *)
let open_obj what json = Read.obj ~fail:(fun d -> what ^ ": " ^ d) json

let bounded o ~lo ~hi k i =
  if i < lo || i > hi then
    Read.fail o (Printf.sprintf "field %S must be in [%d, %d]" k lo hi)
  else Ok i

let check_version o =
  let* v = Read.int o "v" in
  if v <> protocol_version then
    Read.fail o
      (Printf.sprintf "protocol version %d, this peer speaks %d" v
         protocol_version)
  else Ok ()

let bool_opt_json = function
  | Some b -> Bench_json.Bool b
  | None -> Bench_json.Null

(* --- verdicts ------------------------------------------------------------ *)

module Verdict = struct
  type t =
    | Cell of Sweep.cell
    | Conn of (int * bool * bool option * bool option)
    | Cert of { contradiction : bool; summary : string }
    | Chaos of Job.chaos_outcome

  let of_job_verdict = function
    | Job.Cell c -> Cell c
    | Job.Conn r -> Conn r
    | Job.Cert o ->
      Cert { contradiction = o.Job.contradiction; summary = o.Job.summary }
    | Job.Chaos o -> Chaos o

  let to_json = function
    | Cell { Sweep.n; f; adequate; survived_attacks; certificate_broke_it } ->
      Bench_json.Obj
        [ "kind", Bench_json.String "cell";
          "n", Bench_json.Int n;
          "f", Bench_json.Int f;
          "adequate", Bench_json.Bool adequate;
          "survived_attacks", bool_opt_json survived_attacks;
          "certificate_broke_it", bool_opt_json certificate_broke_it;
        ]
    | Conn (kappa, adequate, relay_ok, certificate_broke_it) ->
      Bench_json.Obj
        [ "kind", Bench_json.String "conn";
          "kappa", Bench_json.Int kappa;
          "adequate", Bench_json.Bool adequate;
          "relay_ok", bool_opt_json relay_ok;
          "certificate_broke_it", bool_opt_json certificate_broke_it;
        ]
    | Cert { contradiction; summary } ->
      Bench_json.Obj
        [ "kind", Bench_json.String "cert";
          "contradiction", Bench_json.Bool contradiction;
          "summary", Bench_json.String summary;
        ]
    | Chaos { Job.trial; seed; strategy; faulty; survived; violations } ->
      Bench_json.Obj
        [ "kind", Bench_json.String "chaos";
          "trial", Bench_json.Int trial;
          "seed", Bench_json.Int seed;
          "strategy", Bench_json.String strategy;
          "faulty", Bench_json.List (List.map (fun u -> Bench_json.Int u) faulty);
          "survived", Bench_json.Bool survived;
          "violations",
          Bench_json.List (List.map (fun v -> Bench_json.String v) violations);
        ]

  let of_json json =
    let* o = open_obj "verdict" json in
    let* kind = Read.string o "kind" in
    match kind with
    | "cell" ->
      let* () =
        Read.only o
          [ "kind"; "n"; "f"; "adequate"; "survived_attacks";
            "certificate_broke_it" ]
      in
      let* n = Read.int o "n" in
      let* f = Read.int o "f" in
      let* adequate = Read.bool o "adequate" in
      let* survived_attacks = Read.bool_or_null o "survived_attacks" in
      let* certificate_broke_it = Read.bool_or_null o "certificate_broke_it" in
      Ok
        (Cell { Sweep.n; f; adequate; survived_attacks; certificate_broke_it })
    | "conn" ->
      let* () =
        Read.only o
          [ "kind"; "kappa"; "adequate"; "relay_ok"; "certificate_broke_it" ]
      in
      let* kappa = Read.int o "kappa" in
      let* adequate = Read.bool o "adequate" in
      let* relay_ok = Read.bool_or_null o "relay_ok" in
      let* broke = Read.bool_or_null o "certificate_broke_it" in
      Ok (Conn (kappa, adequate, relay_ok, broke))
    | "cert" ->
      let* () = Read.only o [ "kind"; "contradiction"; "summary" ] in
      let* contradiction = Read.bool o "contradiction" in
      let* summary = Read.string o "summary" in
      Ok (Cert { contradiction; summary })
    | "chaos" ->
      let* () =
        Read.only o
          [ "kind"; "trial"; "seed"; "strategy"; "faulty"; "survived";
            "violations" ]
      in
      let* trial = Read.int o "trial" in
      let* seed = Read.int o "seed" in
      let* strategy = Read.string o "strategy" in
      let* faulty = Read.ints o "faulty" in
      let* survived = Read.bool o "survived" in
      let* violations = Read.strings o "violations" in
      Ok (Chaos { Job.trial; seed; strategy; faulty; survived; violations })
    | k -> Read.fail o (Printf.sprintf "unknown kind %S" k)

  let equal a b =
    match a, b with
    | Cell c, Cell c' -> c = c'
    | Conn r, Conn r' -> r = r'
    | Cert c, Cert c' ->
      c.contradiction = c'.contradiction && String.equal c.summary c'.summary
    | Chaos o, Chaos o' -> o = o'
    | (Cell _ | Conn _ | Cert _ | Chaos _), _ -> false
end

(* --- typed errors on the wire -------------------------------------------- *)

let error_class = function
  | Flm_error.Invalid_input _ -> "invalid-input"
  | Flm_error.Job_failed _ -> "job-failed"
  | Flm_error.Job_timeout _ -> "job-timeout"
  | Flm_error.Worker_crashed _ -> "worker-crashed"
  | Flm_error.Axiom_violation _ -> "axiom-violation"
  | Flm_error.Store_corrupt _ -> "store-corrupt"
  | Flm_error.Net _ -> "net"

let error_to_json e =
  let s k v = k, Bench_json.String v in
  let fields =
    match e with
    | Flm_error.Invalid_input { what; detail } ->
      [ s "what" what; s "detail" detail ]
    | Flm_error.Job_failed { job; exn } -> [ s "job" job; s "exn" exn ]
    | Flm_error.Job_timeout { job; timeout_ms } ->
      [ s "job" job; ("timeout_ms", Bench_json.Int timeout_ms) ]
    | Flm_error.Worker_crashed { detail } -> [ s "detail" detail ]
    | Flm_error.Axiom_violation { axiom; detail } ->
      [ s "axiom" axiom; s "detail" detail ]
    | Flm_error.Store_corrupt { path; offset; detail } ->
      [ s "path" path; ("offset", Bench_json.Int offset); s "detail" detail ]
    | Flm_error.Net { endpoint; detail } ->
      [ s "endpoint" endpoint; s "detail" detail ]
  in
  Bench_json.Obj
    (("class", Bench_json.String (error_class e))
    :: ("exit_code", Bench_json.Int (Flm_error.exit_code e))
    :: fields)

let error_of_json json =
  let* o = open_obj "error" json in
  let* cls = Read.string o "class" in
  let* _ = Read.int o "exit_code" in
  let str = Read.string o in
  let only allowed = Read.only o ("class" :: "exit_code" :: allowed) in
  match cls with
  | "invalid-input" ->
    let* () = only [ "what"; "detail" ] in
    let* w = str "what" in
    let* detail = str "detail" in
    Ok (Flm_error.Invalid_input { what = w; detail })
  | "job-failed" ->
    let* () = only [ "job"; "exn" ] in
    let* job = str "job" in
    let* exn = str "exn" in
    Ok (Flm_error.Job_failed { job; exn })
  | "job-timeout" ->
    let* () = only [ "job"; "timeout_ms" ] in
    let* job = str "job" in
    let* timeout_ms = Read.int o "timeout_ms" in
    Ok (Flm_error.Job_timeout { job; timeout_ms })
  | "worker-crashed" ->
    let* () = only [ "detail" ] in
    let* detail = str "detail" in
    Ok (Flm_error.Worker_crashed { detail })
  | "axiom-violation" ->
    let* () = only [ "axiom"; "detail" ] in
    let* axiom = str "axiom" in
    let* detail = str "detail" in
    Ok (Flm_error.Axiom_violation { axiom; detail })
  | "store-corrupt" ->
    let* () = only [ "path"; "offset"; "detail" ] in
    let* path = str "path" in
    let* offset = Read.int o "offset" in
    let* detail = str "detail" in
    Ok (Flm_error.Store_corrupt { path; offset; detail })
  | "net" ->
    let* () = only [ "endpoint"; "detail" ] in
    let* endpoint = str "endpoint" in
    let* detail = str "detail" in
    Ok (Flm_error.Net { endpoint; detail })
  | c -> Read.fail o (Printf.sprintf "unknown class %S" c)

module Slot = struct
  type t = (Verdict.t, Flm_error.t) result

  let to_json = function
    | Ok v -> Verdict.to_json v
    | Error e ->
      Bench_json.Obj
        [ "kind", Bench_json.String "error"; "error", error_to_json e ]

  let of_json json =
    let* o = open_obj "slot" json in
    let* kind = Read.string o "kind" in
    match kind with
    | "error" ->
      let* () = Read.only o [ "kind"; "error" ] in
      let* ej = Read.field o "error" in
      let* e = error_of_json ej in
      Ok (Error e)
    | _ ->
      let* v = Verdict.of_json json in
      Ok (Ok v)
end

(* --- health -------------------------------------------------------------- *)

(* The health/readiness document answered to a [Ping] request.  Served
   straight off the daemon's counters — never touches the engine's work
   queues — so it stays answerable while every session is busy, and keeps
   being answered (with [draining = true]) during a SIGTERM drain, when
   every other op would be refused. *)
module Ping = struct
  type t = {
    draining : bool;
    sessions : int;  (** live session domains *)
    max_sessions : int;
    requests : int;  (** total requests answered so far *)
    ok : int;
    failed : int;
    jobs : int;  (** engine worker domains *)
    store_attached : bool;
  }

  let to_json t =
    Bench_json.Obj
      [ "draining", Bench_json.Bool t.draining;
        "sessions", Bench_json.Int t.sessions;
        "max_sessions", Bench_json.Int t.max_sessions;
        "requests", Bench_json.Int t.requests;
        "ok", Bench_json.Int t.ok;
        "failed", Bench_json.Int t.failed;
        "jobs", Bench_json.Int t.jobs;
        "store_attached", Bench_json.Bool t.store_attached;
      ]

  let of_json json =
    let* o = open_obj "ping" json in
    let* () =
      Read.only o
        [ "draining"; "sessions"; "max_sessions"; "requests"; "ok"; "failed";
          "jobs"; "store_attached" ]
    in
    let* draining = Read.bool o "draining" in
    let* sessions = Read.int o "sessions" in
    let* max_sessions = Read.int o "max_sessions" in
    let* requests = Read.int o "requests" in
    let* ok = Read.int o "ok" in
    let* failed = Read.int o "failed" in
    let* jobs = Read.int o "jobs" in
    let* store_attached = Read.bool o "store_attached" in
    Ok { draining; sessions; max_sessions; requests; ok; failed; jobs;
         store_attached }
end

(* --- requests ------------------------------------------------------------ *)

module Request = struct
  type op =
    | Certify of { problem : Job.cert_problem; n : int; f : int }
    | Chaos of {
        family : string;
        f : int;
        seed : int;
        strategy : string;
        trials : int;
      }
    | Sweep of { n_max : int; f_max : int }
    | Store_stat
    | Stats
    | Ping

  type t = { op : op; timeout_ms : int option }

  let label t =
    match t.op with
    | Certify _ -> "certify"
    | Chaos _ -> "chaos"
    | Sweep _ -> "sweep"
    | Store_stat -> "store-stat"
    | Stats -> "stats"
    | Ping -> "ping"

  let to_json t =
    let base =
      match t.op with
      | Certify { problem; n; f } ->
        [ "op", Bench_json.String "certify";
          "problem", Bench_json.String (Job.cert_problem_name problem);
          "n", Bench_json.Int n;
          "f", Bench_json.Int f;
        ]
      | Chaos { family; f; seed; strategy; trials } ->
        [ "op", Bench_json.String "chaos";
          "family", Bench_json.String family;
          "f", Bench_json.Int f;
          "seed", Bench_json.Int seed;
          "strategy", Bench_json.String strategy;
          "trials", Bench_json.Int trials;
        ]
      | Sweep { n_max; f_max } ->
        [ "op", Bench_json.String "sweep";
          "n_max", Bench_json.Int n_max;
          "f_max", Bench_json.Int f_max;
        ]
      | Store_stat -> [ "op", Bench_json.String "store-stat" ]
      | Stats -> [ "op", Bench_json.String "stats" ]
      | Ping -> [ "op", Bench_json.String "ping" ]
    in
    let timeout =
      match t.timeout_ms with
      | Some ms -> [ "timeout_ms", Bench_json.Int ms ]
      | None -> []
    in
    Bench_json.Obj ((("v", Bench_json.Int protocol_version) :: base) @ timeout)

  (* Size bounds: big enough for every workload the batch CLI serves today,
     small enough that one request cannot wedge the daemon. *)
  let max_sweep_n = 32
  let max_sweep_f = 8
  let max_trials = 10_000
  let max_timeout_ms = 3_600_000
  let max_size = 4096

  let of_json json =
    let* o = open_obj "request" json in
    let* () = check_version o in
    let* op = Read.string o "op" in
    let* timeout_ms = Read.int_opt o "timeout_ms" in
    let* timeout_ms =
      match timeout_ms with
      | None -> Ok None
      | Some ms ->
        let* ms = bounded o ~lo:1 ~hi:max_timeout_ms "timeout_ms" ms in
        Ok (Some ms)
    in
    let* op =
      match op with
      | "certify" ->
        let* () = Read.only o [ "v"; "op"; "timeout_ms"; "problem"; "n"; "f" ] in
        let* p = Read.string o "problem" in
        let* problem =
          match Job.cert_problem_of_string p with
          | Some problem -> Ok problem
          | None ->
            Read.fail o
              (Printf.sprintf
                 "unknown certify problem %S (servable: ba, ba-collapse, \
                  ba-conn)"
                 p)
        in
        let* n = Read.int o "n" in
        let* n = bounded o ~lo:0 ~hi:max_size "n" n in
        let* f = Read.int o "f" in
        let* f = bounded o ~lo:0 ~hi:max_size "f" f in
        Ok (Certify { problem; n; f })
      | "chaos" ->
        let* () =
          Read.only o
            [ "v"; "op"; "timeout_ms"; "family"; "f"; "seed"; "strategy";
              "trials" ]
        in
        let* family = Read.string o "family" in
        let* f = Read.int o "f" in
        let* f = bounded o ~lo:0 ~hi:max_size "f" f in
        let* seed = Read.int o "seed" in
        let* strategy = Read.string o "strategy" in
        let* trials = Read.int o "trials" in
        let* trials = bounded o ~lo:1 ~hi:max_trials "trials" trials in
        Ok (Chaos { family; f; seed; strategy; trials })
      | "sweep" ->
        let* () = Read.only o [ "v"; "op"; "timeout_ms"; "n_max"; "f_max" ] in
        let* n_max = Read.int o "n_max" in
        let* n_max = bounded o ~lo:3 ~hi:max_sweep_n "n_max" n_max in
        let* f_max = Read.int o "f_max" in
        let* f_max = bounded o ~lo:1 ~hi:max_sweep_f "f_max" f_max in
        Ok (Sweep { n_max; f_max })
      | "store-stat" ->
        let* () = Read.only o [ "v"; "op"; "timeout_ms" ] in
        Ok Store_stat
      | "stats" ->
        let* () = Read.only o [ "v"; "op"; "timeout_ms" ] in
        Ok Stats
      | "ping" ->
        let* () = Read.only o [ "v"; "op"; "timeout_ms" ] in
        Ok Ping
      | op -> Read.fail o (Printf.sprintf "unknown op %S" op)
    in
    Ok { op; timeout_ms }
end

(* --- responses ----------------------------------------------------------- *)

module Response = struct
  type t = Result of Bench_json.t | Failed of Flm_error.t

  let to_json = function
    | Result payload ->
      Bench_json.Obj
        [ "v", Bench_json.Int protocol_version;
          "status", Bench_json.String "ok";
          "result", payload;
        ]
    | Failed e ->
      Bench_json.Obj
        [ "v", Bench_json.Int protocol_version;
          "status", Bench_json.String "error";
          "error", error_to_json e;
        ]

  let of_json json =
    let* o = open_obj "response" json in
    let* () = check_version o in
    let* status = Read.string o "status" in
    match status with
    | "ok" ->
      let* () = Read.only o [ "v"; "status"; "result" ] in
      let* payload = Read.field o "result" in
      Ok (Result payload)
    | "error" ->
      let* () = Read.only o [ "v"; "status"; "error" ] in
      let* ej = Read.field o "error" in
      let* e = error_of_json ej in
      Ok (Failed e)
    | s -> Read.fail o (Printf.sprintf "unknown status %S" s)
end

(* --- socket addresses ----------------------------------------------------- *)

let net = Flm_error.net

(* [sun_path] is a fixed ~108-byte kernel buffer (104 on some BSDs); a
   longer path would be truncated or refused with a bare EINVAL deep inside
   [bind]/[connect].  Both ends validate up front instead, with the limit
   and the offending length in the message. *)
let max_socket_path = 103

let validate_socket_path path =
  let n = String.length path in
  if n = 0 then Error (net ~endpoint:path "socket path is empty")
  else if n > max_socket_path then
    Error
      (net ~endpoint:path
         (Printf.sprintf
            "socket path is %d bytes; unix sun_path holds at most %d — use a \
             shorter path (e.g. under /tmp)"
            n max_socket_path))
  else Ok ()

(* --- framing over file descriptors --------------------------------------- *)

let rec retry_intr f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_intr f

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

type input = Frame of string | Eof

(* Read exactly [n] bytes, or report how the connection ended instead. *)
let read_exact ~endpoint fd buf off n =
  let rec go off remaining =
    if remaining = 0 then Ok ()
    else
      match retry_intr (fun () -> Unix.read fd buf off remaining) with
      | 0 -> Error (net ~endpoint "connection closed mid-frame")
      | k -> go (off + k) (remaining - k)
      | exception Unix.Unix_error (e, _, _) ->
        Error
          (net ~endpoint
             (Printf.sprintf "read failed: %s" (Unix.error_message e)))
  in
  go off n

let read_frame ~endpoint fd =
  let header = Bytes.create 4 in
  (* The first header byte distinguishes an orderly EOF from a torn frame. *)
  match retry_intr (fun () -> Unix.read fd header 0 4) with
  | 0 -> Ok Eof
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (net ~endpoint (Printf.sprintf "read failed: %s" (Unix.error_message e)))
  | k -> (
    let* () = read_exact ~endpoint fd header k (4 - k) in
    let len = Int32.to_int (Bytes.get_int32_be header 0) in
    if len <= 0 || len > max_frame_bytes then
      Error
        (net ~endpoint
           (Printf.sprintf
              "invalid frame length %d (frames carry 1..%d payload bytes)" len
              max_frame_bytes))
    else
      let payload = Bytes.create len in
      let* () = read_exact ~endpoint fd payload 0 len in
      Ok (Frame (Bytes.unsafe_to_string payload)))

let write_frame ~endpoint fd payload =
  let bytes = frame payload in
  let total = String.length bytes in
  let rec go off =
    if off = total then Ok ()
    else
      match
        retry_intr (fun () -> Unix.write_substring fd bytes off (total - off))
      with
      | 0 -> Error (net ~endpoint "write made no progress")
      | k -> go (off + k)
      | exception Unix.Unix_error (e, _, _) ->
        Error
          (net ~endpoint
             (Printf.sprintf "write failed: %s" (Unix.error_message e)))
  in
  go 0
