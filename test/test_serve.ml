(* The serve wire protocol, without a daemon: schema round-trips for every
   request op, verdict kind, and error class; strict-validation rejections
   (unknown fields, wrong version, out-of-range sizes); and the length
   framing over a real pipe, including the violations that must be typed
   as Net errors. *)

let check = Alcotest.check
let tstring = Alcotest.string

let json_str j = Bench_json.to_string j

let roundtrip_request r =
  match Serve_proto.Request.of_json (Serve_proto.Request.to_json r) with
  | Ok r' ->
    check tstring
      (Printf.sprintf "request %s round-trips" (Serve_proto.Request.label r))
      (json_str (Serve_proto.Request.to_json r))
      (json_str (Serve_proto.Request.to_json r'))
  | Error e -> Alcotest.failf "request failed to round-trip: %s" e

let requests () =
  List.iter roundtrip_request
    [ {
        Serve_proto.Request.op =
          Serve_proto.Request.Certify { problem = Job.Ba; n = 3; f = 1 };
        timeout_ms = None;
      };
      {
        Serve_proto.Request.op =
          Serve_proto.Request.Certify
            { problem = Job.Ba_collapse; n = 5; f = 2 };
        timeout_ms = Some 250;
      };
      {
        Serve_proto.Request.op =
          Serve_proto.Request.Chaos
            {
              family = "harary:3:7";
              f = 1;
              seed = 42;
              strategy = "chaos";
              trials = 10;
            };
        timeout_ms = None;
      };
      {
        Serve_proto.Request.op = Serve_proto.Request.Sweep { n_max = 8; f_max = 2 };
        timeout_ms = Some 60_000;
      };
      { Serve_proto.Request.op = Serve_proto.Request.Store_stat; timeout_ms = None };
      { Serve_proto.Request.op = Serve_proto.Request.Stats; timeout_ms = None };
      { Serve_proto.Request.op = Serve_proto.Request.Ping; timeout_ms = None };
    ]

let ping_payload () =
  let p =
    {
      Serve_proto.Ping.draining = true;
      sessions = 3;
      max_sessions = 16;
      requests = 101;
      ok = 99;
      failed = 2;
      jobs = 4;
      store_attached = false;
    }
  in
  (match Serve_proto.Ping.of_json (Serve_proto.Ping.to_json p) with
  | Ok p' ->
    check Alcotest.bool "ping round-trips" true (p = p')
  | Error e -> Alcotest.failf "ping failed to round-trip: %s" e);
  (* Strict like every other document: unknown fields rejected. *)
  match
    Serve_proto.Ping.of_json
      (match Serve_proto.Ping.to_json p with
      | Bench_json.Obj fields ->
        Bench_json.Obj (("extra", Bench_json.Int 1) :: fields)
      | j -> j)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown ping field should be rejected"

let socket_paths () =
  (match Serve_proto.validate_socket_path "/tmp/ok.sock" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "short path rejected: %s" (Flm_error.to_string e));
  (match Serve_proto.validate_socket_path "" with
  | Error (Flm_error.Net _) -> ()
  | _ -> Alcotest.fail "empty path should be a typed Net error");
  let long = "/tmp/" ^ String.make (Serve_proto.max_socket_path + 1) 'x' in
  (match Serve_proto.validate_socket_path long with
  | Error (Flm_error.Net { detail; _ }) ->
    check Alcotest.bool "over-long detail names the limit" true
      (let needle = string_of_int Serve_proto.max_socket_path in
       let rec find i =
         i + String.length needle <= String.length detail
         && (String.sub detail i (String.length needle) = needle || find (i + 1))
       in
       find 0)
  | _ -> Alcotest.fail "over-long path should be a typed Net error");
  (* The boundary value passes. *)
  match Serve_proto.validate_socket_path (String.make Serve_proto.max_socket_path 'y') with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "boundary-length path rejected: %s" (Flm_error.to_string e)

let expect_reject what json =
  match Serve_proto.Request.of_json json with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected a strict rejection" what

let strictness () =
  let obj fields = Bench_json.Obj fields in
  let v = "v", Bench_json.Int Serve_proto.protocol_version in
  let op o = "op", Bench_json.String o in
  (* wrong version *)
  expect_reject "wrong version"
    (obj [ "v", Bench_json.Int 99; op "stats" ]);
  (* missing version *)
  expect_reject "missing version" (obj [ op "stats" ]);
  (* unknown op *)
  expect_reject "unknown op" (obj [ v; op "frobnicate" ]);
  (* unknown field: a misspelled option must never be silently ignored *)
  expect_reject "unknown field"
    (obj [ v; op "stats"; "timeout", Bench_json.Int 5 ]);
  (* missing required field *)
  expect_reject "missing field"
    (obj [ v; op "sweep"; "n_max", Bench_json.Int 6 ]);
  (* out-of-range sizes *)
  expect_reject "oversized sweep"
    (obj
       [ v; op "sweep"; "n_max", Bench_json.Int 1000; "f_max", Bench_json.Int 1 ]);
  expect_reject "zero trials"
    (obj
       [ v; op "chaos";
         "family", Bench_json.String "complete:4";
         "f", Bench_json.Int 1;
         "seed", Bench_json.Int 1;
         "strategy", Bench_json.String "drop";
         "trials", Bench_json.Int 0;
       ]);
  expect_reject "zero timeout"
    (obj [ v; op "stats"; "timeout_ms", Bench_json.Int 0 ]);
  expect_reject "unknown problem"
    (obj
       [ v; op "certify";
         "problem", Bench_json.String "weak";
         "n", Bench_json.Int 3;
         "f", Bench_json.Int 1;
       ]);
  (* not an object at all *)
  expect_reject "not an object" (Bench_json.List [])

let verdicts () =
  let roundtrip v =
    match Serve_proto.Verdict.of_json (Serve_proto.Verdict.to_json v) with
    | Ok v' ->
      check Alcotest.bool "verdict round-trips" true
        (Serve_proto.Verdict.equal v v')
    | Error e -> Alcotest.failf "verdict failed to round-trip: %s" e
  in
  roundtrip
    (Serve_proto.Verdict.Cell
       {
         Sweep.n = 4;
         f = 1;
         adequate = true;
         survived_attacks = Some true;
         certificate_broke_it = None;
       });
  roundtrip (Serve_proto.Verdict.Conn (3, true, Some true, None));
  roundtrip
    (Serve_proto.Verdict.Cert
       { contradiction = true; summary = "CONTRADICTION in E3" });
  roundtrip
    (Serve_proto.Verdict.Chaos
       {
         Job.trial = 2;
         seed = 42;
         strategy = "2:crash@3";
         faulty = [ 2 ];
         survived = false;
         violations = [ "agreement: nodes 0,1 decided differently" ];
       });
  (* A verdict projected from a live job round-trips too. *)
  let v =
    Serve_proto.Verdict.of_job_verdict
      (Job.run (Job.Certify { problem = Job.Ba; n = 3; f = 1 }))
  in
  roundtrip v

let errors () =
  List.iter
    (fun e ->
      match Serve_proto.error_of_json (Serve_proto.error_to_json e) with
      | Ok e' ->
        check Alcotest.bool
          (Printf.sprintf "error %s round-trips" (Flm_error.to_string e))
          true (Flm_error.equal e e')
      | Error m -> Alcotest.failf "error failed to round-trip: %s" m)
    [ Flm_error.Invalid_input { what = "n"; detail = "negative" };
      Flm_error.Job_failed { job = "cert"; exn = "Boom" };
      Flm_error.Job_timeout { job = "cert"; timeout_ms = 5 };
      Flm_error.Worker_crashed { detail = "lost domain" };
      Flm_error.Axiom_violation { axiom = "locality"; detail = "peeked" };
      Flm_error.Store_corrupt { path = "j.flm"; offset = 17; detail = "crc" };
      Flm_error.Net { endpoint = "/tmp/s.sock"; detail = "refused" };
    ];
  (* The wire carries the class's stable exit code alongside the payload. *)
  let e = Flm_error.Net { endpoint = "s"; detail = "d" } in
  match Serve_proto.error_to_json e with
  | Bench_json.Obj fields ->
    check Alcotest.(option int) "exit_code on the wire"
      (Some (Flm_error.exit_code e))
      (Option.bind (List.assoc_opt "exit_code" fields) Bench_json.to_int_opt)
  | _ -> Alcotest.fail "error_to_json should produce an object"

let responses () =
  let roundtrip r =
    match Serve_proto.Response.of_json (Serve_proto.Response.to_json r) with
    | Ok r' ->
      check tstring "response round-trips"
        (json_str (Serve_proto.Response.to_json r))
        (json_str (Serve_proto.Response.to_json r'))
    | Error e -> Alcotest.failf "response failed to round-trip: %s" e
  in
  roundtrip (Serve_proto.Response.Result (Bench_json.Int 7));
  roundtrip
    (Serve_proto.Response.Failed
       (Flm_error.Job_timeout { job = "sweep"; timeout_ms = 9 }));
  (* Unknown status strings fail closed. *)
  match
    Serve_proto.Response.of_json
      (Bench_json.Obj
         [ "v", Bench_json.Int Serve_proto.protocol_version;
           "status", Bench_json.String "maybe";
         ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown status should be rejected"

let framing () =
  let rd, wr = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close rd with Unix.Unix_error _ -> ());
      try Unix.close wr with Unix.Unix_error _ -> ())
    (fun () ->
      (* A frame written is the frame read. *)
      (match Serve_proto.write_frame ~endpoint:"pipe" wr "hello" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" (Flm_error.to_string e));
      (match Serve_proto.read_frame ~endpoint:"pipe" rd with
      | Ok (Serve_proto.Frame s) -> check tstring "payload" "hello" s
      | _ -> Alcotest.fail "expected a frame");
      (* The length prefix is 4-byte big-endian. *)
      check tstring "frame bytes" "\x00\x00\x00\x02ab" (Serve_proto.frame "ab");
      (* A zero length prefix is a typed protocol violation. *)
      ignore (Unix.write wr (Bytes.make 4 '\000') 0 4);
      (match Serve_proto.read_frame ~endpoint:"pipe" rd with
      | Error (Flm_error.Net _) -> ()
      | _ -> Alcotest.fail "zero-length frame should be a Net error");
      (* An oversized length prefix likewise. *)
      let b = Bytes.create 4 in
      Bytes.set_int32_be b 0 (Int32.of_int (Serve_proto.max_frame_bytes + 1));
      ignore (Unix.write wr b 0 4);
      (match Serve_proto.read_frame ~endpoint:"pipe" rd with
      | Error (Flm_error.Net _) -> ()
      | _ -> Alcotest.fail "oversized frame should be a Net error");
      (* A connection dying mid-frame is a Net error, not an Eof. *)
      ignore
        (Unix.write_substring wr (Serve_proto.frame "truncated") 0 7);
      Unix.close wr;
      (match Serve_proto.read_frame ~endpoint:"pipe" rd with
      | Error (Flm_error.Net _) -> ()
      | _ -> Alcotest.fail "mid-frame death should be a Net error");
      (* An orderly close before any byte is Eof. *)
      let rd2, wr2 = Unix.pipe () in
      Unix.close wr2;
      (match Serve_proto.read_frame ~endpoint:"pipe" rd2 with
      | Ok Serve_proto.Eof -> ()
      | _ -> Alcotest.fail "clean close should be Eof");
      Unix.close rd2;
      (* A close mid-header (2 of 4 length bytes) is a Net error too. *)
      let rd3, wr3 = Unix.pipe () in
      ignore (Unix.write_substring wr3 (Serve_proto.frame "x") 0 2);
      Unix.close wr3;
      (match Serve_proto.read_frame ~endpoint:"pipe" rd3 with
      | Error (Flm_error.Net _) -> ()
      | _ -> Alcotest.fail "mid-header death should be a Net error");
      Unix.close rd3)

(* A transport failure mid-response leaves the stream in an undefined
   framing state; the client handle must poison itself and fail fast from
   then on, never reading desynchronized bytes as frames.  Served by a
   minimal in-process accept: Unix streams buffer a whole small frame, so
   no concurrency is needed. *)
let client_poisoning () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "flm_poison_%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind listen_fd (Unix.ADDR_UNIX path);
      Unix.listen listen_fd 1;
      let client =
        match Serve_client.connect ~timeout_ms:2_000 ~socket_path:path () with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect: %s" (Flm_error.to_string e)
      in
      let server_fd, _ = Unix.accept listen_fd in
      check Alcotest.bool "fresh handle is unpoisoned" true
        (Serve_client.poisoned client = None);
      (* The server dies mid-frame: half a response, then close. *)
      ignore (Unix.write_substring server_fd (Serve_proto.frame "{\"v\":1}") 0 6);
      Unix.close server_fd;
      let req = { Serve_proto.Request.op = Serve_proto.Request.Stats; timeout_ms = None } in
      (match Serve_client.request client req with
      | Error (Flm_error.Net _) -> ()
      | Ok _ -> Alcotest.fail "mid-frame death should fail the request"
      | Error e ->
        Alcotest.failf "expected a Net error, got %s" (Flm_error.to_string e));
      check Alcotest.bool "handle is poisoned" true
        (Serve_client.poisoned client <> None);
      (* Every later request fails fast with a typed error naming the
         original failure — no socket I/O is attempted. *)
      (match Serve_client.request client req with
      | Error (Flm_error.Net { detail; _ }) ->
        check Alcotest.bool "poisoned detail names the earlier error" true
          (String.length detail > 0)
      | _ -> Alcotest.fail "poisoned handle should fail fast with Net");
      Serve_client.close client)

(* Decoders are total: whatever bytes or trees arrive, a decoder answers
   [Ok] or [Error] and never raises. *)
let total r = match r with Ok _ | Error _ -> true

let damaged_document =
  let open QCheck.Gen in
  oneof
    [ string_size (int_bound 64);
      (* a printed valid document, cut short *)
      map2
        (fun j cut ->
          let s = Bench_json.to_string j in
          String.sub s 0 (cut mod (String.length s + 1)))
        Util.json_gen nat;
      (* a printed valid document with one byte replaced *)
      map3
        (fun j at c ->
          let b = Bytes.of_string (Bench_json.to_string j) in
          Bytes.set b (at mod Bytes.length b) c;
          Bytes.to_string b)
        Util.json_gen nat char ]

let prop_parse_total =
  QCheck.Test.make ~name:"json parse is total" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") damaged_document)
    (fun s -> total (Bench_json.parse s))

let prop_print_parse =
  QCheck.Test.make ~name:"json print/parse round-trip" ~count:500
    Util.arbitrary_json (fun j -> Bench_json.parse (Bench_json.to_string j) = Ok j)

let prop_wire_total =
  let request op = Serve_proto.Request.to_json { op; timeout_ms = Some 5 } in
  let slot s = Serve_proto.Slot.to_json s in
  let docs =
    [ request (Serve_proto.Request.Certify { problem = Job.Ba; n = 4; f = 1 });
      request
        (Serve_proto.Request.Chaos
           { family = "complete:5"; f = 1; seed = 3; strategy = "crash";
             trials = 2 });
      request (Serve_proto.Request.Sweep { n_max = 6; f_max = 2 });
      slot
        (Ok
           (Serve_proto.Verdict.Chaos
              { Job.trial = 1; seed = 2; strategy = "crash"; faulty = [ 1 ];
                survived = false; violations = [ "agreement" ] }));
      slot
        (Ok
           (Serve_proto.Verdict.Cell
              { Sweep.n = 4; f = 1; adequate = true;
                survived_attacks = Some true; certificate_broke_it = None }));
      slot (Error (Flm_error.Store_corrupt { path = "p"; offset = 3; detail = "d" }))
    ]
  in
  QCheck.Test.make ~name:"wire decoders are total" ~count:1000
    (Util.near_json docs) (fun j ->
      total (Serve_proto.Request.of_json j) && total (Serve_proto.Slot.of_json j))

let suite =
  ( "serve-proto",
    [ Alcotest.test_case "request round-trips" `Quick requests;
      Alcotest.test_case "strict validation" `Quick strictness;
      Alcotest.test_case "verdict round-trips" `Quick verdicts;
      Alcotest.test_case "error round-trips" `Quick errors;
      Alcotest.test_case "response round-trips" `Quick responses;
      Alcotest.test_case "ping payload" `Quick ping_payload;
      Alcotest.test_case "socket paths" `Quick socket_paths;
      Alcotest.test_case "framing" `Quick framing;
      Alcotest.test_case "client poisoning" `Quick client_poisoning;
      QCheck_alcotest.to_alcotest prop_parse_total;
      QCheck_alcotest.to_alcotest prop_print_parse;
      QCheck_alcotest.to_alcotest prop_wire_total;
    ] )
