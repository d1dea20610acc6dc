(* Worker supervision: the typed error taxonomy, cooperative deadlines,
   pool behavior under hostile jobs, and the engine's supervised batch path
   (timeouts, failures, deterministic ordering, jobs-count invariance). *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* (a) Taxonomy: retryability, guard conversions, the supervision
   classifier. *)
let taxonomy () =
  check tbool "worker crash is retryable" true
    (Flm_error.retryable (Flm_error.Worker_crashed { detail = "d" }));
  check tbool "failure is permanent" false
    (Flm_error.retryable (Flm_error.Job_failed { job = "j"; exn = "e" }));
  check tbool "timeout is permanent" false
    (Flm_error.retryable (Flm_error.Job_timeout { job = "j"; timeout_ms = 1 }));
  (match Flm_error.guard ~what:"w" (fun () -> invalid_arg "nope") with
  | Error (Flm_error.Invalid_input { what = "w"; detail = "nope" }) -> ()
  | _ -> Alcotest.fail "guard should map Invalid_argument to Invalid_input");
  (match Flm_error.guard ~what:"w" (fun () -> 7) with
  | Ok 7 -> ()
  | _ -> Alcotest.fail "guard should pass values through");
  let e = Flm_error.Axiom_violation { axiom = "locality"; detail = "d" } in
  (match Flm_error.guard ~what:"w" (fun () -> Flm_error.raise_error e) with
  | Error e' -> check tbool "guard unwraps Error payloads" true (Flm_error.equal e e')
  | Ok _ -> Alcotest.fail "guard should catch Error");
  (match Flm_error.classify ~job:"j" Out_of_memory with
  | Flm_error.Worker_crashed _ -> ()
  | _ -> Alcotest.fail "OOM should classify as Worker_crashed");
  match Flm_error.classify ~job:"j" (Failure "boom") with
  | Flm_error.Job_failed { job = "j"; _ } -> ()
  | _ -> Alcotest.fail "Failure should classify as Job_failed"

(* (b) Deadlines: no-op without a frame, typed timeout past expiry, nested
   frames keep the tighter deadline, frames restore on exit. *)
let deadlines () =
  Flm_error.Deadline.check ();
  check tbool "no ambient deadline" false (Flm_error.Deadline.active ());
  (match
     Flm_error.Deadline.with_deadline ~job:"t" ~timeout_ms:1 (fun () ->
         check tbool "deadline active inside" true (Flm_error.Deadline.active ());
         Unix.sleepf 0.01;
         Flm_error.Deadline.check ();
         `Unreachable)
   with
  | exception Flm_error.Error (Flm_error.Job_timeout { job = "t"; timeout_ms = 1 }) -> ()
  | _ -> Alcotest.fail "expired deadline should raise a typed timeout");
  check tbool "frame restored after raise" false (Flm_error.Deadline.active ());
  (* A generous outer frame does not loosen a tight inner one... *)
  (match
     Flm_error.Deadline.with_deadline ~job:"outer" ~timeout_ms:60_000 (fun () ->
         Flm_error.Deadline.with_deadline ~job:"inner" ~timeout_ms:1 (fun () ->
             Unix.sleepf 0.01;
             Flm_error.Deadline.check ();
             `Unreachable))
   with
  | exception Flm_error.Error (Flm_error.Job_timeout { job = "inner"; _ }) -> ()
  | _ -> Alcotest.fail "inner deadline should win");
  (* ...and a tight outer frame survives a generous inner request. *)
  match
    Flm_error.Deadline.with_deadline ~job:"tight" ~timeout_ms:1 (fun () ->
        Flm_error.Deadline.with_deadline ~job:"loose" ~timeout_ms:60_000
          (fun () ->
            Unix.sleepf 0.01;
            Flm_error.Deadline.check ();
            `Unreachable))
  with
  | exception Flm_error.Error (Flm_error.Job_timeout { job = "tight"; _ }) -> ()
  | _ -> Alcotest.fail "outer tight deadline should win"

(* (c) The pool under hostile tasks: per-item exception capture, lowest
   failing index re-raised, healthy items all complete, order stress. *)
let hostile_pool () =
  let pool = Pool.create ~jobs:4 ~oversubscribe:true () in
  let done_ = Array.make 12 false in
  (match
     Pool.map pool
       (fun i ->
         if i mod 5 = 3 then failwith (Printf.sprintf "boom %d" i);
         done_.(i) <- true;
         i)
       (Array.init 12 Fun.id)
   with
  | _ -> Alcotest.fail "a raising task should propagate"
  | exception Failure m ->
    check Alcotest.string "lowest failing index wins" "boom 3" m);
  check tbool "healthy tasks all ran despite failures" true
    (List.for_all (fun i -> done_.(i)) [ 0; 1; 2; 4; 5; 6; 7; 9; 10; 11 ]);
  (* Order stress: a parallel map equals the sequential reference. *)
  let big = Array.init 100 (fun i -> i) in
  check tbool "deterministic ordering at width 8" true
    (Pool.map (Pool.create ~jobs:8 ~oversubscribe:true ()) (fun i -> i * i) big
    = Array.map (fun i -> i * i) big)

let equal_outcome a b =
  match a, b with
  | Ok va, Ok vb -> Job.equal_verdict va vb
  | Error ea, Error eb -> Flm_error.equal ea eb
  | Ok _, Error _ | Error _, Ok _ -> false

(* (d) The supervised batch: poisoned and timing-out jobs yield typed
   errors in their slots, every other job completes, and the outcome list
   is identical whatever the jobs count. *)
let supervised_batch () =
  let chaos strategy trial =
    Job.Chaos_trial { family = "complete:4"; f = 1; seed = 5; strategy; trial }
  in
  let batch =
    [ Job.Nf_cell { n = 4; f = 1 };
      chaos "poison" 0;
      Job.Nf_cell { n = 3; f = 1 };
      chaos "stall:200" 1;
      chaos "drop:0.5" 2;
    ]
  in
  let run jobs =
    Engine.create ~jobs
      ~config:{ Engine.timeout_ms = Some 60 }
      ()
    |> fun eng -> eng, Engine.run_all_results eng batch
  in
  let eng1, seq = run 1 in
  let _, par = run 4 in
  check tint "all slots accounted for" 5 (List.length seq);
  check tbool "jobs=4 matches jobs=1 outcome for outcome" true
    (List.for_all2 equal_outcome seq par);
  (match seq with
  | [ Ok (Job.Cell _);
      Error (Flm_error.Job_failed _);
      Ok (Job.Cell _);
      Error (Flm_error.Job_timeout { timeout_ms = 60; _ });
      Ok (Job.Chaos _);
    ] -> ()
  | _ -> Alcotest.fail "unexpected supervised outcome shape");
  let snap = Metrics.snapshot (Engine.metrics eng1) in
  check tint "failures metered" 2 snap.Metrics.jobs_failed;
  check tint "timeouts metered" 1 snap.Metrics.jobs_timed_out;
  check tint "successes metered" 3 snap.Metrics.jobs_completed;
  (* Failures are never cached: a warm re-run re-executes the poisoned job
     and reproduces the same typed error. *)
  let warm = Engine.run_all_results eng1 batch in
  check tbool "warm re-run reproduces outcomes" true
    (List.for_all2 equal_outcome seq warm)

(* (e) The one job boundary: a poisoned job comes back as its typed payload,
   the grid entry points raise the lowest failing index as a typed error
   once the batch drains, and config validation is typed too. *)
let supervision_boundary () =
  let eng = Engine.create ~jobs:1 () in
  let poisoned =
    Job.Chaos_trial
      { family = "complete:4"; f = 1; seed = 5; strategy = "poison"; trial = 9 }
  in
  (match Engine.run_job_result eng poisoned with
  | Error (Flm_error.Job_failed { exn; _ }) ->
    check tbool "failure payload names the poison step" true
      (String.length exn > 0)
  | _ -> Alcotest.fail "supervised run should return Job_failed");
  (* Kappas 0 and 9 are not Harary degrees for n = 7; 0 comes first. *)
  let par = Engine.create ~jobs:2 () in
  let raised =
    match
      Engine.connectivity_boundary par ~f:1 ~kappas:[ 2; 0; 3; 9 ] ~n:7
    with
    | _ -> None
    | exception e -> Some e
  in
  Engine.shutdown par;
  (match raised with
  | Some (Flm_error.Error (Flm_error.Job_failed { job; _ })) ->
    check Alcotest.string "lowest failing index, typed"
      "conn-cell(harary:0:7,f=1)" job
  | Some e ->
    Alcotest.failf "untyped exception escaped: %s" (Printexc.to_string e)
  | None -> Alcotest.fail "a failing cell should raise");
  match Engine.create ~config:{ Engine.timeout_ms = Some 0 } () with
  | exception Flm_error.Error (Flm_error.Invalid_input _) -> ()
  | _ -> Alcotest.fail "a deadline below 1 ms should be rejected"

let suite =
  ( "supervision",
    [ Alcotest.test_case "error taxonomy" `Quick taxonomy;
      Alcotest.test_case "deadlines" `Quick deadlines;
      Alcotest.test_case "hostile pool" `Quick hostile_pool;
      Alcotest.test_case "supervised batch" `Quick supervised_batch;
      Alcotest.test_case "supervision boundary" `Quick supervision_boundary;
    ] )
