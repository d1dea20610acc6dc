(* The parallel, memoizing certificate engine: determinism against the
   sequential reference path, cache correctness, LRU bounds, pool ordering,
   and fingerprint stability. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* (a) Determinism: parallel (jobs=4) verdicts equal sequential (jobs=1)
   verdicts, and both equal the plain Sweep reference, over a small grid. *)
let determinism () =
  let seq = Engine.create ~jobs:1 () in
  let par = Engine.create ~jobs:4 () in
  let reference = Sweep.nf_boundary ~n_max:5 ~f_max:1 in
  check tbool "sequential engine = Sweep.nf_boundary" true
    (Engine.nf_boundary seq ~n_max:5 ~f_max:1 = reference);
  check tbool "parallel engine = Sweep.nf_boundary" true
    (Engine.nf_boundary par ~n_max:5 ~f_max:1 = reference);
  let conn_reference = Sweep.connectivity_boundary ~f:1 ~kappas:[ 2; 3 ] ~n:7 in
  check tbool "parallel connectivity = Sweep.connectivity_boundary" true
    (Engine.connectivity_boundary par ~f:1 ~kappas:[ 2; 3 ] ~n:7
    = conn_reference);
  (* A batch of mixed jobs preserves input order. *)
  let jobs =
    [ Job.Nf_cell { n = 4; f = 1 };
      Job.Nf_cell { n = 3; f = 1 };
      Job.Conn_cell { kappa = 2; n = 7; f = 1 };
    ]
  in
  let via_par = Engine.run_all_results par jobs in
  let via_seq = List.map (fun j -> Job.run j) jobs in
  check tbool "mixed batch ordered and equal" true
    (List.for_all2
       (fun r v -> match r with Ok r -> Job.equal_verdict r v | Error _ -> false)
       via_par via_seq)

(* (b) Cache correctness: a memoized re-run of the same job returns an equal
   certificate and records a cache hit without re-executing. *)
let cache_correctness () =
  let eng = Engine.create ~jobs:1 () in
  let job = Job.Certify { problem = Job.Ba; n = 3; f = 1 } in
  let run () =
    match Engine.run_job_result eng job with
    | Ok v -> v
    | Error e -> Alcotest.fail (Flm_error.to_string e)
  in
  let v1 = run () in
  let executions_after_first =
    (Metrics.snapshot (Engine.metrics eng)).Metrics.executions_run
  in
  let v2 = run () in
  check tbool "verdicts equal" true (Job.equal_verdict v1 v2);
  (match v1 with
  | Job.Cert c ->
    check tbool "triangle certificate is a contradiction" true
      c.Job.contradiction
  | Job.Cell _ | Job.Conn _ | Job.Chaos _ ->
    Alcotest.fail "expected a Cert verdict");
  let snap = Metrics.snapshot (Engine.metrics eng) in
  check tint "two jobs completed" 2 snap.Metrics.jobs_completed;
  check tint "one cache hit" 1 snap.Metrics.cache_hits;
  check tint "one cache miss" 1 snap.Metrics.cache_misses;
  check tint "hit ran nothing" executions_after_first
    snap.Metrics.executions_run;
  check tbool "hit rate 0.5" true
    (Float.abs (Metrics.hit_rate snap -. 0.5) < 1e-9)

(* (c) LRU eviction: the cache never exceeds its capacity and evicts the
   least-recently-used key first. *)
let lru_eviction () =
  let cache = Exec_cache.create ~capacity:2 () in
  let computed = ref 0 in
  let get i =
    Exec_cache.find_or_run cache
      (Fingerprint.intern (Value.int i))
      (fun () ->
        incr computed;
        i * 10)
  in
  check tint "get 1 computes" 10 (get 1);
  check tint "get 2 computes" 20 (get 2);
  check tint "two computations" 2 !computed;
  check tint "hit does not recompute" 10 (get 1);
  check tint "still two computations" 2 !computed;
  (* 2 is now least-recently-used; inserting 3 must evict it. *)
  check tint "get 3 computes" 30 (get 3);
  check tint "bounded at capacity" 2 (Exec_cache.length cache);
  check tbool "1 still cached" true
    (Exec_cache.mem cache (Fingerprint.intern (Value.int 1)));
  check tbool "2 evicted" false
    (Exec_cache.mem cache (Fingerprint.intern (Value.int 2)));
  check tint "re-running 2 recomputes" 20 (get 2);
  check tint "four computations total" 4 !computed;
  check tint "still bounded" 2 (Exec_cache.length cache)

(* Evictions are otherwise invisible; the metrics hook must count each one,
   in LRU order, alongside the hits and misses find_or_run records. *)
let eviction_metrics () =
  let metrics = Metrics.create () in
  let cache = Exec_cache.create ~capacity:2 ~metrics () in
  let get i =
    Exec_cache.find_or_run cache
      (Fingerprint.intern (Value.int i))
      (fun () -> i * 10)
  in
  List.iter (fun i -> ignore (get i)) [ 1; 2 ];
  check tint "no evictions below capacity" 0
    (Metrics.snapshot metrics).Metrics.evictions;
  ignore (get 1);
  (* 1 was refreshed, so inserting 3 then 4 evicts 2 then 1 — exactly two
     evictions, counted as they happen. *)
  ignore (get 3);
  check tint "one eviction at capacity+1" 1
    (Metrics.snapshot metrics).Metrics.evictions;
  check tbool "the LRU entry (2) went first" false
    (Exec_cache.mem cache (Fingerprint.intern (Value.int 2)));
  check tbool "the refreshed entry (1) survived" true
    (Exec_cache.mem cache (Fingerprint.intern (Value.int 1)));
  ignore (get 4);
  let snap = Metrics.snapshot metrics in
  check tint "two evictions after a second overflow" 2 snap.Metrics.evictions;
  check tbool "then 1 went" false
    (Exec_cache.mem cache (Fingerprint.intern (Value.int 1)));
  check tint "hits counted" 1 snap.Metrics.cache_hits;
  check tint "misses counted" 4 snap.Metrics.cache_misses

(* Keys compare by structure: an entry inserted under one key is found
   through a key built separately from an equal descriptor, by [find_opt]
   and by [find_or_run], which counts it as a hit and runs nothing. *)
let structural_keys () =
  let desc () = Value.list [ Value.string "structural"; Value.int 7 ] in
  let k1 = Fingerprint.intern (desc ()) and k2 = Fingerprint.intern (desc ()) in
  check tbool "two separately built keys" false (k1 == k2);
  check tbool "equal by structure" true (Fingerprint.equal_key k1 k2);
  let metrics = Metrics.create () in
  let cache = Exec_cache.create ~capacity:16 ~metrics () in
  Exec_cache.insert cache k1 42;
  check tbool "find_opt through the other key" true
    (Exec_cache.find_opt cache k2 = Some 42);
  let ran = ref false in
  let v =
    Exec_cache.find_or_run cache
      (Fingerprint.intern (desc ()))
      (fun () ->
        ran := true;
        0)
  in
  check tint "find_or_run returns the inserted value" 42 v;
  check tbool "find_or_run ran nothing" false !ran;
  let snap = Metrics.snapshot metrics in
  check tint "counted as a hit" 1 snap.Metrics.cache_hits;
  check tint "no miss" 0 snap.Metrics.cache_misses;
  check tint "one entry" 1 (Exec_cache.length cache)

(* Single-flight deduplication: a second domain missing on a key while the
   first is computing it must share the leader's result, not rerun the
   thunk.  The leader's thunk is gated on an atomic so the follower
   provably arrives mid-flight. *)
let single_flight () =
  let metrics = Metrics.create () in
  let cache = Exec_cache.create ~capacity:16 ~metrics () in
  let key = Fingerprint.intern (Value.string "single-flight-test") in
  let runs = Atomic.make 0 in
  let release = Atomic.make false in
  let thunk () =
    Atomic.incr runs;
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done;
    42
  in
  let leader =
    Domain.spawn (fun () -> Exec_cache.find_or_run cache key thunk)
  in
  while Atomic.get runs = 0 do
    Domain.cpu_relax ()
  done;
  let about = Atomic.make false in
  let follower =
    Domain.spawn (fun () ->
        Atomic.set about true;
        Exec_cache.find_or_run cache key thunk)
  in
  while not (Atomic.get about) do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.1;
  Atomic.set release true;
  let v1 = Domain.join leader in
  let v2 = Domain.join follower in
  check tint "leader's value" 42 v1;
  check tint "follower shares the leader's value" 42 v2;
  check tint "the thunk ran exactly once" 1 (Atomic.get runs);
  let snap = Metrics.snapshot metrics in
  check tint "one dedup recorded" 1 snap.Metrics.dedups;
  check tint "one miss (the leader's)" 1 snap.Metrics.cache_misses

(* A leader that raises abandons the flight: its waiters retry (and compute
   for themselves), and the failure is never cached. *)
let single_flight_abandon () =
  let cache = Exec_cache.create ~capacity:16 () in
  let key = Fingerprint.intern (Value.string "single-flight-abandon") in
  let entered = Atomic.make false in
  let release = Atomic.make false in
  let leader =
    Domain.spawn (fun () ->
        match
          Exec_cache.find_or_run cache key (fun () ->
              Atomic.set entered true;
              while not (Atomic.get release) do
                Domain.cpu_relax ()
              done;
              failwith "leader boom")
        with
        | (_ : int) -> `Value
        | exception Failure _ -> `Failed)
  in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  let about = Atomic.make false in
  let follower =
    Domain.spawn (fun () ->
        Atomic.set about true;
        Exec_cache.find_or_run cache key (fun () -> 7))
  in
  while not (Atomic.get about) do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.1;
  Atomic.set release true;
  check tbool "the leader's own exception propagates" true
    (Domain.join leader = `Failed);
  check tint "the follower retries with its own thunk" 7 (Domain.join follower);
  check tbool "only the successful value was cached" true
    (Exec_cache.find_opt cache key = Some 7)

(* The verdict cache is the only cache tier: a cold grid looks up each
   cell once, misses every time, and executes exactly the runs the plain
   sequential sweep executes. *)
let cold_sweep_lookups () =
  let runs0 = Exec.total_runs () in
  let reference = Sweep.nf_boundary ~n_max:5 ~f_max:1 in
  let reference_runs = Exec.total_runs () - runs0 in
  let eng = Engine.create ~jobs:1 () in
  let cells = Engine.nf_boundary eng ~n_max:5 ~f_max:1 in
  let snap = Metrics.snapshot (Engine.metrics eng) in
  Engine.shutdown eng;
  check tbool "cells equal Sweep.nf_boundary" true (cells = reference);
  check tint "one miss per cell" (List.length reference)
    snap.Metrics.cache_misses;
  check tint "no hits" 0 snap.Metrics.cache_hits;
  check tint "executions equal Sweep.nf_boundary's" reference_runs
    snap.Metrics.executions_run

let pool_ordering () =
  let pool = Pool.create ~jobs:4 ~oversubscribe:true () in
  let arr = Array.init 100 Fun.id in
  check tbool "map preserves input order" true
    (Pool.map pool (fun x -> x * x) arr = Array.map (fun x -> x * x) arr);
  check tbool "map_list matches List.map" true
    (Pool.map_list pool string_of_int [ 3; 1; 2 ] = [ "3"; "1"; "2" ])

let pool_exception () =
  let pool = Pool.create ~jobs:3 ~oversubscribe:true () in
  match
    Pool.map pool
      (fun x -> if x >= 5 then failwith (string_of_int x) else x)
      (Array.init 10 Fun.id)
  with
  | _ -> Alcotest.fail "expected the lowest failing index to raise"
  | exception Failure m -> check Alcotest.string "lowest failing index" "5" m

let fingerprints () =
  let fingerprint j = Fingerprint.of_value (Job.describe j) in
  let j = Job.Nf_cell { n = 4; f = 1 } in
  check tbool "fingerprint is stable" true
    (Fingerprint.equal (fingerprint j)
       (fingerprint (Job.Nf_cell { n = 4; f = 1 })));
  check tbool "different jobs differ" false
    (Fingerprint.equal (fingerprint j)
       (fingerprint (Job.Nf_cell { n = 5; f = 1 })));
  check tbool "spec kinds differ" false
    (Fingerprint.equal
       (fingerprint (Job.Nf_cell { n = 3; f = 1 }))
       (fingerprint (Job.Certify { problem = Job.Ba; n = 3; f = 1 })));
  check tbool "separately built job keys are equal" true
    (Fingerprint.equal_key (Job.key j) (Job.key (Job.Nf_cell { n = 4; f = 1 })));
  check tbool "different job keys differ" false
    (Fingerprint.equal_key (Job.key j) (Job.key (Job.Nf_cell { n = 5; f = 1 })));
  (* The encoding is prefix-unambiguous: list shape matters. *)
  check tbool "list nesting distinguishes" false
    (Fingerprint.equal
       (Fingerprint.of_value (Value.list [ Value.int 1; Value.int 2 ]))
       (Fingerprint.of_value
          (Value.list [ Value.list [ Value.int 1; Value.int 2 ] ])))

(* Group commit: a batch that journals verdicts fsyncs once, after it
   drains; a batch of cache hits writes nothing and does not fsync. *)
let group_commit () =
  let dir = Filename.temp_dir "flm_group_commit" "" in
  let store =
    match Store.open_dir dir with
    | Ok s -> s
    | Error e -> Alcotest.fail (Flm_error.to_string e)
  in
  let eng = Engine.create ~jobs:1 ~store () in
  let counts () =
    let s = Metrics.snapshot (Engine.metrics eng) in
    s.Metrics.store_writes, s.Metrics.store_syncs
  in
  let chaos () =
    let slots =
      Engine.chaos eng ~family:"complete:5" ~f:1 ~seed:7 ~strategy:"chaos"
        ~trials:4
    in
    check tbool "every trial answers" true (List.for_all Result.is_ok slots)
  in
  let moved what f (writes, syncs) =
    let w0, s0 = counts () in
    f ();
    let w1, s1 = counts () in
    check tint (what ^ ": journal writes") writes (w1 - w0);
    check tint (what ^ ": syncs") syncs (s1 - s0)
  in
  moved "four chaos trials" chaos (4, 1);
  moved "the same trials, all cache hits" chaos (0, 0);
  moved "a sweep" (fun () -> ignore (Engine.nf_boundary eng ~n_max:6 ~f_max:1))
    (List.length (Sweep.nf_grid ~n_max:6 ~f_max:1), 1);
  Engine.shutdown eng;
  Store.close store;
  check tbool "every write is in the journal" true
    (Store.verify dir = Ok (fst (counts ()), []));
  Sys.remove (Filename.concat dir "journal.flm");
  Sys.rmdir dir

let suite =
  ( "engine",
    [ Alcotest.test_case "determinism: parallel = sequential" `Quick determinism;
      Alcotest.test_case "cache correctness" `Quick cache_correctness;
      Alcotest.test_case "LRU eviction bound" `Quick lru_eviction;
      Alcotest.test_case "eviction metrics" `Quick eviction_metrics;
      Alcotest.test_case "structural key lookup" `Quick structural_keys;
      Alcotest.test_case "single-flight dedup" `Quick single_flight;
      Alcotest.test_case "single-flight abandon" `Quick single_flight_abandon;
      Alcotest.test_case "cold sweep: one miss per cell" `Quick
        cold_sweep_lookups;
      Alcotest.test_case "pool ordering" `Quick pool_ordering;
      Alcotest.test_case "pool exception" `Quick pool_exception;
      Alcotest.test_case "fingerprints" `Quick fingerprints;
      Alcotest.test_case "group commit: one sync per batch" `Quick group_commit;
    ] )
