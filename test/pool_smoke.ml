(* The persistent pool's differential smoke suite, wired into @runtest via
   the @pool-smoke alias:

   - randomized differential property: [Pool.map] over a long-lived pool
     must equal [Array.map] (results and ordering) across random batch
     sizes and jobs counts — including batches raising at
     random indices, where the lowest failing index must be the one
     re-raised;
   - reuse: consecutive batches through one pool stay correct (the
     spawn-once protocol must retire each batch completely);
   - worker loss: with every worker sabotaged mid-batch, [map] must still
     return the full, identical batch via the calling-domain drain and
     report the degradation;
   - shutdown: idempotent, and a shut pool still maps (sequentially).

   Deterministic: the randomized cases use a fixed-seed PRNG. *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "pool-smoke FAILED: %s\n" what
  end

exception Boom of int

(* --- randomized differential property ------------------------------------- *)

let differential () =
  let rng = Random.State.make [| 0x9e3779b9 |] in
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs ~oversubscribe:true () in
      (* Many batches through the same pool: sizes around the edge cases
         (0, 1, jobs, and well past them). *)
      for trial = 1 to 25 do
        let len = Random.State.int rng 120 in
        let arr = Array.init len (fun _ -> Random.State.int rng 1000) in
        let f x = (x * x) + 1 in
        let expected = Array.map f arr in
        check
          (Printf.sprintf "jobs=%d trial=%d: map = Array.map (len %d)" jobs
             trial len)
          (Pool.map pool f arr = expected);
        (* Exception propagation: poison a random subset, the lowest poisoned
           index must surface. *)
        if len > 0 then begin
          let poisoned =
            List.sort_uniq compare
              (List.init
                 (1 + Random.State.int rng 3)
                 (fun _ -> Random.State.int rng len))
          in
          let lowest = List.hd poisoned in
          let g i = if List.mem i poisoned then raise (Boom i) else i in
          match Pool.map pool g (Array.init len Fun.id) with
          | _ -> check "poisoned batch must raise" false
          | exception Boom i ->
            check
              (Printf.sprintf
                 "jobs=%d trial=%d: lowest poisoned index wins (%d, got %d)"
                 jobs trial lowest i)
              (i = lowest)
          | exception e ->
            check
              (Printf.sprintf "unexpected exception %s" (Printexc.to_string e))
              false
        end
      done;
      Pool.shutdown pool)
    [ 1; 2; 3; 8 ]

(* --- reuse across batches --------------------------------------------------- *)

let reuse () =
  let degradations = ref 0 in
  let pool =
    Pool.create ~jobs:4 ~oversubscribe:true
      ~on_degrade:(fun _ -> incr degradations) ()
  in
  let a = Array.init 64 Fun.id in
  let first = Pool.map pool succ a in
  let second = Pool.map pool (fun x -> x * 2) a in
  check "first batch through a persistent pool" (first = Array.map succ a);
  check "second batch reuses the same workers"
    (second = Array.map (fun x -> x * 2) a);
  check "healthy batches never degrade" (!degradations = 0);
  Pool.shutdown pool

(* --- worker loss: the post-join drain ---------------------------------------- *)

let worker_loss () =
  (* The sabotage only fires if a worker actually enters the batch, which on
     a busy single-core box can lose the race against the calling domain
     draining the cursor alone: items sleep so the caller yields the CPU,
     and the whole scenario retries on a fresh pool if no worker made it in
     time.  Whatever the interleaving, every batch must come back complete
     and ordered. *)
  let rec attempt k =
    let degradations = ref [] in
    let pool =
      Pool.create ~jobs:4 ~oversubscribe:true
        ~on_degrade:(fun r -> degradations := r :: !degradations)
        ()
    in
    let a = Array.init 40 Fun.id in
    (* Prime the pool so the workers are alive before the sabotage. *)
    check "pre-sabotage batch" (Pool.map pool succ a = Array.map succ a);
    Pool.sabotage_workers_for_testing pool;
    let slow x =
      Unix.sleepf 0.001;
      x * 3
    in
    check "total worker loss still returns the full batch in order"
      (Pool.map pool slow a = Array.map (fun x -> x * 3) a);
    let reported = !degradations <> [] in
    (* Dead workers or not, the next batch must still answer (sequential
       fallback once every worker is gone). *)
    check "post-loss batch still answers"
      (Pool.map pool (fun x -> x - 1) a = Array.map (fun x -> x - 1) a);
    Pool.shutdown pool;
    if not reported then
      if k < 10 then attempt (k + 1)
      else check "worker loss is reported within 10 attempts" false
  in
  attempt 1

(* --- shutdown ----------------------------------------------------------------- *)

let shutdown () =
  let pool = Pool.create ~jobs:4 ~oversubscribe:true () in
  let a = Array.init 32 Fun.id in
  check "batch before shutdown" (Pool.map pool succ a = Array.map succ a);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  check "a shut pool still maps (sequential fallback)"
    (Pool.map pool succ a = Array.map succ a);
  Pool.shutdown pool;
  (* Shutdown before any parallel map: nothing was spawned, nothing hangs. *)
  let fresh = Pool.create ~jobs:8 ~oversubscribe:true () in
  Pool.shutdown fresh;
  check "shutdown of a never-used pool"
    (Pool.map fresh succ [| 1; 2; 3 |] = [| 2; 3; 4 |])

let () =
  differential ();
  reuse ();
  worker_loss ();
  shutdown ();
  if !failures > 0 then begin
    Printf.eprintf "pool-smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "pool-smoke ok: differential, reuse, worker-loss, shutdown"
