(* A batch in flight.  [run i] computes item [i] and records the outcome in
   the caller's result/error slots — it captures every exception per item and
   never raises itself, so the only way a participant abandons a batch is an
   exception outside [run] (a dying worker, or the test sabotage hook). *)
type batch = {
  run : int -> unit;
  len : int;
  order : int array;
      (* claim position -> item index; identity without costs, a
         largest-first permutation with them *)
  cursor : int Atomic.t;
  mutable joined : int;  (* workers that entered this batch *)
  mutable left : int;  (* workers that exited it (completing or dying) *)
  mutable busy : float;  (* summed participant compute time, under t.lock *)
}

type stats = {
  participants : int;
  busy_seconds : float;
  span_seconds : float;
}

type t = {
  jobs : int;  (* requested parallelism, as configured *)
  workers : int;  (* worker domains to spawn: effective parallelism - 1 *)
  on_degrade : (string -> unit) option;
  lock : Mutex.t;
  work_ready : Condition.t;  (* a new batch was published, or shutdown *)
  batch_done : Condition.t;  (* a worker left the current batch *)
  submit : Mutex.t;  (* serializes map/shutdown against each other *)
  mutable batch : batch option;
  mutable seq : int;  (* batch generation counter *)
  mutable alive : int;  (* live worker domains *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  mutable spawned : bool;  (* the lazy one-time spawn has happened *)
  mutable shut : bool;
  mutable sabotage : bool;  (* test hook: workers die on their next claim *)
}

let reject detail =
  Flm_error.raise_error (Flm_error.Invalid_input { what = "pool config"; detail })

let create ?(oversubscribe = false) ?on_degrade ~jobs () =
  if jobs < 1 then reject "Pool.create: jobs >= 1 required";
  (* Domains beyond the hardware's recommendation never help: on an
     oversubscribed box every minor collection is a synchronization across
     domains the OS is time-slicing onto the same cores (E22 measured 2-4x
     cold-sweep slowdowns at jobs > cores).  So the effective parallelism is
     capped at [recommended_domain_count] — on a single-core box every pool
     runs on the calling domain, and wall time is flat in [jobs] instead of
     growing with it.  [oversubscribe] lifts the cap for callers that need
     literal worker domains (the pool's own worker-loss tests, the E18
     spawn-cost measurement). *)
  let effective =
    if oversubscribe then jobs
    else min jobs (max 1 (Domain.recommended_domain_count ()))
  in
  {
    jobs;
    workers = effective - 1;
    on_degrade;
    lock = Mutex.create ();
    work_ready = Condition.create ();
    batch_done = Condition.create ();
    submit = Mutex.create ();
    batch = None;
    seq = 0;
    alive = 0;
    stopping = false;
    domains = [];
    spawned = false;
    shut = false;
    sabotage = false;
  }

let jobs t = t.jobs

let degrade t reason =
  match t.on_degrade with Some notify -> notify reason | None -> ()

exception Sabotaged

(* Self-scheduling: participants race on one fetch-and-add cursor and claim
   one item at a time — no queue, no per-item lock traffic, and the work
   distribution adapts to however fast each participant happens to run. *)
let claim_items ?(worker = false) t b =
  let rec go () =
    let pos = Atomic.fetch_and_add b.cursor 1 in
    if pos < b.len then begin
      if worker && t.sabotage then raise Sabotaged;
      b.run b.order.(pos);
      go ()
    end
  in
  go ()

let worker_loop t =
  let last = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock t.lock;
    while (not t.stopping) && t.seq = !last do
      Condition.wait t.work_ready t.lock
    done;
    if t.stopping then begin
      continue_ := false;
      Mutex.unlock t.lock
    end
    else begin
      last := t.seq;
      match t.batch with
      | None -> Mutex.unlock t.lock
      | Some b ->
        b.joined <- b.joined + 1;
        Mutex.unlock t.lock;
        (* [run] captures per-item exceptions, so anything escaping here is
           abnormal (an asynchronous exception, or sabotage): record the
           departure so the feeder's join can never hang, then die.  The
           items this worker claimed but never finished are drained by the
           feeder after the join. *)
        let t0 = Unix.gettimeofday () in
        let crashed =
          match claim_items ~worker:true t b with
          | () -> false
          | exception _ -> true
        in
        let spent = Unix.gettimeofday () -. t0 in
        Mutex.lock t.lock;
        b.busy <- b.busy +. spent;
        b.left <- b.left + 1;
        Condition.broadcast t.batch_done;
        Mutex.unlock t.lock;
        if crashed then continue_ := false
    end
  done

let worker t () =
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.lock;
      t.alive <- t.alive - 1;
      Condition.broadcast t.batch_done;
      Mutex.unlock t.lock)
    (fun () -> worker_loop t)

(* Spawn the persistent workers on first parallel use (under the submit
   lock).  Spawning can fail under resource limits; the pool runs with
   however many domains came up — zero degrades every batch to the calling
   domain. *)
let ensure_spawned t =
  if (not t.spawned) && t.workers > 0 && not t.shut then begin
    t.spawned <- true;
    let want = t.workers in
    let ds =
      List.filter_map
        (fun _ ->
          Mutex.lock t.lock;
          t.alive <- t.alive + 1;
          Mutex.unlock t.lock;
          match Domain.spawn (worker t) with
          | d -> Some d
          | exception _ ->
            Mutex.lock t.lock;
            t.alive <- t.alive - 1;
            Mutex.unlock t.lock;
            None)
        (List.init want Fun.id)
    in
    t.domains <- ds;
    if List.length ds < want then
      degrade t
        (Printf.sprintf "spawned %d of %d persistent worker domains"
           (List.length ds) want)
  end

let map ?costs ?on_stats t f arr =
  let len = Array.length arr in
  if len = 0 then [||]
  else begin
    (match costs with
    | Some c when Array.length c <> len ->
      reject "Pool.map: costs length must match the batch"
    | Some _ | None -> ());
    Mutex.lock t.submit;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.submit) @@ fun () ->
    let results = Array.make len None in
    let errors = Array.make len None in
    let run i =
      match f arr.(i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
    in
    let report ~participants ~busy ~span =
      match on_stats with
      | None -> ()
      | Some notify ->
        notify { participants; busy_seconds = busy; span_seconds = span }
    in
    let sequential () =
      let t0 = Unix.gettimeofday () in
      for i = 0 to len - 1 do
        run i
      done;
      let spent = Unix.gettimeofday () -. t0 in
      report ~participants:1 ~busy:spent ~span:spent
    in
    if t.workers = 0 || len <= 1 then sequential ()
    else begin
      ensure_spawned t;
      (* flm-lint: allow concurrency/nested-lock — intentional two-level
         order: [submit] (held for the whole batch, serializes map/shutdown)
         strictly precedes [lock] (the worker handshake, held for short
         critical sections); never acquired in the other order. *)
      Mutex.lock t.lock;
      let workers = t.alive in
      Mutex.unlock t.lock;
      if workers = 0 then begin
        (* Every worker failed to spawn or has died: the whole batch runs in
           the calling domain, in index order.  A deliberately shut pool
           falls back the same way, silently. *)
        if not t.shut then
          degrade t "no live worker domains; running the batch sequentially";
        sequential ()
      end
      else begin
        (* Dispatch order.  Without costs: index order.  With costs:
           largest-first (a classic LPT-style greedy) — the point is to keep
           a straggler from landing last on an otherwise-drained batch, so
           the biggest jobs must go out first. *)
        let order = Array.init len Fun.id in
        Option.iter
          (fun c ->
            Array.sort
              (fun i j ->
                match compare c.(j) c.(i) with 0 -> compare i j | d -> d)
              order)
          costs;
        let b =
          {
            run;
            len;
            order;
            cursor = Atomic.make 0;
            joined = 0;
            left = 0;
            busy = 0.0;
          }
        in
        let published = Unix.gettimeofday () in
        (* flm-lint: allow concurrency/nested-lock — same submit > lock
           order as above: publish the batch under the worker lock. *)
        Mutex.lock t.lock;
        t.batch <- Some b;
        t.seq <- t.seq + 1;
        Condition.broadcast t.work_ready;
        Mutex.unlock t.lock;
        (* The feeder is a full participant, so the cursor always drains
           even with zero healthy workers; [run] never raises. *)
        let t0 = Unix.gettimeofday () in
        claim_items t b;
        let feeder_busy = ref (Unix.gettimeofday () -. t0) in
        (* Join: wait until every worker that entered the batch has left it.
           A dying worker still counts itself out (see [worker_loop]), so
           this cannot hang; a straggler waking after the batch is retired
           sees an exhausted cursor and claims nothing.  The mutex hand-off
           publishes every worker's result writes to this domain. *)
        (* flm-lint: allow concurrency/nested-lock — same submit > lock
           order as above: the join waits under the worker lock. *)
        Mutex.lock t.lock;
        while b.left < b.joined do
          Condition.wait t.batch_done t.lock
        done;
        t.batch <- None;
        let participants = b.joined + 1 and workers_busy = b.busy in
        Mutex.unlock t.lock;
        (* Post-join drain: anything a dead worker claimed but never
           finished is completed here, in index order, preserving per-item
           exception capture. *)
        let stranded = ref 0 in
        let t0 = Unix.gettimeofday () in
        for i = 0 to len - 1 do
          match results.(i), errors.(i) with
          | None, None ->
            incr stranded;
            run i
          | _ -> ()
        done;
        feeder_busy := !feeder_busy +. (Unix.gettimeofday () -. t0);
        report ~participants ~busy:(workers_busy +. !feeder_busy)
          ~span:(Unix.gettimeofday () -. published);
        if !stranded > 0 then
          degrade t
            (Printf.sprintf
               "worker loss stranded %d item%s; finished them in the calling \
                domain"
               !stranded
               (if !stranded = 1 then "" else "s"))
      end
    end;
    (* Deterministic error propagation: the lowest failing index wins,
       whichever participant hit it first. *)
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list ?costs ?on_stats t f xs =
  Array.to_list (map ?costs ?on_stats t f (Array.of_list xs))

let shutdown t =
  Mutex.lock t.submit;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.submit) @@ fun () ->
  if not t.shut then begin
    t.shut <- true;
    (* flm-lint: allow concurrency/nested-lock — same submit > lock order
       as in [map]: the stop flag flips under the worker lock. *)
    Mutex.lock t.lock;
    t.stopping <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.lock;
    (* A worker that died abnormally re-raises from [join]; teardown has no
       use for the corpse's exception. *)
    List.iter (fun d -> try Domain.join d with _ -> ()) t.domains;
    t.domains <- []
  end

let sabotage_workers_for_testing t = t.sabotage <- true
