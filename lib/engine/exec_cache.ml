type 'v node = {
  nkey : Fingerprint.key;
  nvalue : 'v;
  mutable newer : 'v node option;
  mutable older : 'v node option;
}

(* A single-flight ticket: the first domain to miss on a key becomes the
   leader and computes; followers that miss on the same key while the
   computation is in flight wait on the cache's condvar instead of
   duplicating the work.  A leader that raises abandons the flight and the
   followers retry (usually becoming leaders themselves) — failures are
   never broadcast as values, mirroring the cache's never-admit-failures
   rule. *)
type 'v outcome = Pending | Done of 'v | Abandoned

type 'v flight = { fkey : Fingerprint.key; mutable outcome : 'v outcome }

type 'v t = {
  capacity : int;
  metrics : Metrics.t option;
  lock : Mutex.t;
  resolved : Condition.t;
  table : (Fingerprint.t, 'v node list ref) Hashtbl.t;
  flights : (Fingerprint.t, 'v flight list ref) Hashtbl.t;
  mutable newest : 'v node option;
  mutable oldest : 'v node option;
  mutable size : int;
}

let reject detail =
  Flm_error.raise_error
    (Flm_error.Invalid_input { what = "cache config"; detail })

let create ?(capacity = 4096) ?metrics () =
  if capacity < 1 then reject "Exec_cache.create: capacity >= 1 required";
  {
    capacity;
    metrics;
    lock = Mutex.create ();
    resolved = Condition.create ();
    table = Hashtbl.create (min capacity 1024);
    flights = Hashtbl.create 8;
    newest = None;
    oldest = None;
    size = 0;
  }

let capacity t = t.capacity

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- intrusive doubly-linked recency list (lock held) ---------------------- *)

let detach t node =
  (match node.newer with
  | Some n -> n.older <- node.older
  | None -> t.newest <- node.older);
  (match node.older with
  | Some n -> n.newer <- node.newer
  | None -> t.oldest <- node.newer);
  node.newer <- None;
  node.older <- None

let push_newest t node =
  node.older <- t.newest;
  node.newer <- None;
  (match t.newest with Some n -> n.newer <- Some node | None -> ());
  t.newest <- Some node;
  match t.oldest with None -> t.oldest <- Some node | Some _ -> ()

let find_node t key =
  match Hashtbl.find_opt t.table (Fingerprint.of_key key) with
  | None -> None
  | Some bucket ->
    List.find_opt (fun n -> Fingerprint.equal_key n.nkey key) !bucket

let remove_node t node =
  let fp = Fingerprint.of_key node.nkey in
  (match Hashtbl.find_opt t.table fp with
  | Some bucket -> (
    match List.filter (fun n -> n != node) !bucket with
    | [] -> Hashtbl.remove t.table fp
    | rest -> bucket := rest)
  | None -> ());
  detach t node;
  t.size <- t.size - 1

let insert_node t key value =
  match find_node t key with
  | Some node ->
    (* Lost a race with another domain computing the same key; results are
       deterministic, so keeping the first value is equivalent. *)
    detach t node;
    push_newest t node
  | None ->
    let node = { nkey = key; nvalue = value; newer = None; older = None } in
    let fp = Fingerprint.of_key key in
    (match Hashtbl.find_opt t.table fp with
    | Some bucket -> bucket := node :: !bucket
    | None -> Hashtbl.add t.table fp (ref [ node ]));
    push_newest t node;
    t.size <- t.size + 1;
    while t.size > t.capacity do
      match t.oldest with
      | Some victim ->
        remove_node t victim;
        Option.iter Metrics.record_eviction t.metrics
      | None -> assert false
    done

(* --- single-flight registry (lock held) ------------------------------------ *)

let find_flight t key =
  match Hashtbl.find_opt t.flights (Fingerprint.of_key key) with
  | None -> None
  | Some fls -> List.find_opt (fun fl -> Fingerprint.equal_key fl.fkey key) !fls

let add_flight t fl =
  let fp = Fingerprint.of_key fl.fkey in
  match Hashtbl.find_opt t.flights fp with
  | Some fls -> fls := fl :: !fls
  | None -> Hashtbl.add t.flights fp (ref [ fl ])

let remove_flight t fl =
  let fp = Fingerprint.of_key fl.fkey in
  match Hashtbl.find_opt t.flights fp with
  | Some fls -> (
    match List.filter (fun f -> f != fl) !fls with
    | [] -> Hashtbl.remove t.flights fp
    | rest -> fls := rest)
  | None -> ()

(* --- public operations ---------------------------------------------------- *)

let find_opt t key =
  with_lock t (fun () ->
      match find_node t key with
      | Some node ->
        detach t node;
        push_newest t node;
        Some node.nvalue
      | None -> None)

let mem t key = with_lock t (fun () -> Option.is_some (find_node t key))
let insert t key value = with_lock t (fun () -> insert_node t key value)

let rec find_or_run t key run =
  (* flm-lint: allow concurrency/lock-pairing — single-flight condvar
     protocol: the hit path unlocks inline; the follower path unlocks
     inside [await] (Condition.wait re-acquires, and every outcome branch
     unlocks before returning/retrying); the leader path unlocks before
     computing and re-enters via [with_lock].  No path leaves the cache
     locked, but the release sites live in a local closure the static
     all-paths check cannot see. *)
  Mutex.lock t.lock;
  match find_node t key with
  | Some node ->
    detach t node;
    push_newest t node;
    Mutex.unlock t.lock;
    Option.iter Metrics.cache_hit t.metrics;
    node.nvalue
  | None -> (
    match find_flight t key with
    | Some fl ->
      (* Another domain is computing this key right now: wait for it
         instead of running the thunk twice.  The condvar releases the
         lock, so the cache stays usable while we wait. *)
      let rec await () =
        match fl.outcome with
        | Pending ->
          Condition.wait t.resolved t.lock;
          await ()
        | Done v ->
          Mutex.unlock t.lock;
          Option.iter Metrics.cache_hit t.metrics;
          Option.iter Metrics.record_dedup t.metrics;
          v
        | Abandoned ->
          (* The leader raised; errors are never shared, so retry (and
             probably lead this time). *)
          Mutex.unlock t.lock;
          find_or_run t key run
      in
      await ()
    | None -> (
      let fl = { fkey = key; outcome = Pending } in
      add_flight t fl;
      Mutex.unlock t.lock;
      Option.iter Metrics.cache_miss t.metrics;
      (* Compute outside the lock; only the flight's followers wait. *)
      match run () with
      | v ->
        with_lock t (fun () ->
            insert_node t key v;
            remove_flight t fl;
            fl.outcome <- Done v;
            Condition.broadcast t.resolved);
        v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        with_lock t (fun () ->
            remove_flight t fl;
            fl.outcome <- Abandoned;
            Condition.broadcast t.resolved);
        Printexc.raise_with_backtrace e bt))

let length t = with_lock t (fun () -> t.size)
