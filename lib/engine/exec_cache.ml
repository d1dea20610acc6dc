type 'v node = {
  nkey : Fingerprint.key;
  nvalue : 'v;
  mutable newer : 'v node option;
  mutable older : 'v node option;
}

(* A single-flight ticket: the first domain to miss on a key becomes the
   leader and computes; followers that miss on the same key while the
   computation is in flight wait on the stripe's condvar instead of
   duplicating the work.  A leader that raises abandons the flight and the
   followers retry (usually becoming leaders themselves) — failures are
   never broadcast as values, mirroring the cache's never-admit-failures
   rule. *)
type 'v outcome = Pending | Done of 'v | Abandoned

type 'v flight = { fkey : Fingerprint.key; mutable outcome : 'v outcome }

type 'v stripe = {
  lock : Mutex.t;
  resolved : Condition.t;
  table : (Fingerprint.t, 'v node list ref) Hashtbl.t;
  flights : (Fingerprint.t, 'v flight list ref) Hashtbl.t;
  mutable newest : 'v node option;
  mutable oldest : 'v node option;
  mutable size : int;
}

type 'v t = {
  capacity : int;  (* total, across stripes *)
  per_stripe : int;
  stripes : 'v stripe array;
  metrics : Metrics.t option;
}

let reject detail =
  Flm_error.raise_error
    (Flm_error.Invalid_input { what = "cache config"; detail })

let create ?(capacity = 4096) ?(stripes = 16) ?metrics () =
  if capacity < 1 then reject "Exec_cache.create: capacity >= 1 required";
  if stripes < 1 then reject "Exec_cache.create: stripes >= 1 required";
  let nstripes = min stripes capacity in
  {
    capacity;
    per_stripe = max 1 (capacity / nstripes);
    stripes =
      Array.init nstripes (fun _ ->
          {
            lock = Mutex.create ();
            resolved = Condition.create ();
            table = Hashtbl.create (min (max 1 (capacity / nstripes)) 1024);
            flights = Hashtbl.create 8;
            newest = None;
            oldest = None;
            size = 0;
          });
    metrics;
  }

let capacity t = t.capacity

let stripe_for t key =
  let fp = Fingerprint.of_key key in
  t.stripes.(Int64.to_int fp land max_int mod Array.length t.stripes)

let with_stripe s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

(* --- intrusive doubly-linked recency list (stripe lock held) --------------- *)

let detach s node =
  (match node.newer with
  | Some n -> n.older <- node.older
  | None -> s.newest <- node.older);
  (match node.older with
  | Some n -> n.newer <- node.newer
  | None -> s.oldest <- node.newer);
  node.newer <- None;
  node.older <- None

let push_newest s node =
  node.older <- s.newest;
  node.newer <- None;
  (match s.newest with Some n -> n.newer <- Some node | None -> ());
  s.newest <- Some node;
  match s.oldest with None -> s.oldest <- Some node | Some _ -> ()

let find_node s key =
  match Hashtbl.find_opt s.table (Fingerprint.of_key key) with
  | None -> None
  | Some bucket ->
    List.find_opt (fun n -> Fingerprint.equal_key n.nkey key) !bucket

let remove_node s node =
  let fp = Fingerprint.of_key node.nkey in
  (match Hashtbl.find_opt s.table fp with
  | Some bucket -> (
    match List.filter (fun n -> n != node) !bucket with
    | [] -> Hashtbl.remove s.table fp
    | rest -> bucket := rest)
  | None -> ());
  detach s node;
  s.size <- s.size - 1

let insert_node t s key value =
  match find_node s key with
  | Some node ->
    (* Lost a race with another domain computing the same key; results are
       deterministic, so keeping the first value is equivalent. *)
    detach s node;
    push_newest s node
  | None ->
    let node = { nkey = key; nvalue = value; newer = None; older = None } in
    let fp = Fingerprint.of_key key in
    (match Hashtbl.find_opt s.table fp with
    | Some bucket -> bucket := node :: !bucket
    | None -> Hashtbl.add s.table fp (ref [ node ]));
    push_newest s node;
    s.size <- s.size + 1;
    while s.size > t.per_stripe do
      match s.oldest with
      | Some victim ->
        remove_node s victim;
        Option.iter Metrics.record_eviction t.metrics
      | None -> assert false
    done

(* --- single-flight registry (stripe lock held) ----------------------------- *)

let find_flight s key =
  match Hashtbl.find_opt s.flights (Fingerprint.of_key key) with
  | None -> None
  | Some fls -> List.find_opt (fun fl -> Fingerprint.equal_key fl.fkey key) !fls

let add_flight s fl =
  let fp = Fingerprint.of_key fl.fkey in
  match Hashtbl.find_opt s.flights fp with
  | Some fls -> fls := fl :: !fls
  | None -> Hashtbl.add s.flights fp (ref [ fl ])

let remove_flight s fl =
  let fp = Fingerprint.of_key fl.fkey in
  match Hashtbl.find_opt s.flights fp with
  | Some fls -> (
    match List.filter (fun f -> f != fl) !fls with
    | [] -> Hashtbl.remove s.flights fp
    | rest -> fls := rest)
  | None -> ()

(* --- public operations ---------------------------------------------------- *)

let find_opt t key =
  let s = stripe_for t key in
  with_stripe s (fun () ->
      match find_node s key with
      | Some node ->
        detach s node;
        push_newest s node;
        Some node.nvalue
      | None -> None)

let mem t key =
  let s = stripe_for t key in
  with_stripe s (fun () -> Option.is_some (find_node s key))

let insert t key value =
  let s = stripe_for t key in
  with_stripe s (fun () -> insert_node t s key value)

let rec find_or_run t ?metrics key run =
  let s = stripe_for t key in
  (* flm-lint: allow concurrency/lock-pairing — single-flight condvar
     protocol: the hit path unlocks inline; the follower path unlocks
     inside [await] (Condition.wait re-acquires, and every outcome branch
     unlocks before returning/retrying); the leader path unlocks before
     computing and re-enters via [with_stripe].  No path leaves the stripe
     locked, but the release sites live in a local closure the static
     all-paths check cannot see. *)
  Mutex.lock s.lock;
  match find_node s key with
  | Some node ->
    detach s node;
    push_newest s node;
    Mutex.unlock s.lock;
    Option.iter Metrics.cache_hit metrics;
    node.nvalue
  | None -> (
    match find_flight s key with
    | Some fl ->
      (* Another domain is computing this key right now: wait for it
         instead of running the thunk twice.  The condvar releases the
         stripe lock, so the stripe stays usable while we wait. *)
      let rec await () =
        match fl.outcome with
        | Pending ->
          Condition.wait s.resolved s.lock;
          await ()
        | Done v ->
          Mutex.unlock s.lock;
          Option.iter Metrics.cache_hit metrics;
          Option.iter Metrics.record_dedup metrics;
          v
        | Abandoned ->
          (* The leader raised; errors are never shared, so retry (and
             probably lead this time). *)
          Mutex.unlock s.lock;
          find_or_run t ?metrics key run
      in
      await ()
    | None -> (
      let fl = { fkey = key; outcome = Pending } in
      add_flight s fl;
      Mutex.unlock s.lock;
      Option.iter Metrics.cache_miss metrics;
      (* Compute outside the lock; only the flight's followers wait. *)
      match run () with
      | v ->
        with_stripe s (fun () ->
            insert_node t s key v;
            remove_flight s fl;
            fl.outcome <- Done v;
            Condition.broadcast s.resolved);
        v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        with_stripe s (fun () ->
            remove_flight s fl;
            fl.outcome <- Abandoned;
            Condition.broadcast s.resolved);
        Printexc.raise_with_backtrace e bt))

let length t =
  Array.fold_left
    (fun acc s -> acc + with_stripe s (fun () -> s.size))
    0 t.stripes
