(* serve_warm and serve_write: a forked `flm serve` daemon (jobs 1, store
   attached) driven by one closed-loop client over its Unix socket.

   serve_warm cycles a seeded mix of sweep/chaos/certify requests over a
   key set warmed during set-up, so every verdict is a cache hit.
   serve_write sends chaos requests on complete:5 with a fresh seed each,
   so every trial is a miss followed by a journaled Store.put. *)

module Req = Serve_proto.Request
module V = Serve_proto.Verdict

(* --- daemon lifecycle ------------------------------------------------------ *)

(* The client composed from Serve_proto's public codecs and framing on a
   raw socket: what Serve_client.request does, with optional spans around
   encode and decode.  The frame exchange (transport plus the daemon's
   service time) is never spanned. *)
type raw = { fd : Unix.file_descr; endpoint : string }

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { fd; endpoint = socket }

let raw_round_trip sp raw op =
  let t0 = Pb_stats.now () in
  let payload =
    Pb_span.span sp "serve_proto.encode" (fun () ->
        Bench_json.to_string (Req.to_json { Req.op; timeout_ms = None }))
  in
  let answer =
    match Serve_proto.write_frame ~endpoint:raw.endpoint raw.fd payload with
    | Error e -> Error (Flm_error.to_string e)
    | Ok () -> (
      match Serve_proto.read_frame ~endpoint:raw.endpoint raw.fd with
      | Ok (Serve_proto.Frame resp) ->
        Pb_span.incr ~by:(String.length resp) sp "serve_proto.bytes";
        Pb_span.span sp "serve_proto.decode" (fun () ->
            match Bench_json.parse resp with
            | Error e -> Error e
            | Ok doc -> (
              match Serve_proto.Response.of_json doc with
              | Ok (Serve_proto.Response.Result r) -> Ok r
              | Ok (Serve_proto.Response.Failed e) -> Error (Flm_error.to_string e)
              | Error e -> Error e))
      | Ok Serve_proto.Eof -> Error "eof"
      | Error e -> Error (Flm_error.to_string e))
  in
  Pb_stats.now () -. t0, payload, answer

(* The one client connection: the library client for end-to-end runs, the
   composed one for traced runs. *)
type conn = Client of Serve_client.t | Raw of raw

type daemon = {
  pid : int;
  socket : string;
  store_dir : string;
  mutable conn : conn option;
  mutable running : bool;
}

let disconnect d =
  (match d.conn with
  | Some (Client c) -> Serve_client.close c
  | Some (Raw r) -> Unix.close r.fd
  | None -> ());
  d.conn <- None

let use_raw d =
  disconnect d;
  d.conn <- Some (Raw (raw_connect d.socket))

let spans_off = Pb_span.create ~on:false ()

let request d op =
  match d.conn with
  | Some (Client c) ->
    Result.map_error Flm_error.to_string (Serve_client.result c { Req.op; timeout_ms = None })
  | Some (Raw r) ->
    let _, _, answer = raw_round_trip spans_off r op in
    answer
  | None -> Error "not connected"

let stop_pid pid =
  Unix.kill pid Sys.sigterm;
  ignore (Unix.waitpid [] pid)

(* Fork the daemon and wait until it answers a ping on the one client
   connection the workload then keeps. *)
let start ~dir =
  Pb_stats.mkdir_p dir;
  let socket = Filename.concat dir "d.sock" in
  let store_dir = Filename.concat dir "store" in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    let cfg =
      { Serve.socket_path = socket;
        jobs = 1;
        store_dir = Some store_dir;
        resume = false;
        max_sessions = Serve.default_max_sessions;
        engine_config = Engine.default_config }
    in
    Unix._exit (match Serve.run cfg with Ok _ -> 0 | Error _ -> 1)
  | pid ->
    let deadline = Pb_stats.now () +. 30.0 in
    let rec ready () =
      let ping c = Serve_client.result c { Req.op = Req.Ping; timeout_ms = None } in
      match Serve_client.connect ~socket_path:socket () with
      | Ok c when Result.is_ok (ping c) -> c
      | Ok c when Pb_stats.now () < deadline ->
        Serve_client.close c;
        Unix.sleepf 0.005;
        ready ()
      | Error _ when Pb_stats.now () < deadline ->
        Unix.sleepf 0.005;
        ready ()
      | Ok _ | Error _ ->
        stop_pid pid;
        failwith "daemon did not become ready"
    in
    { pid; socket; store_dir; conn = Some (Client (ready ())); running = true }

(* SIGTERM drains the daemon: it finishes, closes its store and exits. *)
let stop d =
  if d.running then begin
    d.running <- false;
    disconnect d;
    stop_pid d.pid
  end

(* The daemon's Stats document, flattened to (section.field, value). *)
let stats d =
  match request d Req.Stats with
  | Error e -> failwith ("stats: " ^ e)
  | Ok doc ->
    List.concat_map
      (fun section ->
        match Bench_json.member section doc with
        | Some (Bench_json.Obj fields) ->
          List.filter_map
            (fun (k, v) ->
              Option.map
                (fun x -> section ^ "." ^ k, x)
                (match v with
                | Bench_json.Int i -> Some (float_of_int i)
                | Bench_json.Float x -> Some x
                | _ -> None))
            fields
        | _ -> [])
      [ "server"; "engine" ]

let delta before after key = List.assoc key after -. List.assoc key before

let store_bytes d =
  match Result.map (Bench_json.member "bytes") (request d Req.Store_stat) with
  | Ok (Some (Bench_json.Int b)) -> float_of_int b
  | Ok _ -> failwith "store-stat: no bytes"
  | Error e -> failwith ("store-stat: " ^ e)

(* --- answers as verdicts --------------------------------------------------- *)

let verdicts op doc =
  let all f xs =
    List.fold_right
      (fun x acc ->
        match f x, acc with
        | Ok v, Ok vs -> Ok (v :: vs)
        | Error e, _ | _, Error e -> Error e)
      xs (Ok [])
  in
  match op, doc with
  | Req.Sweep _, Bench_json.List docs -> all V.of_json docs
  | Req.Chaos _, Bench_json.List docs ->
    all
      (fun d ->
        match Serve_proto.Slot.of_json d with
        | Ok (Ok v) -> Ok v
        | Ok (Error e) -> Error (Flm_error.to_string e)
        | Error e -> Error e)
      docs
  | Req.Certify _, _ -> Result.map (fun v -> [ v ]) (V.of_json doc)
  | _ -> Error "unexpected answer shape"

let same a b = List.length a = List.length b && List.for_all2 V.equal a b

(* The engine jobs one request fans out to, as the daemon builds them. *)
let jobs_of = function
  | Req.Sweep { n_max; f_max } ->
    List.map (fun (n, f) -> Job.Nf_cell { n; f }) (Sweep.nf_grid ~n_max ~f_max)
  | Req.Chaos { family; f; seed; strategy; trials } ->
    List.init trials (fun trial -> Job.Chaos_trial { family; f; seed; strategy; trial })
  | Req.Certify { problem; n; f } -> [ Job.Certify { problem; n; f } ]
  | Req.Store_stat | Req.Stats | Req.Ping -> []

(* --- the daemon's side, re-issued --------------------------------------- *)

(* The daemon's side of the same request, re-issued in this process:
   request decode, one key intern and cache lookup per job, [compute] on
   a miss, and the response encode. *)
let reissue sp cache ~payload ~compute op vs =
  Pb_span.span sp "serve_proto.decode" (fun () ->
      ignore (Result.map Req.of_json (Bench_json.parse payload)));
  let jobs = jobs_of op in
  if List.compare_lengths jobs vs <> 0 then Pb_span.incr sp "mismatch"
  else
    List.iter2
      (fun job v ->
        let key = Pb_span.span sp "fingerprint" (fun () -> Job.key job) in
        match Pb_span.span sp "exec_cache" (fun () -> Exec_cache.find_opt cache key) with
        | Some _ -> ()
        | None ->
          if not (compute job v) then Pb_span.incr sp "mismatch";
          Pb_span.span sp "exec_cache" (fun () -> Exec_cache.insert cache key v))
      jobs vs;
  Pb_span.span sp "serve_proto.encode" (fun () ->
      let doc =
        match op with
        | Req.Chaos _ ->
          Bench_json.List (List.map (fun v -> Serve_proto.Slot.to_json (Ok v)) vs)
        | Req.Certify _ -> V.to_json (List.hd vs)
        | _ -> Bench_json.List (List.map V.to_json vs)
      in
      ignore
        (Bench_json.to_string (Serve_proto.Response.to_json (Serve_proto.Response.Result doc))))

(* --- the shared workload loop ------------------------------------------------ *)

type spec = {
  tail_q : float;  (** the op_tail_ms percentile (see Pb_stats.tail) *)
  block : int;
      (** the traced run alternates spans off and on in blocks of this
          many ops: a whole request cycle, so both halves see the same mix *)
  rss_at : int option;
      (** read the daemon's peak RSS once this many timed requests have
          completed (at the end of the run if it ends first), for a
          workload whose daemon grows with every request *)
  setup : daemon -> bool;  (** warm-up on a fresh daemon; false if it failed *)
  op_at : int -> Req.op;  (** the i-th timed request *)
  check : int -> Bench_json.t -> V.t list option;
      (** the i-th answer decoded and checked (None if wrong); a non-empty
          list is kept for [finish] *)
  compute : Pb_span.t -> Job.t -> V.t -> bool;
      (** re-issue a cache miss; false if it disagrees with the daemon *)
  gates : before:(string * float) list -> after:(string * float) list -> ops:int -> bool;
      (** the daemon's counters over the timed phase *)
  finish : (int * V.t list) list -> bool;  (** checks on the kept answers *)
  after_stop : daemon -> ops:int -> bool;  (** checks once the daemon has drained *)
}

(* One set-up: a fresh daemon brought up and warmed, timed. *)
let setup ~dir spec k =
  let t0 = Pb_stats.now () in
  let d = start ~dir:(Filename.concat dir (Printf.sprintf "d%d" k)) in
  let ok = spec.setup d in
  d, Pb_stats.now () -. t0, ok

(* The first set-up's daemon serves the timed phase.  An untraced run
   sets up one more daemon at each of [marks] marks through its window
   (Pb_stats.marks), stopped and removed once timed, while the timed
   daemon idles.  setup_s is the median set-up. *)
let marks = 6

let extra_setup ~dir spec k =
  let d, dt, ok = setup ~dir spec k in
  stop d;
  Pb_stats.rm_rf (Filename.concat dir (Printf.sprintf "d%d" k));
  dt, ok

(* The closed loop: send request i, wait for its answer, check it outside
   the timed interval.  [round_trip i op] times the request and returns
   its answer; [extra] runs at each mark. *)
let loop ~seconds ~extra:(k, extra) spec ~round_trip =
  let m = Pb_stats.marks ~seconds k in
  let t_end = Pb_stats.now () +. seconds in
  let rec go i failed kept xs =
    if i > 0 && Pb_stats.now () >= t_end then
      i, failed, kept, List.rev xs @ Pb_stats.run_remaining m extra
    else
      let op = spec.op_at i in
      let answer = round_trip i op in
      let xs = List.rev_append (Pb_stats.run_due m extra) xs in
      match Result.to_option answer |> Option.map (spec.check i) |> Option.join with
      | Some [] -> go (i + 1) failed kept xs
      | Some vs -> go (i + 1) failed ((i, vs) :: kept) xs
      | None -> go (i + 1) (failed + 1) kept xs
  in
  go 0 0 [] []

let run_spec ~dir ~seconds ~trace spec =
  let d, first_s, first_ok = setup ~dir spec 0 in
  Fun.protect
    ~finally:(fun () -> stop d)
    (fun () ->
      let before = stats d in
      let bytes0 = store_bytes d in
      Pb_stats.reset_peak_rss d.pid;
      let plain = ref [] and traced = ref [] in
      (* per op, either half: its wall time less its client spans *)
      let outside = ref [] in
      (* Client spans sit inside the timed round trip; the daemon's side,
         re-issued after it, is spanned in a table of its own. *)
      let sp = Pb_span.create () and daemon_sp = Pb_span.create () in
      let cache = Exec_cache.create () in
      let round_trip =
        if not trace then (fun _ op ->
          let t0 = Pb_stats.now () in
          let answer = request d op in
          plain := (Pb_stats.now () -. t0) :: !plain;
          answer)
        else begin
          use_raw d;
          let raw = match d.conn with Some (Raw r) -> r | _ -> assert false in
          fun i op ->
            if (i / spec.block) mod 2 = 0 then begin
              let dt, _, answer = raw_round_trip spans_off raw op in
              plain := dt :: !plain;
              outside := dt :: !outside;
              answer
            end
            else begin
              let spanned = Pb_span.attributed sp in
              let dt, payload, answer = raw_round_trip sp raw op in
              traced := dt :: !traced;
              outside := (dt -. (Pb_span.attributed sp -. spanned)) :: !outside;
              (match Result.map (verdicts op) answer with
              | Ok (Ok vs) ->
                reissue daemon_sp cache ~payload ~compute:(spec.compute daemon_sp) op vs
              | Ok (Error _) | Error _ -> ());
              answer
            end
        end
      in
      let rss_early = ref None in
      let round_trip i op =
        let answer = round_trip i op in
        if spec.rss_at = Some (i + 1) then rss_early := Some (Pb_stats.peak_rss_mb d.pid);
        answer
      in
      let marks = if trace then 0 else marks in
      let reps = ref 0 in
      let extra () =
        incr reps;
        extra_setup ~dir spec !reps
      in
      let ops, failed_ops, kept, more = loop ~seconds ~extra:(marks, extra) spec ~round_trip in
      let setups = (first_s, first_ok) :: more in
      let setup_ok = List.for_all snd setups in
      let after = stats d in
      let bytes1 = store_bytes d in
      let rss =
        match !rss_early with Some r -> r | None -> Pb_stats.peak_rss_mb d.pid
      in
      let gates_ok = spec.gates ~before ~after ~ops in
      let finish_ok = spec.finish kept in
      stop d;
      let stop_ok = spec.after_stop d ~ops in
      let failed =
        failed_ops + Pb_span.count daemon_sp "mismatch"
        + List.length (List.filter not [ setup_ok; gates_ok; finish_ok; stop_ok ])
      in
      let notes =
        [ ( "gates",
            Printf.sprintf "setup %b, counters %b, answers %b, store %b" setup_ok gates_ok
              finish_ok stop_ok );
          ( "peak_rss_mb",
            match spec.rss_at, !rss_early with
            | Some n, Some _ -> Printf.sprintf "daemon VmHWM over the first %d timed requests" n
            | _ -> "daemon VmHWM over the timed phase" ) ]
      in
      if not trace then begin
        let metrics, tail_note =
          Pb_result.end_to_end ~tail_q:spec.tail_q ~setups:(List.map fst setups)
            ~op_seconds:!plain ~peak_rss_mb:rss
        in
        { Pb_result.attempted = ops; failed; metrics; notes = notes @ tail_note }
      end
      else begin
        let n_traced = List.length !traced in
        let _, client_us, count = Pb_result.per_op ~ops:n_traced sp in
        let ms, us, _ = Pb_result.per_op ~ops:n_traced daemon_sp in
        let per_op x = x /. float_of_int ops in
        let d k = delta before after ("engine." ^ k) in
        let hits = per_op (d "cache_hits") and misses = per_op (d "cache_misses") in
        let writes = d "store_writes" in
        let service_p50 = List.assoc "server.p50_ms" after in
        let p50_ms xs = Pb_stats.median (List.map (fun s -> 1000.0 *. s) xs) in
        let values =
          [ ( "serve_proto.encode_us",
              client_us "serve_proto.encode" +. us "serve_proto.encode" );
            ( "serve_proto.decode_us",
              client_us "serve_proto.decode" +. us "serve_proto.decode" );
            "serve_proto.response_bytes", count "serve_proto.bytes";
            "serve.service_p50_ms", service_p50;
            "serve.transport_us", 1000.0 *. (p50_ms !plain -. service_p50);
            "serve.failed", per_op (delta before after "server.failed");
            "serve.malformed", per_op (delta before after "server.malformed");
            "fingerprint.intern_us", us "fingerprint";
            "exec_cache.find_us", us "exec_cache";
            "exec_cache.hits", hits;
            "exec_cache.misses", misses;
            "exec_cache.hit_ratio", Pb_result.ratio hits (hits +. misses);
            "exec_cache.evictions", per_op (d "evictions");
            "exec.runs", per_op (d "executions_run");
            "exec.run_ms", ms "exec";
            ( "exec.us_per_run",
              Pb_result.ratio (1e6 *. Pb_span.seconds daemon_sp "exec")
                (float_of_int (Pb_span.count daemon_sp "exec")) );
            "store.put_us", us "store";
            "store.writes", per_op writes;
            "journal.bytes_per_write", Pb_result.ratio (bytes1 -. bytes0) writes;
            (* The round trip less what is attributed inside it: the
               client's codec spans and the daemon's service time.  Both
               medians are over the same requests, both halves: the
               daemon's latency sample does not tell them apart. *)
            "unattributed_ms", p50_ms !outside -. service_p50;
            (* The composed client with spans on against spans off. *)
            ( "trace.overhead_ratio",
              Pb_stats.median !traced /. Pb_stats.median !plain -. 1.0 );
            "fail_ratio", Pb_result.ratio (float_of_int failed) (float_of_int ops) ]
        in
        { Pb_result.attempted = ops;
          failed;
          metrics = Pb_result.layers values;
          notes =
            notes
            @ [ "ops",
                Printf.sprintf "%d with spans off, %d with spans on, alternating in blocks of %d"
                  (List.length !plain) n_traced spec.block ] }
      end)

(* --- serve_warm ------------------------------------------------------------- *)

let pick rng a = a.(Random.State.int rng (Array.length a))

(* The key set: 4 sweeps, 3 chaos batches, 2 certificates.  Its shape is
   the same for every seed: sweeps n <= 6..9 at f <= 2, 24-trial chaos
   batches with a fixed strategy on three adequate families (so every
   trial survives and verdicts have one size), and two fixed
   certificates.  The seed picks the chaos fault seeds and the cycle
   order: it changes which verdicts are served, not how much work a cycle
   is or how much the daemon holds. *)
let warm_keys rng ~toy =
  let sweeps =
    List.map
      (fun n_max -> Req.Sweep { n_max; f_max = (if toy then 1 else 2) })
      (if toy then [ 3; 4; 5; 6 ] else [ 6; 7; 8; 9 ])
  in
  let chaos =
    List.map
      (fun (family, strategy) ->
        Req.Chaos
          { family; f = 1; seed = Random.State.bits rng; strategy;
            trials = (if toy then 2 else 64) })
      [ "complete:4", "drop"; "complete:5", "chaos"; "harary:3:7", "crash" ]
  in
  let certs =
    [ Req.Certify { problem = Job.Ba; n = 4; f = 2 };
      Req.Certify { problem = Job.Ba_collapse; n = 5; f = 2 } ]
  in
  Array.of_list (sweeps @ chaos @ certs)

(* A 16-slot cycle, 4 sweep / 10 chaos / 2 certify, shuffled by the seed.
   Batch frames dominate, so an op is codec and lookup work rather than a
   bare socket hand-off, and the median falls inside the chaos frames'
   cost rather than on a boundary between request kinds. *)
let warm_cycle rng =
  let slots =
    Array.concat [ [| 0; 1; 2; 3 |]; Array.init 10 (fun i -> 4 + (i mod 3)); [| 7; 8 |] ]
  in
  for i = Array.length slots - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = slots.(i) in
    slots.(i) <- slots.(j);
    slots.(j) <- t
  done;
  slots

let run_warm ~dir ~toy ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let keys = warm_keys rng ~toy in
  let cycle = warm_cycle rng in
  let expected = Array.make (Array.length keys) [] in
  let op_at i = keys.(cycle.(i mod Array.length cycle)) in
  let spec =
    { tail_q = 0.99;
      block = Array.length cycle;
      rss_at = None;
      setup =
        (fun d ->
          Array.for_all Fun.id
            (Array.mapi
               (fun k op ->
                 match Result.map (verdicts op) (request d op) with
                 | Ok (Ok vs) ->
                   expected.(k) <- vs;
                   true
                 | _ -> false)
               keys));
      op_at;
      check =
        (fun i doc ->
          let k = cycle.(i mod Array.length cycle) in
          match verdicts keys.(k) doc with
          | Ok vs when same vs expected.(k) -> Some []
          | _ -> None);
      (* every timed request is a hit: nothing to compute *)
      compute = (fun _ _ _ -> true);
      gates =
        (fun ~before ~after ~ops:_ ->
          List.for_all
            (fun k -> delta before after ("engine." ^ k) = 0.0)
            [ "cache_misses"; "executions_run"; "store_writes" ]);
      finish = (fun _ -> true);
      after_stop = (fun _ ~ops:_ -> true) }
  in
  let r = run_spec ~dir ~seconds ~trace spec in
  { r with
    Pb_result.notes =
      ( "keys",
        String.concat " | "
          (Array.to_list
             (Array.map (fun op -> Req.label { Req.op; timeout_ms = None }) keys)) )
      :: r.Pb_result.notes }

(* --- serve_write ------------------------------------------------------------ *)

let write_trials = 4

let run_write ~dir ~toy ~seed ~seconds ~trace =
  let warmup = if toy then 5 else 100 in
  (* Fresh fault seeds: warm-up requests take 0..warmup-1, timed request
     i takes warmup+i, all offset by the workload seed. *)
  let base = (seed land 0xFFFF) * 1_000_000 in
  let chaos k =
    Req.Chaos
      { family = "complete:5"; f = 1; seed = base + k; strategy = "chaos";
        trials = write_trials }
  in
  let decode op doc =
    match verdicts op doc with
    | Ok vs when List.length vs = write_trials -> Some vs
    | _ -> None
  in
  (* The traced run re-issues each trial's journal write into a store of
     its own. *)
  let local =
    lazy
      (match Store.open_dir (Filename.concat dir "reissue") with
      | Ok s -> s
      | Error e -> failwith (Flm_error.to_string e))
  in
  let spec =
    { (* p99 here is the fsync stalls of whoever else shares the disk: it
         moved by 20-40% between runs of one seed, p90 by under 10% *)
      tail_q = 0.9;
      block = 1;
      (* The daemon's store index grows with every write, so its peak RSS
         is read at a fixed request count: a faster daemon must not read
         as a bigger one. *)
      rss_at = Some (if toy then 50 else 4000);
      setup =
        (fun d ->
          List.for_all
            (fun k ->
              let op = chaos k in
              match request d op with Ok doc -> decode op doc <> None | Error _ -> false)
            (List.init warmup Fun.id));
      op_at = (fun i -> chaos (warmup + i));
      check = (fun i doc -> decode (chaos (warmup + i)) doc);
      compute =
        (fun sp job answer ->
          (* Job.run builds the faulted system, runs Exec and judges it with
             Ba_spec in one call: Ba_spec time is folded into the exec span. *)
          let runs0 = Exec.total_runs () in
          let v = Pb_span.span sp "exec" (fun () -> Job.run job) in
          Pb_span.incr ~by:(Exec.total_runs () - runs0) sp "exec";
          let store = Lazy.force local in
          Pb_span.span sp "store" (fun () ->
              Store.put store ~key:(Job.describe job) (Option.get (Job.verdict_to_value v)));
          V.equal (V.of_job_verdict v) answer);
      gates =
        (fun ~before ~after ~ops ->
          let d k = delta before after ("engine." ^ k) in
          d "store_writes" = float_of_int (write_trials * ops)
          && d "cache_hits" = 0.0);
      (* A seeded sample of answers must equal an in-process replay. *)
      finish =
        (fun kept ->
          let rng = Random.State.make [| seed; 0x7e91 |] in
          let kept = Array.of_list kept in
          let eng = Engine.create ~jobs:1 () in
          let ok =
            Array.length kept > 0
            && List.for_all
                 (fun _ ->
                   let i, vs = pick rng kept in
                   let replay =
                     Engine.chaos eng ~family:"complete:5" ~f:1 ~seed:(base + warmup + i)
                       ~strategy:"chaos" ~trials:write_trials
                   in
                   same vs
                     (List.filter_map
                        (function Ok o -> Some (V.Chaos o) | Error _ -> None)
                        replay))
                 (List.init (if toy then 2 else 16) Fun.id)
          in
          Engine.shutdown eng;
          ok);
      after_stop =
        (fun d ~ops ->
          match Store.verify d.store_dir with
          | Ok (records, []) -> records = write_trials * (warmup + ops)
          | Ok (_, _ :: _) | Error _ -> false) }
  in
  Fun.protect
    ~finally:(fun () -> if Lazy.is_val local then Store.close (Lazy.force local))
    (fun () -> run_spec ~dir ~seconds ~trace spec)
