(* The flm command-line interface: inspect graphs, run protocols under
   attack, generate impossibility certificates, and sweep the 3f+1 / 2f+1
   boundaries. *)

let bool_default = Value.bool false

(* --- graph families ----------------------------------------------------- *)

(* Family specs parse through {!Topology.of_family}, so a malformed spec
   ("complete:xyz", "random:5") is a proper usage error, never a crash. *)
let family_conv =
  let parse s =
    match Topology.of_family s with Ok g -> Ok g | Error m -> Error (`Msg m)
  in
  let print ppf g = Format.fprintf ppf "graph(n=%d)" (Graph.n g) in
  Cmdliner.Arg.conv (parse, print)

(* Like {!family_conv}, but keeps the validated spec string — chaos jobs
   carry the family by name so the descriptor stays first-order. *)
let family_spec_conv =
  let parse s =
    match Topology.of_family s with Ok _ -> Ok s | Error m -> Error (`Msg m)
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_string)

let strategy_conv =
  let parse s =
    match Fault_strategy.of_string s with Ok _ -> Ok s | Error m -> Error (`Msg m)
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_string)

let graph_arg =
  let open Cmdliner in
  Arg.(
    required
    & opt (some family_conv) None
    & info [ "g"; "graph" ] ~docv:"FAMILY" ~doc:"Graph family, e.g. harary:3:7.")

let f_arg =
  let open Cmdliner in
  Arg.(
    value
    & opt int 1
    & info [ "f"; "faults" ] ~docv:"F" ~doc:"Number of faults tolerated.")

(* Shared by each batch subcommand and its [flm query] twin, so the two
   spellings cannot drift apart. *)
let n_max_arg =
  Cmdliner.Arg.(value & opt int 12 & info [ "n-max" ] ~doc:"Largest n.")

let f_max_arg =
  Cmdliner.Arg.(value & opt int 2 & info [ "f-max" ] ~doc:"Largest f.")

let family_arg =
  let open Cmdliner in
  Arg.(
    required
    & opt (some family_spec_conv) None
    & info [ "g"; "graph" ] ~docv:"FAMILY"
        ~doc:"Target graph family, e.g. harary:3:7.")

let fault_seed_arg =
  let open Cmdliner in
  Arg.(
    value & opt int 42
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed for every randomized fault decision; the same seed \
           reproduces the same trials, whatever the jobs count.")

let strategy_arg =
  let open Cmdliner in
  Arg.(
    value
    & opt strategy_conv "chaos"
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Fault strategy: drop[:P] | dup[:P] | corrupt[:P] | equivocate | \
           replay | crash | delay[:D] | mobile[:P] | poison | stall[:MS] | \
           chaos (weighted mix of the in-model strategies).")

let trials_arg =
  Cmdliner.Arg.(
    value & opt int 10 & info [ "trials" ] ~docv:"N" ~doc:"Trials to run.")

let jobs_arg =
  let open Cmdliner in
  let positive_int =
    let parse s =
      match Arg.conv_parser Arg.int s with
      | Ok n when n >= 1 -> Ok n
      | Ok _ -> Error (`Msg "expected a positive number of worker domains")
      | Error _ as e -> e
    in
    Arg.conv (parse, Arg.conv_printer Arg.int)
  in
  Arg.(
    value
    & opt positive_int (Engine.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the certificate engine (default: the \
           recommended domain count capped at 8 — small grids get slower, \
           not faster, past that; 1 forces the sequential path).")

let metrics_arg =
  let open Cmdliner in
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the engine's metrics report after the run.")

let timeout_arg =
  let open Cmdliner in
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-job deadline in milliseconds (cooperatively checked each \
           simulated round); a job past it yields a typed timeout instead of \
           a verdict.")

let engine_config timeout_ms = { Engine.timeout_ms }

let maybe_report eng metrics =
  if metrics then Format.printf "%s@." (Engine.report eng)

(* Terminal engine hand-off: print the report if asked, then release the
   persistent worker domains. *)
let finish eng metrics =
  maybe_report eng metrics;
  Engine.shutdown eng

(* Every typed failure exits with its class's stable code
   (Flm_error.exit_code), so scripts can dispatch without parsing output. *)
let fail_error e =
  Format.printf "error: %a@." Flm_error.pp e;
  exit (Flm_error.exit_code e)

let store_arg =
  let open Cmdliner in
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Checkpoint completed cells into a crash-safe certificate store at \
           $(docv) (created if missing).  Each verdict is journaled with CRC \
           framing and fsync'd before the next cell runs, so a killed run \
           loses at most the cell in flight.")

let resume_arg =
  let open Cmdliner in
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Serve already-checkpointed cells from the $(b,--store) directory \
           instead of recomputing them; the metrics report counts them as \
           resumed.")

(* Open the checkpoint store, surfacing (but surviving) skipped corrupt
   records: they are typed reports, and the affected cells just recompute. *)
let open_store dir =
  match Store.open_dir dir with
  | Error e -> fail_error e
  | Ok s ->
    (match Store.corruptions s with
    | [] -> ()
    | cs ->
      Format.printf
        "store: skipped %d corrupt record%s (affected cells will be \
         recomputed):@."
        (List.length cs)
        (if List.length cs = 1 then "" else "s");
      List.iter (fun e -> Format.printf "  %a@." Flm_error.pp e) cs);
    s

(* --- --profile: per-phase timing/allocation breakdown --------------------- *)

let profile_arg =
  let open Cmdliner in
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Write a per-phase wall-clock and allocation breakdown of this run \
           to $(docv) as a Bench_json document (same schema as the BENCH_* \
           artifacts, one run record per phase).")

(* Each phase appends (label, wall seconds, allocated bytes on this domain).
   Worker-domain allocation is not visible to [Gc.allocated_bytes]; the
   breakdown attributes phases of the driving domain, which is where setup
   and rendering cost live. *)
let profiled acc label f =
  match acc with
  | None -> f ()
  | Some phases ->
    let t0 = Unix.gettimeofday () in
    let a0 = Gc.allocated_bytes () in
    let result = f () in
    phases :=
      (label, Unix.gettimeofday () -. t0, Gc.allocated_bytes () -. a0)
      :: !phases;
    result

let write_profile ~command ~config eng path phases =
  let snap = Metrics.snapshot (Engine.metrics eng) in
  let runs =
    List.rev_map
      (fun (label, wall, bytes) ->
        Bench_json.run_record ~label ~jobs:(Engine.jobs eng)
          ~wall_seconds:(Bench_json.quantize_us wall)
          ~extra:[ "allocated_bytes", Bench_json.Float bytes ]
          ())
      !phases
  in
  let doc =
    Bench_json.bench_record ~experiment:(command ^ "-profile")
      ~config:
        (config
        @ [ "jobs", Bench_json.Int (Engine.jobs eng);
            "cores", Bench_json.Int (Domain.recommended_domain_count ());
          ])
      ~derived:
        [ "executions_run", Bench_json.Int snap.Metrics.executions_run;
          "scheduling_efficiency",
          Bench_json.Float
            (Bench_json.quantize_us (Metrics.scheduling_efficiency snap));
          "sched_batches", Bench_json.Int snap.Metrics.sched_batches;
        ]
      ~runs ()
  in
  Bench_json.write_file ~path doc;
  Format.printf "profile: wrote %s@." path

let checkpoint_summary eng =
  match Engine.store eng with
  | None -> ()
  | Some _ ->
    let snap = Metrics.snapshot (Engine.metrics eng) in
    Format.printf
      "checkpoint: %d resumed, %d recomputed, %d journal write%s@."
      snap.Metrics.resumed snap.Metrics.recomputed snap.Metrics.store_writes
      (if snap.Metrics.store_writes = 1 then "" else "s")

(* --- flm graph ----------------------------------------------------------- *)

let graph_cmd =
  let run g =
    let kappa = Connectivity.vertex g in
    Format.printf "nodes: %d@.edges: %d@.vertex connectivity: %d@."
      (Graph.n g) (Graph.edge_count g) kappa;
    Format.printf "edge connectivity: %d@." (Connectivity.edge g);
    Format.printf "max tolerable Byzantine faults: %d@."
      (Connectivity.max_tolerable_faults g);
    List.iter
      (fun f ->
        Format.printf "  f=%d: %s@." f
          (if Connectivity.is_adequate ~f g then "adequate"
           else "INADEQUATE (n < 3f+1 or kappa < 2f+1)"))
      [ 1; 2; 3 ];
    (match Connectivity.min_vertex_cut g with
    | [] -> ()
    | cut ->
      Format.printf "a minimum vertex cut: {%s}@."
        (String.concat "," (List.map string_of_int cut)));
    Format.printf "%a@." Graph.pp g
  in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "graph" ~doc:"Inspect a communication graph's adequacy.")
    Term.(const run $ graph_arg)

(* --- flm demo ------------------------------------------------------------ *)

let adversary_of name ~honest ~arity =
  match name with
  | "none" -> None
  | "silent" -> Some (Adversary.silent ~arity)
  | "crash" -> Some (Adversary.crash ~after:1 honest)
  | "split" ->
    Some
      (Adversary.split_brain honest
         ~inputs:(Array.init arity (fun j -> Value.bool (j mod 2 = 0))))
  | "babbler" ->
    Some
      (Adversary.babbler ~seed:42 ~arity
         ~palette:[ Value.bool true; Value.bool false; Value.int 9 ])
  (* The argument parser is an enum over exactly the names above. *)
  | _ -> assert false

let demo_cmd =
  let run n f adversary pattern =
    let g = Topology.complete n in
    Format.printf "EIG Byzantine agreement on K%d, f=%d (adequate: %b)@." n f
      (Connectivity.is_adequate ~f g);
    let inputs = Array.init n (fun u -> pattern land (1 lsl u) <> 0) in
    let sys =
      System.make g (fun u ->
          Eig.device ~n ~f ~me:u ~default:bool_default, Value.bool inputs.(u))
    in
    let faulty = List.init f (fun i -> n - 1 - i) in
    let sys =
      List.fold_left
        (fun acc u ->
          match
            adversary_of adversary
              ~honest:(Eig.device ~n ~f ~me:u ~default:bool_default)
              ~arity:(n - 1)
          with
          | None -> acc
          | Some d ->
            Format.printf "node %d is faulty (%s)@." u adversary;
            System.substitute acc u d)
        sys faulty
    in
    let trace = Exec.run sys ~rounds:(Eig.decision_round ~f + 1) in
    let correct =
      if adversary = "none" then Graph.nodes g
      else List.filter (fun u -> not (List.mem u faulty)) (Graph.nodes g)
    in
    List.iter
      (fun u ->
        Format.printf "node %d (input %b) decides %a@." u inputs.(u)
          Value.pp_opt (Trace.decision trace u))
      correct;
    Format.printf "conditions: %a@." Violation.pp_list
      (Ba_spec.check ~trace ~correct ~inputs:(fun u -> Value.bool inputs.(u)))
  in
  let open Cmdliner in
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Number of nodes.") in
  let adversary =
    let names = [ "none"; "silent"; "crash"; "split"; "babbler" ] in
    Arg.(
      value
      & opt (enum (List.map (fun a -> a, a) names)) "split"
      & info [ "a"; "adversary" ]
          ~doc:"none | silent | crash | split | babbler.")
  in
  let pattern =
    Arg.(value & opt int 0b0011 & info [ "inputs" ] ~doc:"Input bit pattern.")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run EIG agreement under an adversary.")
    Term.(const run $ n $ f_arg $ adversary $ pattern)

(* --- flm certify ---------------------------------------------------------- *)

let certify_cmd =
  let run problem n f full timeout_ms jobs metrics =
    let config = engine_config timeout_ms in
    let print_cert cert =
      if full then Format.printf "%a@." Certificate.pp cert
      else Format.printf "%a@." Certificate.pp_summary cert;
      match Certificate.validate cert with
      | Ok () -> Format.printf "(re-validated: OK)@."
      | Error m -> Format.printf "(VALIDATION FAILED: %s)@." m
    in
    match Job.cert_problem_of_string problem with
    | Some cert_problem ->
      (* The engine path: memoized, metered, supervised, and (for batches)
         parallel.  Bad problem sizes and blown deadlines come back as typed
         errors, not crashes. *)
      let eng = Engine.create ~jobs ~config () in
      (match Engine.certify_result eng ~problem:cert_problem ~n ~f with
      | Ok outcome ->
        print_cert outcome.Job.certificate;
        finish eng metrics
      | Error e ->
        finish eng metrics;
        fail_error e)
    | None when n <> 3 || f <> 1 ->
      (* The problems below are certified on the triangle only. *)
      fail_error
        (Flm_error.Invalid_input
           {
             what = problem ^ " certificate";
             detail =
               Printf.sprintf "only n=3, f=1 is supported, got n=%d, f=%d" n f;
           })
    | None ->
    let eng = Engine.create ~jobs ~config () in
    let print_cert cert =
      print_cert cert;
      finish eng metrics
    in
    match problem with
    | "weak" ->
      let deadline = Eig.decision_round ~f:1 in
      print_cert
        (Weak_ring.certify
           ~device:(fun w -> Eig.device ~n:3 ~f:1 ~me:w ~default:bool_default)
           ~deadline ~horizon:(deadline + 2) ())
    | "firing" ->
      let fire_round = Firing.fire_round ~f:1 in
      print_cert
        (Firing_ring.certify
           ~device:(fun w -> Firing.device ~n:3 ~f:1 ~me:w)
           ~fire_round ~horizon:(fire_round + 2) ())
    | "approx" ->
      print_cert
        (Approx_chain.certify_simple
           ~device:(fun w -> Approx.device ~n:3 ~f:1 ~me:w ~rounds:5)
           ~horizon:(Approx.decision_round ~rounds:5 + 1)
           ())
    | "edg" ->
      print_cert
        (Approx_chain.certify_edg
           ~device:(fun w -> Approx.device ~n:3 ~f:1 ~me:w ~rounds:4)
           ~eps:(1.0 /. 16.0) ~gamma:0.0 ~delta:1.0
           ~horizon:(Approx.decision_round ~rounds:4 + 1)
           ())
    | "clock" ->
      let params =
        {
          Clock_spec.p = Clock.linear ~rate:1.0 ();
          q = Clock.linear ~rate:2.0 ();
          lower = Fun.id;
          upper = (fun t -> t +. 2.0);
          alpha = 1.0;
          t_prime = 4.0;
        }
      in
      let cert =
        Clock_chain.certify
          ~device:(fun _ -> Clock_proto.averaging ~l:Fun.id ~arity:2)
          ~params ()
      in
      (if full then Format.printf "%a@." Clock_chain.pp cert
       else Format.printf "%a@." Clock_chain.pp_summary cert);
      finish eng metrics
    (* The argument parser is an enum over exactly the names above. *)
    | _ -> assert false
  in
  let open Cmdliner in
  let problem =
    let names =
      [ "ba"; "ba-collapse"; "ba-conn"; "weak"; "firing"; "approx"; "edg";
        "clock" ]
    in
    Arg.(
      value
      & pos 0 (enum (List.map (fun p -> p, p) names)) "ba"
      & info [] ~docv:"PROBLEM"
          ~doc:"ba | ba-collapse | ba-conn | weak | firing | approx | edg | clock.")
  in
  let n =
    Arg.(
      value & opt int 3
      & info [ "n" ]
          ~doc:
            "Nodes.  Problems other than ba, ba-collapse and ba-conn take only \
             the triangle: n=3 with f=1.")
  in
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Print the whole certificate.") in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Generate an impossibility certificate on an inadequate graph.")
    Term.(
      const run $ problem $ n $ f_arg $ full $ timeout_arg $ jobs_arg
      $ metrics_arg)

(* --- flm sweep ------------------------------------------------------------ *)

let sweep_cmd =
  let run n_max f_max timeout_ms jobs metrics store_dir resume profile =
    let phases = Option.map (fun _ -> ref []) profile in
    let eng, specs =
      profiled phases "build" @@ fun () ->
      let store = Option.map open_store store_dir in
      let eng =
        Engine.create ~jobs ~config:(engine_config timeout_ms) ?store ~resume
          ()
      in
      ( eng,
        List.map
          (fun (n, f) -> Job.Nf_cell { n; f })
          (Sweep.nf_grid ~n_max ~f_max) )
    in
    Format.printf
      "EIG on K_n: adequate cells must survive the adversary zoo; inadequate \
       cells must fall to the covering certificate.  (engine: %d worker \
       domain%s)@.@."
      (Engine.jobs eng)
      (if Engine.jobs eng = 1 then "" else "s");
    (* The supervised batch path: a cell that blows the deadline reports a
       typed error in place while every other cell still lands. *)
    let outcomes =
      profiled phases "execute" @@ fun () -> Engine.run_all_results eng specs
    in
    profiled phases "render" (fun () ->
        List.iter2
          (fun spec -> function
            | Error e -> Format.printf "%s: %a@." (Job.label spec) Flm_error.pp e
            | Ok _ -> ())
          specs outcomes;
        let cells =
          List.filter_map
            (function Ok (Job.Cell c) -> Some c | Ok _ | Error _ -> None)
            outcomes
        in
        Format.printf "%a@." Sweep.pp_nf cells;
        checkpoint_summary eng);
    (match profile, phases with
    | Some path, Some phases ->
      write_profile ~command:"sweep"
        ~config:
          [ "n_max", Bench_json.Int n_max; "f_max", Bench_json.Int f_max ]
        eng path phases
    | _ -> ());
    finish eng metrics;
    Option.iter Store.close (Engine.store eng);
    (* A partial sweep exits with the first failure's class code, so a
       driver script can tell a timeout from a bad input at a glance. *)
    List.iter
      (function Error e -> exit (Flm_error.exit_code e) | Ok _ -> ())
      outcomes
  in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Trace the 3f+1 boundary empirically.")
    Term.(
      const run $ n_max_arg $ f_max_arg $ timeout_arg $ jobs_arg $ metrics_arg
      $ store_arg $ resume_arg $ profile_arg)

(* --- flm chaos ------------------------------------------------------------ *)

let chaos_cmd =
  let run family f seed strategy trials timeout_ms jobs metrics store_dir
      resume profile =
    let phases = Option.map (fun _ -> ref []) profile in
    let eng =
      profiled phases "build" @@ fun () ->
      let store = Option.map open_store store_dir in
      Engine.create ~jobs ~config:(engine_config timeout_ms) ?store ~resume ()
    in
    Format.printf
      "chaos: %d trial%s of %s against %s, f=%d, seed=%d (engine: %d worker \
       domain%s%s)@.@."
      trials
      (if trials = 1 then "" else "s")
      strategy family f seed (Engine.jobs eng)
      (if Engine.jobs eng = 1 then "" else "s")
      (match timeout_ms with
      | Some ms -> Printf.sprintf ", %d ms/job deadline" ms
      | None -> "");
    let outcomes =
      profiled phases "execute" @@ fun () ->
      Engine.chaos eng ~family ~f ~seed ~strategy ~trials
    in
    profiled phases "render" (fun () ->
        let survived = ref 0 and violated = ref 0 and failed = ref 0 in
        List.iteri
          (fun trial -> function
            | Ok c ->
              if c.Job.survived then incr survived else incr violated;
              Format.printf "trial %2d: faulty=[%s] %-9s %s@." trial
                (String.concat "," (List.map string_of_int c.Job.faulty))
                (if c.Job.survived then "survived" else "VIOLATED")
                c.Job.strategy;
              List.iter
                (fun v -> Format.printf "          %s@." v)
                c.Job.violations
            | Error e ->
              incr failed;
              Format.printf "trial %2d: error: %a@." trial Flm_error.pp e)
          outcomes;
        (* The seed is the replay handle: print it in the summary so a
           failing run is reproducible even when the caller left it
           defaulted. *)
        Format.printf "@.%d survived, %d violated, %d failed (seed %d)@."
          !survived !violated !failed seed;
        checkpoint_summary eng);
    (match profile, phases with
    | Some path, Some phases ->
      write_profile ~command:"chaos"
        ~config:
          [ "family", Bench_json.String family;
            "f", Bench_json.Int f;
            "seed", Bench_json.Int seed;
            "strategy", Bench_json.String strategy;
            "trials", Bench_json.Int trials;
          ]
        eng path phases
    | _ -> ());
    finish eng metrics;
    Option.iter Store.close (Engine.store eng);
    (* Failed trials must be visible to scripts: exit with the first
       failure's class code rather than a blanket success. *)
    List.iter
      (function Error e -> exit (Flm_error.exit_code e) | Ok _ -> ())
      outcomes
  in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Inject seeded faults into a protocol run and report survivals, \
          violations, and supervised failures.")
    Term.(
      const run $ family_arg $ f_arg $ fault_seed_arg $ strategy_arg
      $ trials_arg $ timeout_arg $ jobs_arg $ metrics_arg $ store_arg
      $ resume_arg $ profile_arg)

(* --- flm store ------------------------------------------------------------ *)

let store_dir_pos =
  let open Cmdliner in
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"The store directory.")

let store_stat_cmd =
  let run dir =
    let s = open_store dir in
    let st = Store.stat s in
    Format.printf
      "journal: %s@.live keys: %d@.records: %d@.corrupt: %d@.bytes: %d@."
      st.Store.path st.Store.live st.Store.records st.Store.corrupt st.Store.bytes;
    Store.close s
  in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "stat" ~doc:"Summarize a store's journal.")
    Term.(const run $ store_dir_pos)

let store_verify_cmd =
  let run dir =
    (* Static scan: never rewrites anything, and a corrupt store exits with
       the Store_corrupt class code so CI can gate on it. *)
    match Store.verify dir with
    | Error e -> fail_error e
    | Ok (records, []) ->
      Format.printf "ok: %d record%s verified@." records
        (if records = 1 then "" else "s")
    | Ok (records, corruptions) ->
      Format.printf "%d record%s verified, %d corrupt:@." records
        (if records = 1 then "" else "s")
        (List.length corruptions);
      List.iter (fun e -> Format.printf "  %a@." Flm_error.pp e) corruptions;
      exit (Flm_error.exit_code (List.hd corruptions))
  in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Re-scan a store's journal and report every corrupt record.")
    Term.(const run $ store_dir_pos)

let store_gc_cmd =
  let run dir =
    let s = open_store dir in
    let dropped = Store.gc s in
    let st = Store.stat s in
    Format.printf "dropped %d frame%s; %d live record%s remain (%d bytes)@."
      dropped
      (if dropped = 1 then "" else "s")
      st.Store.live
      (if st.Store.live = 1 then "" else "s")
      st.Store.bytes;
    Store.close s
  in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Compact a store's journal: atomically rewrite it with only the \
          live records, dropping superseded and corrupt regions.")
    Term.(const run $ store_dir_pos)

let store_export_cmd =
  let run dir =
    let s = open_store dir in
    Store.iter s (fun ~key ~payload ->
        Format.printf "%a@.  %a@." Value.pp key Value.pp payload);
    Store.close s
  in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Print every live record (key, then indented payload) in \
          first-insertion order.")
    Term.(const run $ store_dir_pos)

let store_cmd =
  let open Cmdliner in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and maintain a crash-safe certificate store.")
    [ store_stat_cmd; store_verify_cmd; store_gc_cmd; store_export_cmd ]

(* --- flm serve / flm query ------------------------------------------------ *)

let socket_arg =
  let open Cmdliner in
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"The daemon's Unix domain socket path.")

let serve_cmd =
  let run socket jobs max_sessions timeout_ms store_dir resume quiet =
    let cfg =
      {
        Serve.socket_path = socket;
        jobs;
        store_dir;
        resume;
        max_sessions;
        engine_config = engine_config timeout_ms;
      }
    in
    let log =
      if quiet then fun _ -> ()
      else fun line ->
        print_endline ("serve: " ^ line);
        flush stdout
    in
    match Serve.run ~log cfg with
    | Ok report -> Format.printf "%s@." report
    | Error e -> fail_error e
  in
  let open Cmdliner in
  let max_sessions =
    Arg.(
      value
      & opt int Serve.default_max_sessions
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Concurrent client sessions; a connection past the bound is \
             refused with a typed overload error, never queued.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress lines.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived certificate daemon: one resident engine (warm \
          caches, persistent worker pool, optional crash-safe store) \
          answering certify/sweep/chaos/store-stat/stats requests over a \
          Unix socket.  Identical concurrent requests are computed once \
          (single-flight coalescing).  SIGTERM/SIGINT drain in-flight \
          sessions, then shut the engine and store down cleanly.")
    Term.(
      const run $ socket_arg $ jobs_arg $ max_sessions $ timeout_arg
      $ store_arg $ resume_arg $ quiet)

(* One request per invocation: connect, send, print the result document as
   JSON, exit with the class code of any typed failure — the daemon's
   errors keep their batch-mode exit codes end to end.  Requests go
   through the resilient client, so --retries/--backoff-ms/--deadline-ms
   buy bounded retries with seeded jitter; the default (0 retries) is a
   single attempt, exactly the bare client's behavior. *)
let query_run socket timeout_ms (retries, backoff_ms, deadline_ms) op =
  let io_timeout_ms =
    match timeout_ms with
    | Some ms -> max 600_000 (2 * ms)
    | None -> 600_000
  in
  let policy =
    {
      Resil_policy.retries;
      base_backoff_ms = backoff_ms;
      max_backoff_ms = max backoff_ms Resil_policy.default.max_backoff_ms;
      io_timeout_ms;
      deadline_ms;
    }
  in
  match Resil_client.create ~policy ~socket_path:socket () with
  | Error e -> fail_error e
  | Ok client ->
    let outcome = Resil_client.result client { Serve_proto.Request.op; timeout_ms } in
    Resil_client.close client;
    (match outcome with
    | Ok doc -> print_string (Bench_json.to_string doc)
    | Error e -> fail_error e)

let retry_args =
  let open Cmdliner in
  let retries =
    Arg.(
      value
      & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Extra attempts after the first on transient failures \
             (transport errors, overload and drain refusals, worker \
             crashes).  Safe for every query op: all are idempotent pure \
             queries.  0 = fail on the first error.")
  in
  let backoff =
    Arg.(
      value
      & opt int Resil_policy.default.Resil_policy.base_backoff_ms
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:
            "Base backoff between attempts; actual sleeps use seeded \
             decorrelated jitter growing up to a 2 s cap.")
  in
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Total budget for the call across every attempt and backoff \
             sleep; unset = bounded only by attempts.")
  in
  Term.(
    const (fun retries backoff deadline -> (retries, backoff, deadline))
    $ retries $ backoff $ deadline)

let query_timeout_arg =
  let open Cmdliner in
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-request deadline, enforced server-side (nested inside the \
           daemon's own per-job deadline; the tighter wins).")

let query_certify_cmd =
  let run socket timeout_ms retry problem n f =
    match Job.cert_problem_of_string problem with
    | Some problem ->
      query_run socket timeout_ms retry
        (Serve_proto.Request.Certify { problem; n; f })
    (* The argument parser is an enum over exactly the servable names. *)
    | None -> assert false
  in
  let open Cmdliner in
  let problem =
    let names = [ "ba"; "ba-collapse"; "ba-conn" ] in
    Arg.(
      value
      & pos 0 (enum (List.map (fun p -> p, p) names)) "ba"
      & info [] ~docv:"PROBLEM" ~doc:"ba | ba-collapse | ba-conn.")
  in
  let n = Arg.(value & opt int 3 & info [ "n" ] ~doc:"Nodes.") in
  Cmd.v
    (Cmd.info "certify" ~doc:"Ask the daemon for one covering certificate.")
    Term.(
      const run $ socket_arg $ query_timeout_arg $ retry_args $ problem $ n
      $ f_arg)

let query_sweep_cmd =
  let run socket timeout_ms retry n_max f_max =
    query_run socket timeout_ms retry
      (Serve_proto.Request.Sweep { n_max; f_max })
  in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Ask the daemon for a 3f+1 boundary sweep.")
    Term.(
      const run $ socket_arg $ query_timeout_arg $ retry_args $ n_max_arg
      $ f_max_arg)

let query_chaos_cmd =
  let run socket timeout_ms retry family f seed strategy trials =
    query_run socket timeout_ms retry
      (Serve_proto.Request.Chaos { family; f; seed; strategy; trials })
  in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "chaos" ~doc:"Ask the daemon for seeded fault-injection trials.")
    Term.(
      const run $ socket_arg $ query_timeout_arg $ retry_args $ family_arg
      $ f_arg $ fault_seed_arg $ strategy_arg $ trials_arg)

let query_store_stat_cmd =
  let run socket retry =
    query_run socket None retry Serve_proto.Request.Store_stat
  in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "store-stat" ~doc:"Summarize the daemon's store journal.")
    Term.(const run $ socket_arg $ retry_args)

let query_stats_cmd =
  let run socket retry = query_run socket None retry Serve_proto.Request.Stats in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Fetch the daemon's counters: requests by outcome, overload \
          refusals, p50/p99 latency, and the engine's cache and coalescing \
          figures.")
    Term.(const run $ socket_arg $ retry_args)

let query_ping_cmd =
  let run socket retry = query_run socket None retry Serve_proto.Request.Ping in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "ping"
       ~doc:
         "Health/readiness probe: answered straight off the daemon's \
          counters, never enqueued behind engine work — and still answered \
          (with draining=true) while a SIGTERM drain is refusing every \
          other op.")
    Term.(const run $ socket_arg $ retry_args)

let query_cmd =
  let open Cmdliner in
  Cmd.group
    (Cmd.info "query"
       ~doc:
         "Send one request to a running $(b,flm serve) daemon and print the \
          result document as JSON.  Server-side failures exit with the same \
          class codes as batch mode; transport failures exit with the Net \
          code.")
    [ query_certify_cmd;
      query_sweep_cmd;
      query_chaos_cmd;
      query_store_stat_cmd;
      query_stats_cmd;
      query_ping_cmd;
    ]

(* --- flm campaign --------------------------------------------------------- *)

let campaign_dir_arg =
  let open Cmdliner in
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:
          "Campaign directory (created if missing): the merged store journal \
           at its root, shard journals under shards/, the failure corpus \
           under corpus/.")

let pp_scenario ppf (s : Job.scenario) =
  Format.fprintf ppf "%s on %s (f=%d, seed=%d, trial=%d, rounds=%s): %s"
    s.Job.protocol s.Job.family s.Job.f s.Job.seed s.Job.trial
    (match s.Job.rounds with Some r -> string_of_int r | None -> "full")
    (String.concat "; "
       (List.map (fun (u, spec) -> Printf.sprintf "%d:%s" u spec) s.Job.faults))

let entry_label (e : Campaign_corpus.entry) =
  Printf.sprintf "%s/%s/f=%d/%s/trial=%d" e.Campaign_corpus.protocol
    e.Campaign_corpus.family e.Campaign_corpus.f e.Campaign_corpus.strategy
    e.Campaign_corpus.trial

let open_corpus dir =
  match Campaign_corpus.open_dir dir with
  | Ok c -> c
  | Error e -> fail_error e

let campaign_run_cmd =
  let run spec_path dir jobs timeout_ms shard_timeout_ms shard_retries
      no_shrink =
    match Campaign_spec.load spec_path with
    | Error e -> fail_error e
    | Ok spec -> (
      Format.printf "%a@." Campaign_spec.pp spec;
      let config =
        {
          Campaign.jobs = Some jobs;
          timeout_ms;
          shard_timeout_ms;
          shard_retries;
          shrink = not no_shrink;
        }
      in
      match Campaign.run ~dir ~config spec with
      | Error e -> fail_error e
      | Ok s ->
        List.iter
          (fun (r : Campaign.shard_report) ->
            match r.Campaign.result with
            | Ok () ->
              Format.printf "shard %d: ok (%d cells, %d attempt%s)@."
                r.Campaign.shard r.Campaign.cells r.Campaign.attempts
                (if r.Campaign.attempts = 1 then "" else "s")
            | Error e ->
              Format.printf "shard %d: %a@." r.Campaign.shard Flm_error.pp e)
          s.Campaign.shards;
        if s.Campaign.skipped > 0 then
          Format.printf "%d inapplicable cells skipped@." s.Campaign.skipped;
        Format.printf "%d cells: %d survived, %d violated, %d failed (seed %d)@."
          s.Campaign.total s.Campaign.survived s.Campaign.violated
          s.Campaign.failed spec.Campaign_spec.seed;
        Format.printf
          "corpus: %d entries (%d new, %d minimized); merged store: %d records@."
          s.Campaign.corpus s.Campaign.corpus_new s.Campaign.minimized
          s.Campaign.merged_records;
        if s.Campaign.interrupted then begin
          Format.printf
            "interrupted — merged journals checkpoint progress; re-run to \
             resume@.";
          exit
            (Flm_error.exit_code
               (Flm_error.Worker_crashed { detail = "campaign interrupted" }))
        end;
        List.iter
          (fun (r : Campaign.shard_report) ->
            match r.Campaign.result with
            | Error e -> exit (Flm_error.exit_code e)
            | Ok () -> ())
          s.Campaign.shards)
  in
  let open Cmdliner in
  let spec_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "Campaign spec: a JSON object with name, protocols, strategies, \
             families (templates instantiated per n), n_max, f_max, and \
             optional seed, trials, workers.")
  in
  let shard_timeout =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock deadline per worker process; an overdue shard is \
             killed and reported as a typed timeout.")
  in
  let shard_retries =
    Arg.(
      value & opt int 1
      & info [ "shard-retries" ] ~docv:"N"
          ~doc:
            "Re-forks for a crashed worker; the retried shard resumes from \
             its own journal.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Skip minimizing new corpus failures after the merge.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a declarative chaos campaign: shard the protocol x strategy x \
          topology x (n,f) cube over forked journaled workers, merge the \
          shard stores, and mine failures into the corpus.")
    Term.(
      const run $ spec_arg $ campaign_dir_arg $ jobs_arg $ timeout_arg
      $ shard_timeout $ shard_retries $ no_shrink)

let campaign_status_cmd =
  let run dir =
    match Campaign.status ~dir with
    | Error e -> fail_error e
    | Ok (primary, shards, corpus_entries) ->
      Format.printf "merged: %d live, %d records, %d bytes (%s)@."
        primary.Store.live primary.Store.records primary.Store.bytes
        primary.Store.path;
      List.iteri
        (fun i st ->
          Format.printf "shard %d: %d live, %d records, %d bytes@." i
            st.Store.live st.Store.records st.Store.bytes)
        shards;
      Format.printf "corpus: %d entries@." corpus_entries
  in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Report merged, shard, and corpus journal state without running.")
    Term.(const run $ campaign_dir_arg)

let campaign_replay_cmd =
  let run dir =
    let corpus = open_corpus dir in
    let entries = Campaign_corpus.entries corpus in
    if entries = [] then Format.printf "corpus is empty@.";
    let first_err = ref None in
    List.iter
      (fun e ->
        match Campaign_corpus.replay e with
        | Ok outcome ->
          Format.printf "%s: reproduced from seed %d (%s)@." (entry_label e)
            e.Campaign_corpus.seed
            (String.concat " | " outcome.Job.violations)
        | Error err ->
          if !first_err = None then first_err := Some err;
          Format.printf "%s: %a@." (entry_label e) Flm_error.pp err)
      entries;
    Store.close corpus;
    match !first_err with
    | Some e -> exit (Flm_error.exit_code e)
    | None -> ()
  in
  let open Cmdliner in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run every corpus failure from its recorded seed and check it \
          still reproduces the recorded outcome exactly.")
    Term.(const run $ campaign_dir_arg)

let campaign_shrink_cmd =
  let run dir force =
    let corpus = open_corpus dir in
    let entries = Campaign_corpus.entries corpus in
    if entries = [] then Format.printf "corpus is empty@.";
    let first_err = ref None in
    List.iter
      (fun e ->
        match e.Campaign_corpus.minimized with
        | Some sc when not force ->
          Format.printf "%s: already minimized: %a@." (entry_label e)
            pp_scenario sc
        | _ -> (
          match Campaign_shrink.minimize e with
          | Ok (scenario, _, stats) ->
            Campaign_corpus.record corpus
              { e with Campaign_corpus.minimized = Some scenario };
            Format.printf
              "%s: rounds %d->%d, nodes %d->%d, actions %d->%d (%d probes)@."
              (entry_label e) stats.Campaign_shrink.original.rounds
              stats.Campaign_shrink.shrunk.rounds
              stats.Campaign_shrink.original.nodes
              stats.Campaign_shrink.shrunk.nodes
              stats.Campaign_shrink.original.actions
              stats.Campaign_shrink.shrunk.actions
              stats.Campaign_shrink.probes;
            Format.printf "  minimized: %a@." pp_scenario scenario
          | Error err ->
            if !first_err = None then first_err := Some err;
            Format.printf "%s: %a@." (entry_label e) Flm_error.pp err))
      entries;
    Store.close corpus;
    match !first_err with
    | Some e -> exit (Flm_error.exit_code e)
    | None -> ()
  in
  let open Cmdliner in
  let force =
    Arg.(
      value & flag
      & info [ "force" ] ~doc:"Re-minimize entries that already carry a scenario.")
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Delta-debug each corpus failure to a minimal reproducing scenario \
          (rounds, then nodes, then fault actions) and persist it.")
    Term.(const run $ campaign_dir_arg $ force)

let campaign_cmd =
  let open Cmdliner in
  Cmd.group
    (Cmd.info "campaign"
       ~doc:
         "Fleet-scale chaos campaigns: declarative cube specs, sharded \
          journaled workers, a replayable failure corpus, and a \
          delta-debugging scenario minimizer.")
    [ campaign_run_cmd;
      campaign_status_cmd;
      campaign_replay_cmd;
      campaign_shrink_cmd;
    ]

(* --- flm lint ------------------------------------------------------------ *)

let lint_cmd =
  let run paths json rules deep no_cache cache_dir baseline write_baseline =
    if rules then Format.printf "%a" Lint_report.pp_rules ()
    else begin
      let paths = if paths = [] then [ "." ] else paths in
      let report =
        if deep then
          match
            Flm_lint.run_deep ~use_cache:(not no_cache) ?cache_dir ?baseline
              ?write_baseline ~paths ()
          with
          | Ok (report, _) -> report
          | Error detail ->
            prerr_endline ("flm lint: baseline: " ^ detail);
            exit
              (Flm_error.exit_code
                 (Flm_error.Invalid_input { what = "baseline"; detail }))
        else Flm_lint.run ~paths
      in
      if json then print_string (Lint_report.json_string report)
      else Format.printf "%a" Lint_report.pp_text report;
      exit (Lint_report.exit_code report)
    end
  in
  let open Cmdliner in
  let paths =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "Files or directories to lint (every $(b,.ml) under a \
             directory, $(b,_build) and dot-directories skipped).  \
             Defaults to the current directory.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ "text", false; "json", true ]) false
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: $(b,text) (default) or $(b,json).")
  in
  let rules =
    Arg.(
      value & flag
      & info [ "rules" ]
          ~doc:"Print the rule catalog and directory allow-list, then exit.")
  in
  let deep =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Interprocedural pass: build the whole-repo call graph, infer \
             transitive effect summaries per function (fixpoint over SCCs), \
             re-check the Locality scope table against them with a witness \
             path per finding, and detect cycles in the global lock-order \
             graph.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the content-addressed summary cache for this run.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Where deep-lint summaries live (default: \
             $(b,_build/flm-lint-cache)).")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Subtract the findings recorded in this baseline; only new \
             findings fail the run.")
  in
  let write_baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "write-baseline" ] ~docv:"FILE"
          ~doc:
            "Record the current findings as the new baseline and exit \
             clean.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check the Locality axiom and engine concurrency \
          invariants."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Parses every OCaml source with the compiler's own front end \
              and enforces the repo's semantic ground rules: protocol, \
              clock, and problem modules must be deterministic and local \
              (no ambient randomness, time, or shared mutable state); \
              engine and store code must pair every lock release with its \
              acquisition and raise typed errors.  Violations exit with \
              the Axiom_violation code; parse failures with the \
              Invalid_input code.";
           `P
             "Suppress a finding with a justified inline comment: (* \
              flm-lint: allow <rule> -- reason *).";
           `P
             "$(b,--deep) adds the interprocedural tier: transitive effect \
              inference over the call graph (a protocol step that reaches \
              Random.int through three helpers is flagged with the full \
              witness path) and global lock-order deadlock detection.  \
              Summaries are content-addressed by source digest, so warm \
              runs only re-analyze changed files; a committed baseline \
              ($(b,--baseline)) keeps CI failing only on new findings.";
         ])
    Term.(
      const run $ paths $ format $ rules $ deep $ no_cache $ cache_dir
      $ baseline $ write_baseline)

let () =
  let open Cmdliner in
  (* "--f" reads naturally but is a single-character option name to
     cmdliner (and would otherwise abbreviate "--fault-seed"); accept it as
     a spelling of "-f". *)
  let argv =
    Array.map
      (fun a ->
        if a = "--f" then "-f"
        else if String.length a > 4 && String.sub a 0 4 = "--f=" then
          "-f=" ^ String.sub a 4 (String.length a - 4)
        else a)
      Sys.argv
  in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval ~argv
       (Cmd.group ~default
          (Cmd.info "flm" ~version:"1.0.0"
             ~doc:
               "Easy impossibility proofs for distributed consensus problems \
                (Fischer-Lynch-Merritt 1985), executable.")
          [ graph_cmd;
            demo_cmd;
            certify_cmd;
            sweep_cmd;
            chaos_cmd;
            campaign_cmd;
            store_cmd;
            serve_cmd;
            query_cmd;
            lint_cmd;
          ]))
