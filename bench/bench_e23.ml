(* E23: the deep-lint summary cache — cold vs warm interprocedural runs
   over the same tree.

   The deep pass (Flm_lint.run_deep) parses every file once, summarizes
   it in the same walk that runs the shallow rules (Lint_walk), and
   content-addresses the summary by source digest (Lint_cache).  A warm
   run re-reads sources only to digest them: every cache hit skips the
   compiler-libs parse and the walk entirely, and only the whole-repo
   half (graph build, SCC fixpoints, lock-order check) runs again.  This
   experiment measures
   that dividend and checks it changes nothing observable: the cold and
   warm reports must be identical. *)

let default_paths = [ "lib"; "bin"; "bench"; "test" ]

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let run ?out ?(paths = default_paths) () =
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "flm_e23_cache_%d" (Unix.getpid ()))
  in
  rm_rf cache_dir;
  let pass () =
    let t0 = Unix.gettimeofday () in
    match Flm_lint.run_deep ~use_cache:true ~cache_dir ~paths () with
    | Error e -> failwith ("E23: deep lint failed: " ^ e)
    | Ok (report, stats) -> Unix.gettimeofday () -. t0, report, stats
  in
  Fun.protect
    ~finally:(fun () -> rm_rf cache_dir)
    (fun () ->
      let cold_dt, cold_report, cold_stats = pass () in
      let warm_dt, warm_report, warm_stats = pass () in
      let hit_rate (s : Flm_lint.deep_stats) =
        let total = s.Flm_lint.hits + s.Flm_lint.misses in
        if total = 0 then 0.0
        else float_of_int s.Flm_lint.hits /. float_of_int total
      in
      let pass_record label dt (report : Lint_report.t)
          (stats : Flm_lint.deep_stats) =
        Bench_json.run_record ~label ~jobs:1 ~wall_seconds:dt
          ~cache_hit_rate:(hit_rate stats)
          ~extra:
            [ "files", Bench_json.Int report.Lint_report.files;
              "cache_hits", Bench_json.Int stats.Flm_lint.hits;
              "cache_misses", Bench_json.Int stats.Flm_lint.misses;
              ( "findings",
                Bench_json.Int (List.length report.Lint_report.findings) );
              "suppressed", Bench_json.Int report.Lint_report.suppressed;
            ]
          ()
      in
      let json =
        Bench_json.bench_record ~experiment:"E23"
          ~config:
            [ ( "paths",
                Bench_json.List
                  (List.map (fun p -> Bench_json.String p) paths) );
              "cores", Bench_json.Int (Domain.recommended_domain_count ());
            ]
          ~derived:
            [ ( "warm_speedup",
                Bench_json.Float
                  (if warm_dt > 0.0 then cold_dt /. warm_dt else 0.0) );
              ( "findings_equal",
                Bench_json.Bool
                  (cold_report.Lint_report.findings
                   = warm_report.Lint_report.findings
                  && cold_report.Lint_report.suppressed
                     = warm_report.Lint_report.suppressed) );
              "warm_hit_rate", Bench_json.Float (hit_rate warm_stats);
            ]
          ~runs:
            [ pass_record "cold" cold_dt cold_report cold_stats;
              pass_record "warm" warm_dt warm_report warm_stats;
            ]
          ()
      in
      (match out with Some path -> Bench_json.write_file ~path json | None -> ());
      json)
