(* The benchmark program: one run of one workload.

     flmbench --workload NAME --seed N --seconds S --trace 0|1 [--toy]

   prints notes and metrics by name with their units, then, as its last
   line, one JSON object {correct, attempted, failed, metrics}.  With
   --trace 0 the metrics are the end-to-end set; with --trace 1 the
   per-layer set from a separate traced run.  --toy shrinks every input
   for the self-test.  Everything it writes goes under .bench_run/ in the
   working directory, removed on exit. *)

let usage () =
  prerr_endline
    "usage: flmbench --workload (sweep_cold|serve_warm|serve_write|lint_deep) \
     --seed N --seconds S --trace 0|1 [--toy]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and toy = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: s :: rest ->
      seed := int_of_string_opt s;
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string_opt s;
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := Some (t = "1");
      parse rest
    | "--toy" :: rest ->
      toy := true;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run =
    match !workload with
    | "sweep_cold" -> Some (fun ~dir:_ ~toy ~seed:_ -> Pb_sweep.run ~toy)
    | "serve_warm" -> Some Pb_serve.run_warm
    | "serve_write" -> Some Pb_serve.run_write
    | "lint_deep" -> Some Pb_lint.run
    | _ -> None
  in
  match run, !seed, !seconds, !trace with
  | Some run, Some seed, Some seconds, Some trace when seconds > 0.0 ->
    let dir =
      Filename.concat ".bench_run" (Printf.sprintf "%s-%d" !workload (Unix.getpid ()))
    in
    Pb_stats.mkdir_p dir;
    let result =
      Fun.protect
        ~finally:(fun () ->
          Pb_stats.rm_rf dir;
          try Unix.rmdir ".bench_run" with Unix.Unix_error _ -> ())
        (fun () -> run ~dir ~toy:!toy ~seed ~seconds ~trace)
    in
    Printf.printf "# workload: %s seed=%d seconds=%g trace=%b\n" !workload seed seconds
      trace;
    Pb_result.print result;
    exit 0
  | _ -> usage ()
