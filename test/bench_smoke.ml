(* The machine-readable bench contract, wired into @runtest via the
   @bench-smoke alias: run E18 and E22 at tiny configurations, then check
   that the emitted records parse and satisfy the schema the README
   documents (experiment id, config, runs with label/jobs/wall_seconds).
   Also exercises the JSON round-trip on a synthetic record so a printer or
   parser regression fails here, not in a long bench run. *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "bench-smoke FAILED: %s\n" what
  end

let roundtrip () =
  let record =
    Bench_json.bench_record ~experiment:"E0"
      ~config:[ "n_max", Bench_json.Int 4; "note", Bench_json.String "a\"b\n" ]
      ~derived:[ "speedup", Bench_json.Float 1.5 ]
      ~runs:
        [ Bench_json.run_record ~label:"one" ~jobs:1 ~wall_seconds:0.25
            ~cache_hit_rate:0.5
            ~extra:[ "empty", Bench_json.List []; "null", Bench_json.Null ]
            ();
        ]
      ()
  in
  (match Bench_json.parse (Bench_json.to_string record) with
  | Ok reparsed ->
    check "round-trip preserves the record" (reparsed = record);
    check "round-trip validates" (Bench_json.validate reparsed = Ok ())
  | Error m -> check (Printf.sprintf "round-trip parses (%s)" m) false);
  check "validate rejects a record without runs"
    (Bench_json.validate (Bench_json.Obj [ "experiment", Bench_json.String "x" ])
    <> Ok ());
  check "parse rejects trailing garbage"
    (match Bench_json.parse "{} junk" with Ok _ -> false | Error _ -> true);
  (* Timings quantized with [quantize_us] print as fixed-point literals;
     unquantized floats still print in scientific %.17g form.  The strict
     parser must accept both spellings and read back the same float. *)
  let float_of src =
    match Bench_json.parse src with
    | Ok (Bench_json.Obj [ ("x", v) ]) -> Bench_json.to_float_opt v
    | _ -> None
  in
  check "parser accepts fixed-point float literals"
    (float_of "{\"x\": 0.123457}" = Some 0.123457);
  check "parser accepts scientific float literals"
    (float_of "{\"x\": 1.2345699999999999e-1}" = Some 0.12345699999999999);
  check "both spellings of the same float read back equal"
    (float_of "{\"x\": 0.250000}" = float_of "{\"x\": 2.5e-1}");
  check "quantized timings serialize as microsecond fixed-point"
    (Bench_json.to_string (Bench_json.Float (Bench_json.quantize_us 0.123456789))
    = "0.123457\n");
  check "unquantizable magnitudes pass through quantize_us"
    (Bench_json.quantize_us 2.5e12 = 2.5e12);
  check "quantized round-trip is exact"
    (let f = Bench_json.quantize_us 1.6180339887 in
     float_of (Printf.sprintf "{\"x\": %s}" (String.trim (Bench_json.to_string (Bench_json.Float f))))
     = Some f)

(* `flm lint --format json` speaks the same dialect: the report built on
   Bench_json must survive print-then-parse with its fields intact. *)
let lint_report_roundtrip () =
  let findings, _ =
    Flm_lint.check_source ~path:"lib/protocols/fixture.ml"
      "let coin () = Random.int 2"
  in
  let report = Lint_report.make ~findings ~suppressed:2 ~files:7 () in
  match Bench_json.parse (Lint_report.json_string report) with
  | Error m -> check (Printf.sprintf "lint JSON parses (%s)" m) false
  | Ok json ->
    check "lint JSON: tool"
      (Option.bind (Bench_json.member "tool" json) Bench_json.to_string_opt
      = Some "flm-lint");
    check "lint JSON: files"
      (Option.bind (Bench_json.member "files" json) Bench_json.to_int_opt
      = Some 7);
    check "lint JSON: suppressed"
      (Option.bind (Bench_json.member "suppressed" json) Bench_json.to_int_opt
      = Some 2);
    check "lint JSON: the finding's rule survives"
      (match
         Option.bind (Bench_json.member "findings" json) Bench_json.to_list_opt
       with
      | Some [ f ] ->
        Option.bind (Bench_json.member "rule" f) Bench_json.to_string_opt
        = Some "locality/random"
      | _ -> false)

let e18_tiny () =
  let out =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "flm_bench_smoke_%d.json" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let returned =
        Bench_e18.run ~out ~n_max:4 ~f_max:1 ~jobs_list:[ 1; 2 ] ~batches:3 ()
      in
      let contents =
        let ic = open_in out in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Bench_json.parse contents with
      | Error m -> check (Printf.sprintf "BENCH_E18.json parses (%s)" m) false
      | Ok json ->
        check "file matches the returned record" (json = returned);
        (match Bench_json.validate json with
        | Ok () -> ()
        | Error m ->
          check (Printf.sprintf "BENCH_E18.json validates (%s)" m) false);
        check "experiment id is E18"
          (Option.bind (Bench_json.member "experiment" json)
             Bench_json.to_string_opt
          = Some "E18");
        let runs =
          Option.value ~default:[]
            (Option.bind (Bench_json.member "runs" json) Bench_json.to_list_opt)
        in
        (* One cold + one warm run per jobs count, plus the two pool-overhead
           runs. *)
        check "runs: cold/warm per jobs count + pool overhead pair"
          (List.length runs = (2 * 2) + 2);
        check "every configured jobs count appears"
          (List.for_all
             (fun j ->
               List.exists
                 (fun r ->
                   Option.bind (Bench_json.member "jobs" r) Bench_json.to_int_opt
                   = Some j)
                 runs)
             [ 1; 2 ]);
        check "derived pool_reuse_speedup present"
          (Option.bind (Bench_json.member "derived" json) (fun d ->
               Option.bind
                 (Bench_json.member "pool_reuse_speedup" d)
                 Bench_json.to_float_opt)
          <> None))

let e22_tiny () =
  let json =
    Bench_e22.run ~baseline_execs_per_sec:38.7 ~n_max:4 ~f_max:1
      ~jobs_list:[ 1; 2 ] ()
  in
  (match Bench_json.validate json with
  | Ok () -> ()
  | Error m -> check (Printf.sprintf "E22 record validates (%s)" m) false);
  let derived_bool field =
    match
      Option.bind (Bench_json.member "derived" json) (Bench_json.member field)
    with
    | Some (Bench_json.Bool b) -> Some b
    | _ -> None
  in
  check "E22: the speedup criterion is met or relaxed on a single core"
    (derived_bool "jobs_speedup_ok" = Some true);
  check "E22: cores recorded in config"
    (Option.bind (Bench_json.member "config" json) (fun c ->
         Option.bind (Bench_json.member "cores" c) Bench_json.to_int_opt)
    = Some (Domain.recommended_domain_count ()))

let e23_tiny () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "flm_bench_smoke_e23_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write name contents =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "caller.ml" "let go v = Callee.mix v\n";
  write "callee.ml" "let mix v = v + 1\n";
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let json = Bench_e23.run ~paths:[ dir ] () in
      (match Bench_json.validate json with
      | Ok () -> ()
      | Error m -> check (Printf.sprintf "E23 record validates (%s)" m) false);
      check "E23: experiment id"
        (Option.bind (Bench_json.member "experiment" json)
           Bench_json.to_string_opt
        = Some "E23");
      let runs =
        Option.value ~default:[]
          (Option.bind (Bench_json.member "runs" json) Bench_json.to_list_opt)
      in
      check "E23: one cold and one warm pass"
        (List.map
           (fun r ->
             Option.bind (Bench_json.member "label" r) Bench_json.to_string_opt)
           runs
        = [ Some "cold"; Some "warm" ]);
      check "E23: the warm pass is all cache hits"
        (match runs with
        | [ _; warm ] ->
          Option.bind (Bench_json.member "cache_misses" warm)
            Bench_json.to_int_opt
          = Some 0
          && Option.bind (Bench_json.member "cache_hits" warm)
               Bench_json.to_int_opt
             = Some 2
        | _ -> false);
      let derived field =
        Option.bind (Bench_json.member "derived" json) (Bench_json.member field)
      in
      check "E23: the cache is observationally invisible"
        (derived "findings_equal" = Some (Bench_json.Bool true));
      check "E23: warm hit rate is 1"
        (derived "warm_hit_rate" = Some (Bench_json.Float 1.0)))

let () =
  roundtrip ();
  lint_report_roundtrip ();
  e18_tiny ();
  e22_tiny ();
  e23_tiny ();
  if !failures > 0 then begin
    Printf.eprintf "bench-smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "bench-smoke ok: JSON round-trip + tiny E18/E22/E23 contracts"
