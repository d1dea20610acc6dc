(* The CLI's exit-code contract: every typed Flm_error class surfaces as
   its own stable non-zero code (Flm_error.exit_code), and success is 0 —
   so driver scripts can dispatch on $? without parsing output.  Runs the
   real binary (argv.(1)) end to end.

   Run via the @cli-codes alias (wired into @runtest). *)

let failures = ref 0

let devnull () = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0

let run_exe exe args =
  let out = devnull () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin out out
  in
  let _, status = Unix.waitpid [] pid in
  Unix.close out;
  match status with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    Printf.eprintf "cli_codes: %s ended by signal %d\n%!"
      (String.concat " " args) s;
    255

let expect exe what code args =
  let got = run_exe exe args in
  if got = code then
    Printf.printf "cli_codes: ok: %-28s -> %d\n%!" what got
  else begin
    incr failures;
    Printf.eprintf "cli_codes: FAIL: %s: expected exit %d, got %d (flm %s)\n%!"
      what code got (String.concat " " args)
  end

let flip_byte path off =
  let ic = open_in_bin path in
  let s = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc s;
  close_out oc

let () =
  let exe =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else (
      prerr_endline "usage: cli_codes FLM_BINARY";
      exit 2)
  in
  let expect what code args = expect exe what code args in
  expect "success is 0" 0 [ "graph"; "-g"; "complete:4" ];
  (* Invalid_input (10): certifying an adequate graph, and chaos with f=0. *)
  expect "Invalid_input: adequate cert" 10
    [ "certify"; "ba"; "-n"; "4"; "--f"; "1" ];
  expect "Invalid_input: chaos f=0" 10
    [ "chaos"; "-g"; "complete:4"; "--f"; "0"; "--trials"; "1" ];
  (* ... and a size the triangle-only problems cannot certify. *)
  expect "Invalid_input: weak n=7 f=2" 10
    [ "certify"; "weak"; "-n"; "7"; "--f"; "2" ];
  (* Job_failed (11): the poison strategy raises mid-step. *)
  expect "Job_failed: poison chaos" 11
    [ "chaos"; "-g"; "complete:4"; "--f"; "1"; "--strategy"; "poison";
      "--trials"; "2" ];
  (* Job_timeout (12): a 1 ms deadline on a certificate that takes tens of
     milliseconds (K6 f=2 can finish within 1 ms). *)
  expect "Job_timeout: 1ms deadline" 12
    [ "certify"; "ba"; "-n"; "9"; "--f"; "3"; "--timeout-ms"; "1" ];
  (* Store_corrupt (15): verify over a deliberately damaged journal. *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "flm_cli_codes_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  expect "sweep --store succeeds" 0
    [ "sweep"; "--n-max"; "5"; "--f-max"; "1"; "--store"; dir; "-j"; "1" ];
  expect "store verify: clean" 0 [ "store"; "verify"; dir ];
  flip_byte (Filename.concat dir "journal.flm") 17;
  expect "Store_corrupt: store verify" 15 [ "store"; "verify"; dir ];
  (* A --resume sweep over the damaged store recovers and exits 0. *)
  expect "sweep --resume recovers" 0
    [ "sweep"; "--n-max"; "5"; "--f-max"; "1"; "--store"; dir; "--resume";
      "-j"; "1" ];
  expect "store gc succeeds" 0 [ "store"; "gc"; dir ];
  expect "store verify: clean after gc" 0 [ "store"; "verify"; dir ];
  (* Net (16): no daemon behind the socket path, and a socket path whose
     parent directory cannot exist. *)
  expect "Net: query, nothing listening" 16
    [ "query"; "stats"; "--socket"; Filename.concat dir "no-daemon.sock" ];
  expect "Net: serve, unbindable socket" 16
    [ "serve"; "--socket"; Filename.concat dir "missing/dir/s.sock";
      "--quiet"; "-j"; "1" ];
  (* Net (16) after the retry budget: the resilience flags retry the
     connect, then surface the same typed class and code. *)
  expect "Net: ping with retries" 16
    [ "query"; "ping"; "--socket"; Filename.concat dir "no-daemon.sock";
      "--retries"; "2"; "--backoff-ms"; "1"; "--deadline-ms"; "2000" ];
  (* An over-long socket path is refused client-side with the same code,
     in both query and serve. *)
  let long_path = "/tmp/" ^ String.make 120 'x' ^ ".sock" in
  expect "Net: query, over-long socket path" 16
    [ "query"; "ping"; "--socket"; long_path ];
  expect "Net: serve, over-long socket path" 16
    [ "serve"; "--socket"; long_path; "--quiet"; "-j"; "1" ];
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  if !failures > 0 then exit 1;
  print_endline "cli_codes: OK"
