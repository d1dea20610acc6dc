(* The kill-during-run soak: prove the checkpoint store's crash-safety
   end to end.  For each seed, a child process sweeps the grid while
   checkpointing into a store; the parent SIGKILLs it at a seeded random
   point mid-run, then resumes the sweep in-process from whatever the
   journal durably holds.  The resumed verdict set must be byte-identical
   (under the canonical codec) to an uninterrupted run, with every cell
   accounted for as either resumed or recomputed.  A final pass flips and
   truncates journal bytes to check that deliberate corruption surfaces as
   typed reports and recomputation, never wrong verdicts.

   Run via the @store-smoke alias (wired into @runtest). *)

let n_max = 9
let f_max = 2

let fail fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "store_smoke: FAIL: %s\n%!" m;
      exit 1)
    fmt

let open_store dir =
  match Store.open_dir dir with
  | Ok s -> s
  | Error e -> fail "open_dir %s: %s" dir (Flm_error.to_string e)

(* The canonical bytes of a verdict list: what "byte-identical" means. *)
let serialize cells =
  String.concat "|"
    (List.map
       (fun c ->
         match Job.verdict_to_value (Job.Cell c) with
         | Some v -> Store_codec.encode v
         | None -> fail "nf cells must be storable")
       cells)

let sweep ?store ?(resume = false) () =
  let eng = Engine.create ~jobs:2 ?store ~resume () in
  let cells = Engine.nf_boundary eng ~n_max ~f_max in
  cells, Metrics.snapshot (Engine.metrics eng)

(* Child mode: checkpoint the sweep into DIR until killed. *)
let run_child dir =
  let store = open_store dir in
  let _ = sweep ~store () in
  Store.close store;
  exit 0

let fresh_dir name =
  let d = Filename.concat (Filename.get_temp_dir_name ()) name in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  d

let cleanup dir =
  (try
     Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
   with _ -> ());
  try Unix.rmdir dir with _ -> ()

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* One seeded kill-resume round.  [reference] is the uninterrupted run's
   serialized verdicts; [duration] its wall-clock, which scales the seeded
   kill delay so the SIGKILL lands mid-sweep. *)
let soak_round ~reference ~duration ~total seed =
  let dir = fresh_dir (Printf.sprintf "flm_soak_%d_%d" (Unix.getpid ()) seed) in
  let frac, _ = Fault_prng.float (Fault_prng.of_seed seed) in
  let delay = (0.15 +. (0.7 *. frac)) *. duration in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--child"; dir |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Unix.sleepf delay;
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  let _, status = Unix.waitpid [] pid in
  let outcome =
    match status with
    | Unix.WSIGNALED s when s = Sys.sigkill -> "killed mid-run"
    | Unix.WEXITED 0 -> "finished before the kill"
    | _ -> fail "seed %d: child ended unexpectedly" seed
  in
  let store = open_store dir in
  let checkpointed = Store.length store in
  let torn = List.length (Store.corruptions store) in
  let cells, snap = sweep ~store ~resume:true () in
  Store.close store;
  if serialize cells <> reference then
    fail "seed %d: resumed verdicts differ from the uninterrupted run" seed;
  if snap.Metrics.resumed <> checkpointed then
    fail "seed %d: resumed %d cells but the store held %d" seed
      snap.Metrics.resumed checkpointed;
  if snap.Metrics.resumed + snap.Metrics.recomputed <> total then
    fail "seed %d: %d resumed + %d recomputed <> %d cells" seed
      snap.Metrics.resumed snap.Metrics.recomputed total;
  Printf.printf
    "store_smoke: seed %d: %s at %.2fs; %d checkpointed (%d torn), %d \
     resumed + %d recomputed, verdicts byte-identical\n%!"
    seed outcome delay checkpointed torn snap.Metrics.resumed
    snap.Metrics.recomputed;
  dir

(* Deliberate damage on a completed store: a flipped payload byte and a
   torn tail must each surface as typed corruption reports, and a resumed
   sweep must recompute exactly the lost cells and still match. *)
let corruption_round ~reference ~total dir =
  let path = Filename.concat dir "journal.flm" in
  (* A full, clean journal to damage. *)
  let store = open_store dir in
  let cells, _ = sweep ~store ~resume:true () in
  Store.close store;
  if serialize cells <> reference then fail "pre-damage run differs";
  let whole = read_file path in
  let damaged = Bytes.of_string whole in
  Bytes.set damaged 17 (Char.chr (Char.code (Bytes.get damaged 17) lxor 0x01));
  write_file path (Bytes.to_string damaged);
  (match Store.verify dir with
  | Ok (_, [ Flm_error.Store_corrupt _ ]) -> ()
  | Ok (_, cs) -> fail "bit flip: expected 1 corruption, got %d" (List.length cs)
  | Error e -> fail "bit flip: verify refused: %s" (Flm_error.to_string e));
  let store = open_store dir in
  let live = Store.length store in
  let cells, snap = sweep ~store ~resume:true () in
  Store.close store;
  if serialize cells <> reference then fail "bit flip: verdicts differ";
  if snap.Metrics.recomputed <> total - live || snap.Metrics.recomputed < 1
  then
    fail "bit flip: expected the damaged cell recomputed, got %d"
      snap.Metrics.recomputed;
  (* Compact away the flipped frame (its repair only superseded it) so the
     next damage pass starts from a clean journal. *)
  let store = open_store dir in
  let (_ : int) = Store.gc store in
  Store.close store;
  (match Store.verify dir with
  | Ok (n, []) when n = total -> ()
  | _ -> fail "gc did not leave a clean journal");
  (* Torn tail: chop the last few bytes, as a mid-append crash would. *)
  let whole = read_file path in
  write_file path (String.sub whole 0 (String.length whole - 5));
  (match Store.verify dir with
  | Ok (_, [ Flm_error.Store_corrupt _ ]) -> ()
  | Ok (_, cs) -> fail "torn tail: expected 1 corruption, got %d" (List.length cs)
  | Error e -> fail "torn tail: verify refused: %s" (Flm_error.to_string e));
  let store = open_store dir in
  let cells, snap = sweep ~store ~resume:true () in
  Store.close store;
  if serialize cells <> reference then fail "torn tail: verdicts differ";
  if snap.Metrics.recomputed < 1 then fail "torn tail: nothing recomputed";
  Printf.printf
    "store_smoke: corruption: bit flip and torn tail both detected, \
     recomputed, verdicts byte-identical\n%!"

(* --- cross-journal merge ------------------------------------------------- *)

(* Seed a source store with [keys], every key carrying the payload a
   deterministic recomputation would produce — overlapping shards agree on
   shared keys, which is what makes merge order erasable. *)
let seed_source dir keys =
  let store = open_store dir in
  List.iter
    (fun k ->
      Store.put store ~key:(Value.int k)
        (Value.tag "cell" (Value.pair (Value.int k) (Value.int (k * k)))))
    keys;
  Store.close store

let journal_bytes dir = read_file (Filename.concat dir "journal.flm")

(* Merge child mode: fold SRC into DST until killed.  At the lowest
   priority, so that on a busy host the watching parent, not the fold, gets
   the CPU. *)
let run_merge_child dst src =
  ignore (Unix.nice 19);
  let store = open_store dst in
  (match Store.merge_from store src with
  | Ok _ -> ()
  | Error e -> fail "merge child: %s" (Flm_error.to_string e));
  Store.close store;
  exit 0

(* (1) Order independence: three overlapping shard journals merged in two
   different orders compact (canonically) to byte-identical journals.
   (2) LWW: a foreign record with a different payload supersedes the local
   one.  (3) SIGKILL mid-merge: the destination reopens as a valid prefix
   of the merge, and re-merging completes to the byte-identical result. *)
let merge_round () =
  let pid = Unix.getpid () in
  let dir name = fresh_dir (Printf.sprintf "flm_merge_%s_%d" name pid) in
  let s1 = dir "s1" and s2 = dir "s2" and s3 = dir "s3" in
  seed_source s1 (List.init 10 (fun i -> i));
  seed_source s2 (List.init 10 (fun i -> i + 5));
  seed_source s3 (List.init 8 (fun i -> i + 12));
  let merge_all dst srcs =
    let store = open_store dst in
    let folded =
      List.map
        (fun src ->
          match Store.merge_from store src with
          | Ok n -> n
          | Error e -> fail "merge_from %s: %s" src (Flm_error.to_string e))
        srcs
    in
    let (_ : int) = Store.gc ~canonical:true store in
    let live = Store.length store in
    Store.close store;
    folded, live
  in
  let m1 = dir "m1" and m2 = dir "m2" in
  let folded1, live1 = merge_all m1 [ s1; s2; s3 ] in
  let _folded2, live2 = merge_all m2 [ s3; s1; s2 ] in
  if folded1 <> [ 10; 10; 8 ] then fail "merge: fold counts off";
  if live1 <> 20 || live2 <> 20 then
    fail "merge: expected 20 live keys, got %d and %d" live1 live2;
  if journal_bytes m1 <> journal_bytes m2 then
    fail "merge: journals differ across merge orders after canonical gc";
  (* LWW: the foreign payload for key 0 wins, durably. *)
  let s4 = dir "s4" in
  let store = open_store s4 in
  Store.put store ~key:(Value.int 0) (Value.string "superseder");
  Store.close store;
  let store = open_store m1 in
  (match Store.merge_from store s4 with
  | Ok 1 -> ()
  | Ok n -> fail "lww: folded %d records, expected 1" n
  | Error e -> fail "lww: %s" (Flm_error.to_string e));
  Store.close store;
  let store = open_store m1 in
  (match Store.find store (Value.int 0) with
  | Some v when Value.equal v (Value.string "superseder") -> ()
  | _ -> fail "lww: foreign record did not supersede the local one");
  if Store.length store <> 20 then fail "lww: key count changed";
  Store.close store;
  (* SIGKILL during a merge of a large source.  The fold writes each record
     without an fsync, so a kill on a timer can land after it finished.
     Instead the parent watches the destination journal grow, and once it
     holds [stop_at] records it stops the child (SIGSTOP) and kills it:
     every run cuts the fold mid-way, and a child that finished first
     fails the step.  Whatever survives must be a valid store, and a
     re-merge must complete to the byte-identical clean result. *)
  let big_n = 20_000 and stop_at = 64 in
  let big = dir "big" in
  seed_source big (List.init big_n (fun i -> i + 10_000));
  let clean = dir "clean" in
  let (_ : int list * int) = merge_all clean [ big ] in
  let magic = String.length Journal.magic in
  let record_bytes = (String.length (journal_bytes clean) - magic) / big_n in
  let threshold = magic + (stop_at * record_bytes) in
  let torn = dir "torn" in
  let journal = Filename.concat torn "journal.flm" in
  let size () =
    match Unix.stat journal with
    | st -> st.Unix.st_size
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  in
  let child =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--merge-child"; torn; big |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec watch () =
    if size () >= threshold then None
    else
      match Unix.waitpid [ Unix.WNOHANG ] child with
      | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill child Sys.sigkill;
          ignore (Unix.waitpid [] child);
          fail "mid-merge kill: the journal never reached %d bytes" threshold
        end;
        watch ()
      | _, status -> Some status
  in
  let status =
    match watch () with
    | Some status -> status
    | None ->
      (* A child that exited since the last look is a zombie until reaped,
         so neither signal can fail; [waitpid] tells the two cases apart. *)
      Unix.kill child Sys.sigstop;
      Unix.kill child Sys.sigkill;
      snd (Unix.waitpid [] child)
  in
  (match status with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | Unix.WEXITED 0 -> fail "mid-merge kill: the merge finished before the kill"
  | _ -> fail "merge child ended unexpectedly");
  let store = open_store torn in
  let partial = Store.length store in
  if partial < 1 || partial >= big_n then
    fail "mid-merge kill: %d keys from %d is not a partial merge" partial big_n;
  (match Store.merge_from store big with
  | Ok _ -> ()
  | Error e -> fail "re-merge: %s" (Flm_error.to_string e));
  let (_ : int) = Store.gc ~canonical:true store in
  if Store.length store <> big_n then
    fail "re-merge: expected %d keys, got %d" big_n (Store.length store);
  Store.close store;
  if journal_bytes torn <> journal_bytes clean then
    fail "re-merge after kill is not byte-identical to the clean merge";
  Printf.printf
    "store_smoke: merge: order-independent (byte-identical), LWW holds, \
     killed mid-merge at %d/%d keys, resumed to byte-identical\n%!"
    partial big_n;
  List.iter cleanup [ s1; s2; s3; s4; m1; m2; big; clean; torn ]

let run_parent () =
  let t0 = Unix.gettimeofday () in
  let cells, _ = sweep () in
  let duration = Unix.gettimeofday () -. t0 in
  let reference = serialize cells in
  let total = List.length cells in
  Printf.printf
    "store_smoke: reference: %d cells in %.2fs; killing at seeded points\n%!"
    total duration;
  let dirs =
    List.map (soak_round ~reference ~duration ~total) [ 11; 23; 42 ]
  in
  corruption_round ~reference ~total (List.hd dirs);
  List.iter cleanup dirs;
  merge_round ();
  print_endline "store_smoke: OK"

let () =
  match Sys.argv with
  | [| _; "--child"; dir |] -> run_child dir
  | [| _; "--merge-child"; dst; src |] -> run_merge_child dst src
  | _ -> run_parent ()
