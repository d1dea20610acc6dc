(* The persistence layer: CRC vectors, codec canonicity, journal crash
   safety (torn tails, bit flips, bad magic), store semantics across
   reopen/gc, and the engine's checkpoint/resume tier. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstring = Alcotest.string

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "flm_store_test_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iter
    (fun f -> Sys.remove (Filename.concat d f))
    (Sys.readdir d);
  d

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Flip one byte of the file at [off]. *)
let flip_byte path off =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0xFF));
  write_file path (Bytes.to_string s)

let truncate_file path n = write_file path (String.sub (read_file path) 0 n)

(* (a) CRC-32: the zlib check vector, the empty string, and incremental
   chaining agreeing with the one-shot form. *)
let crc32 () =
  check tint "zlib check vector" 0xCBF43926 (Crc32.string "123456789");
  check tint "empty string" 0 (Crc32.string "");
  let s = "the quick brown fox jumps over the lazy dog" in
  let split =
    Crc32.update
      (Crc32.update 0 s ~pos:0 ~len:10)
      s ~pos:10
      ~len:(String.length s - 10)
  in
  check tint "incremental = one-shot" (Crc32.string s) split

(* (b) The codec is a canonical bijection on the values we persist: every
   shape round-trips, equal values encode to equal bytes, and malformed
   input (trailing garbage, unknown tags, future versions) is rejected
   rather than misread. *)
let codec () =
  let samples =
    [ Value.unit;
      Value.bool true;
      Value.bool false;
      Value.int 0;
      Value.int max_int;
      Value.int min_int;
      Value.float 3.14159;
      Value.float (-0.0);
      Value.string "";
      Value.string "with \000 nul and \xff bytes";
      Value.pair (Value.int 1) (Value.string "x");
      Value.list [];
      Value.list [ Value.int 1; Value.list [ Value.bool true ]; Value.unit ];
      Value.tag "verdict:cell"
        (Value.list [ Value.int 7; Value.int 2; Value.bool false ]);
      Value.triple (Value.int 1) (Value.int 2) (Value.int 3);
    ]
  in
  List.iter
    (fun v ->
      check tbool "round-trips" true
        (Value.equal v (Store_codec.decode (Store_codec.encode v))))
    samples;
  check tstring "canonical: equal values, equal bytes"
    (Store_codec.encode (Value.list [ Value.int 1; Value.int 2 ]))
    (Store_codec.encode (Value.list [ Value.int 1; Value.int 2 ]));
  check tbool "distinct values, distinct bytes" false
    (Store_codec.encode (Value.list [ Value.int 1; Value.int 2 ])
    = Store_codec.encode (Value.list [ Value.list [ Value.int 1; Value.int 2 ] ]));
  let malformed s =
    match Store_codec.decode s with
    | _ -> false
    | exception Store_codec.Malformed _ -> true
  in
  check tbool "trailing garbage rejected" true
    (malformed (Store_codec.encode Value.unit ^ "x"));
  check tbool "truncation rejected" true
    (malformed (String.sub (Store_codec.encode (Value.int 5)) 0 4));
  check tbool "unknown tag byte rejected" true (malformed "\xee");
  (* Records carry a leading version byte; a future format must not be
     misread as the current one. *)
  let r =
    Store_codec.encode_record ~key:(Value.int 1) ~payload:(Value.int 2)
  in
  let k, p = Store_codec.decode_record r in
  check tbool "record round-trips" true
    (Value.equal k (Value.int 1) && Value.equal p (Value.int 2));
  let future = "\x63" ^ String.sub r 1 (String.length r - 1) in
  check tbool "version mismatch rejected" true
    (match Store_codec.decode_record future with
    | _ -> false
    | exception Store_codec.Malformed _ -> true)

(* (c) Journal crash-safety: append/scan round-trip, torn tails detected
   and reported (not deserialized), a bit-flipped payload skipped while
   later frames still scan, and a bad magic header refusing the file. *)
let journal () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "journal.flm" in
  check tbool "missing file scans as empty" true
    (match Journal.scan path with
    | Ok { Journal.records = []; corruptions = []; _ } -> true
    | _ -> false);
  let w = Journal.open_append path in
  Journal.append w "alpha";
  Journal.append w "beta";
  Journal.append w "gamma";
  Journal.close w;
  let payloads () =
    match Journal.scan path with
    | Ok { Journal.records; corruptions; _ } ->
      List.map snd records, corruptions
    | Error _ -> Alcotest.fail "journal should scan"
  in
  check tbool "append/scan round-trip" true
    (fst (payloads ()) = [ "alpha"; "beta"; "gamma" ]);
  (* Torn tail: chop mid-frame.  The intact prefix survives; the tail is a
     typed corruption, not garbage records. *)
  let whole = read_file path in
  truncate_file path (String.length whole - 3);
  let recs, corrs = payloads () in
  check tbool "torn tail: prefix survives" true (recs = [ "alpha"; "beta" ]);
  check tint "torn tail: one corruption" 1 (List.length corrs);
  check tbool "torn tail: typed Store_corrupt" true
    (match corrs with
    | [ Flm_error.Store_corrupt _ ] -> true
    | _ -> false);
  (* Appending over a torn tail must first truncate it (scan's valid_end):
     a frame written after unverifiable garbage would be unreachable. *)
  let valid_end =
    match Journal.scan path with
    | Ok r -> r.Journal.valid_end
    | Error _ -> Alcotest.fail "torn journal should still scan"
  in
  let w = Journal.open_append ~truncate_at:valid_end path in
  Journal.append w "delta";
  Journal.close w;
  let recs, corrs = payloads () in
  check tbool "append after tear heals the tail" true
    (recs = [ "alpha"; "beta"; "delta" ] && corrs = []);
  write_file path whole;
  (* Bit flip inside the middle payload: CRC catches it, the frame is
     skipped, and the final frame still scans. *)
  flip_byte path (8 + (8 + 5) + 8 + 1);
  let recs, corrs = payloads () in
  check tbool "bit flip: damaged frame skipped" true
    (recs = [ "alpha"; "gamma" ]);
  check tint "bit flip: one corruption" 1 (List.length corrs);
  (* Bad magic: nothing in the file can be trusted. *)
  write_file path ("XXXXXXXX" ^ String.sub whole 8 (String.length whole - 8));
  check tbool "bad magic is a hard error" true
    (match Journal.scan path with
    | Error (Flm_error.Store_corrupt _) -> true
    | _ -> false);
  (* rewrite: atomic replacement with exactly the given payloads. *)
  Journal.rewrite path [ "one"; "two" ];
  check tbool "rewrite replaces contents" true
    (fst (payloads ()) = [ "one"; "two" ])

(* (d) Store semantics: durability across reopen, last-writer-wins on
   duplicate keys, no-op puts, corruption skip-and-survive, verify, and gc
   compaction. *)
let store () =
  let dir = fresh_dir () in
  let key i = Value.tag "k" (Value.int i) in
  let s =
    match Store.open_dir dir with
    | Ok s -> s
    | Error _ -> Alcotest.fail "open_dir should succeed"
  in
  Store.put s ~key:(key 1) (Value.string "one");
  Store.put s ~key:(key 2) (Value.string "two");
  check tbool "find returns the payload" true
    (match Store.find s (key 1) with
    | Some v -> Value.equal v (Value.string "one")
    | None -> false);
  check tbool "mem on absent key" false (Store.mem s (key 9));
  (* An equal re-put must not grow the journal (resume without rewrites). *)
  let bytes_before = (Store.stat s).Store.bytes in
  Store.put s ~key:(key 1) (Value.string "one");
  check tint "equal re-put is a no-op" bytes_before (Store.stat s).Store.bytes;
  (* A differing re-put supersedes. *)
  Store.put s ~key:(key 2) (Value.string "TWO");
  Store.close s;
  (* Reopen: everything durable, duplicate key resolved last-writer-wins. *)
  let s =
    match Store.open_dir dir with
    | Ok s -> s
    | Error _ -> Alcotest.fail "reopen should succeed"
  in
  check tint "reopen sees live keys" 2 (Store.length s);
  check tbool "last writer wins across reopen" true
    (match Store.find s (key 2) with
    | Some v -> Value.equal v (Value.string "TWO")
    | None -> false);
  let st = Store.stat s in
  check tint "stat counts superseded frames" 3 st.Store.records;
  check tbool "verify is clean" true
    (match Store.verify dir with Ok (3, []) -> true | _ -> false);
  (* gc drops the superseded frame and the journal shrinks. *)
  let dropped = Store.gc s in
  check tint "gc drops the superseded frame" 1 dropped;
  check tint "gc keeps the live records" 2 (Store.length s);
  check tbool "gc'd journal verifies with fewer records" true
    (match Store.verify dir with Ok (2, []) -> true | _ -> false);
  (* The store keeps working after gc (writer reopens lazily). *)
  Store.put s ~key:(key 3) (Value.string "three");
  Store.close s;
  (* Corrupt one record on disk: the store still opens, reports a typed
     corruption, serves the intact records, and a fresh put of the damaged
     key repairs it. *)
  let path = Filename.concat dir "journal.flm" in
  (* Offset 17: one byte into the first frame's payload (8 magic + 8 frame
     header + 1), i.e. inside key 1's record. *)
  flip_byte path 17;
  let s =
    match Store.open_dir dir with
    | Ok s -> s
    | Error _ -> Alcotest.fail "a corrupt record must not refuse the store"
  in
  check tint "one corruption reported" 1 (List.length (Store.corruptions s));
  check tint "intact records survive" 2 (Store.length s);
  check tbool "damaged key reads as absent" false (Store.mem s (key 1));
  Store.put s ~key:(key 1) (Value.string "one");
  check tbool "repair by re-put" true (Store.mem s (key 1));
  (* gc rewrites a clean journal and clears the corruption reports. *)
  let (_ : int) = Store.gc s in
  check tint "gc clears corruption reports" 0
    (List.length (Store.corruptions s));
  check tbool "post-repair journal verifies clean" true
    (match Store.verify dir with Ok (3, []) -> true | _ -> false);
  (* iter is first-insertion order: the surviving scan records (2, 3), then
     key 1's repair. *)
  let order = ref [] in
  Store.iter s (fun ~key ~payload:_ ->
      order := Value.get_int (Value.untag "k" key) :: !order);
  check tbool "iter in first-insertion order" true (List.rev !order = [ 2; 3; 1 ]);
  Store.close s

(* (e) The engine's persistent tier: a swept grid checkpoints every cell, a
   fresh engine with [resume] serves them byte-identically without
   recomputing, and unparseable/missing records fall back to execution. *)
let engine_resume () =
  let dir = fresh_dir () in
  let store =
    match Store.open_dir dir with
    | Ok s -> s
    | Error _ -> Alcotest.fail "open_dir should succeed"
  in
  let cold = Engine.create ~jobs:1 ~store () in
  let reference = Engine.nf_boundary cold ~n_max:6 ~f_max:1 in
  let snap = Metrics.snapshot (Engine.metrics cold) in
  check tint "every cell journaled" (List.length reference)
    snap.Metrics.store_writes;
  check tint "cold run resumed nothing" 0 snap.Metrics.resumed;
  Store.close store;
  (* Resume into a fresh engine: all cells come from the store, and the
     verdicts are byte-identical under the canonical codec. *)
  let store =
    match Store.open_dir dir with
    | Ok s -> s
    | Error _ -> Alcotest.fail "reopen should succeed"
  in
  let warm = Engine.create ~jobs:1 ~store ~resume:true () in
  let resumed = Engine.nf_boundary warm ~n_max:6 ~f_max:1 in
  let snap = Metrics.snapshot (Engine.metrics warm) in
  check tint "warm run recomputed nothing" 0 snap.Metrics.recomputed;
  check tint "warm run resumed every cell" (List.length reference)
    snap.Metrics.resumed;
  let bytes cells =
    String.concat "|"
      (List.map
         (fun c ->
           match Job.verdict_to_value (Job.Cell c) with
           | Some v -> Store_codec.encode v
           | None -> Alcotest.fail "cells are storable")
         cells)
  in
  check tstring "resumed verdicts byte-identical" (bytes reference)
    (bytes resumed);
  (* Without [resume], the store is write-behind only. *)
  let no_resume = Engine.create ~jobs:1 ~store () in
  let again = Engine.nf_boundary no_resume ~n_max:6 ~f_max:1 in
  check tbool "no-resume engine recomputes" true (again = reference);
  check tint "no-resume engine resumed nothing" 0
    (Metrics.snapshot (Engine.metrics no_resume)).Metrics.resumed;
  Store.close store;
  (* Cert verdicts carry closures: never persisted, by construction. *)
  check tbool "certificates are not storable" true
    (Job.verdict_to_value
       (Job.run (Job.Certify { problem = Job.Ba; n = 3; f = 1 }))
    = None)

(* (f) Every crash point of a real journal.  Appends are not fsynced one by
   one, so an OS crash may cut the file anywhere after the last sync: for
   every byte offset, the scan must return exactly the whole frames before
   the cut, and appending at its [valid_end] must land a frame that scans
   back after them. *)
let journal_crash_points () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "journal.flm" in
  let payloads =
    List.init 24 (fun i ->
        Store_codec.encode_record
          ~key:(Value.tag "cell" (Value.int i))
          ~payload:(Value.string (String.make (7 * i) (Char.chr (97 + (i mod 26))))))
  in
  let w = Journal.open_append path in
  List.iter (Journal.append w) payloads;
  check tbool "the batch syncs once" true (Journal.sync w = Ok true);
  check tbool "a clean writer does not sync" true (Journal.sync w = Ok false);
  Journal.close w;
  let whole = read_file path in
  check tbool "a journal of a few KB" true (String.length whole > 2048);
  (* [ends.(i)] is the offset just past frame [i]. *)
  let ends =
    let pos = ref (String.length Journal.magic) in
    Array.of_list
      (List.map
         (fun p ->
           pos := !pos + 8 + String.length p;
           !pos)
         payloads)
  in
  let bad = ref [] in
  for cut = 0 to String.length whole do
    write_file path (String.sub whole 0 cut);
    let whole_frames =
      List.filteri (fun i _ -> ends.(i) <= cut) payloads
    in
    let boundary =
      cut = 0 || cut = String.length Journal.magic
      || Array.exists (( = ) cut) ends
    in
    let ok =
      match Journal.scan path with
      | exception _ -> false
      | Error _ -> false
      | Ok { Journal.records; corruptions; valid_end; _ } ->
        List.map snd records = whole_frames
        && List.length corruptions = (if boundary then 0 else 1)
        &&
        let w = Journal.open_append ~truncate_at:valid_end path in
        Journal.append w "resumed";
        Journal.close w;
        match Journal.scan path with
        | Ok { Journal.records; corruptions = []; _ } ->
          List.map snd records = whole_frames @ [ "resumed" ]
        | Ok _ | Error _ -> false
    in
    if not ok then bad := cut :: !bad
  done;
  check (Alcotest.list tint) "every cut scans its whole frames and resumes" []
    (List.rev !bad);
  (* A failed fsync is typed, names the first byte not known durable, and
     stays failed: fsync on a closed descriptor fails with EBADF. *)
  let w = Journal.open_append path in
  Journal.append w "unsynced";
  Journal.close w;
  let first = Journal.sync w in
  check tbool "failed sync is a typed Store_corrupt" true
    (match first with Error (Flm_error.Store_corrupt _) -> true | _ -> false);
  check tbool "failed sync is sticky" true (Journal.sync w = first)

(* (g) The codec's nesting bound: one stack frame per level, so a record
   of nothing but pair tags must be [Malformed], not a stack overflow. *)
let nesting_bound () =
  let rec nest k v = if k = 0 then v else nest (k - 1) (Value.tag "t" v) in
  let deepest = nest 511 Value.unit in
  check tbool "512 levels decode" true
    (Value.equal deepest (Store_codec.decode (Store_codec.encode deepest)));
  let malformed s =
    match Store_codec.decode s with
    | _ -> false
    | exception Store_codec.Malformed _ -> true
  in
  check tbool "513 levels are malformed" true
    (malformed (Store_codec.encode (Value.tag "t" deepest)));
  check tbool "a million pairs deep is malformed" true
    (malformed (String.make 1_000_000 'P'))

(* (h) The store's decoders are total.  [decode_record] on arbitrary bytes,
   on truncations and on byte flips of valid records returns a record or
   raises [Malformed], never another exception; valid records round-trip;
   [Journal.scan] over arbitrary bytes after the magic never raises. *)
let record_gen =
  QCheck.Gen.(pair Test_value.value_gen Test_value.value_gen)

let prop_record_round_trip =
  QCheck.Test.make ~name:"store records round-trip" ~count:300
    (QCheck.make record_gen) (fun (key, payload) ->
      let k, p =
        Store_codec.decode_record (Store_codec.encode_record ~key ~payload)
      in
      Value.equal k key && Value.equal p payload)

let prop_record_decoder_total =
  let edited =
    let open QCheck.Gen in
    record_gen >>= fun (key, payload) ->
    let r = Store_codec.encode_record ~key ~payload in
    let n = String.length r in
    oneof
      [ map (fun cut -> String.sub r 0 cut) (int_bound n);
        map2
          (fun at b ->
            String.mapi (fun i c -> if i = at mod n then Char.chr b else c) r)
          nat (int_bound 255);
      ]
  in
  QCheck.Test.make ~name:"store record decoder is total" ~count:1000
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         frequency
           [ 1, string_size (int_bound 64);
             1, map (fun s -> "\001" ^ s) (string_size (int_bound 64));
             1, map (fun n -> "\001" ^ String.make n 'P') (int_range 500 5000);
             4, edited;
           ]))
    (fun s ->
      match Store_codec.decode_record s with
      | _ -> true
      | exception Store_codec.Malformed _ -> true)

let prop_scan_total =
  let dir = lazy (fresh_dir ()) in
  QCheck.Test.make ~name:"journal scan is total" ~count:300
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(string_size (int_bound 200)))
    (fun tail ->
      let path = Filename.concat (Lazy.force dir) "journal.flm" in
      write_file path (Journal.magic ^ tail);
      match Journal.scan path with
      | Ok { Journal.valid_end; records; _ } ->
        valid_end <= String.length Journal.magic + String.length tail
        && List.for_all
             (fun (offset, payload) -> offset + 8 + String.length payload <= valid_end)
             records
      | Error _ -> false)

let suite =
  ( "store",
    [ Alcotest.test_case "crc32 vectors" `Quick crc32;
      Alcotest.test_case "codec canonicity" `Quick codec;
      Alcotest.test_case "journal crash safety" `Quick journal;
      Alcotest.test_case "store semantics" `Quick store;
      Alcotest.test_case "engine checkpoint/resume" `Quick engine_resume;
      Alcotest.test_case "journal crash points" `Quick journal_crash_points;
      Alcotest.test_case "codec nesting bound" `Quick nesting_bound;
      QCheck_alcotest.to_alcotest prop_record_round_trip;
      QCheck_alcotest.to_alcotest prop_record_decoder_total;
      QCheck_alcotest.to_alcotest prop_scan_total;
    ] )
