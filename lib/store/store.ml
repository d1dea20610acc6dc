type t = {
  path : string;
  lock : Mutex.t;
  (* canonical encoded key bytes -> (key, payload); byte equality on the
     deterministic encoding is structural equality on keys, so the index is
     collision-proof by construction. *)
  index : (string, Value.t * Value.t) Hashtbl.t;
  mutable order : string list;  (* reverse first-insertion order *)
  mutable writer : Journal.writer option;
  mutable corruptions : Flm_error.t list;
  mutable frames : int;
  (* Where the journal's verifiable prefix ends (Journal.scan_result.
     valid_end); the first append truncates any torn tail back to here so
     new frames stay reachable.  None once a writer has been opened. *)
  mutable truncate_at : int option;
}

type stats = {
  path : string;
  live : int;
  records : int;
  corrupt : int;
  bytes : int;
}

let journal_name = "journal.flm"

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let decode_frame path (offset, payload) =
  match Store_codec.decode_record payload with
  | key, value -> Ok (key, value)
  | exception Store_codec.Malformed detail ->
    Error (Flm_error.Store_corrupt { path; offset; detail })

let mkdir_p dir =
  match Unix.stat dir with
  | { Unix.st_kind = Unix.S_DIR; _ } -> Ok ()
  | _ ->
    Error
      (Flm_error.Invalid_input
         { what = "store directory"; detail = dir ^ " exists and is not a directory" })
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> (
    match Unix.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
      Error
        (Flm_error.Invalid_input
           { what = "store directory";
             detail = dir ^ ": " ^ Unix.error_message e }))
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Flm_error.Invalid_input
         { what = "store directory"; detail = dir ^ ": " ^ Unix.error_message e })

let open_dir dir =
  match mkdir_p dir with
  | Error _ as e -> e
  | Ok () -> (
    let path = Filename.concat dir journal_name in
    match Journal.scan path with
    | Error _ as e -> e
    | Ok { Journal.records = frames; corruptions; valid_end; _ } ->
      let t =
        {
          path;
          lock = Mutex.create ();
          index = Hashtbl.create 256;
          order = [];
          writer = None;
          corruptions;
          frames = 0;
          truncate_at = Some valid_end;
        }
      in
      List.iter
        (fun frame ->
          t.frames <- t.frames + 1;
          match decode_frame path frame with
          | Ok (key, payload) ->
            let k = Store_codec.encode key in
            if not (Hashtbl.mem t.index k) then t.order <- k :: t.order;
            (* Last writer wins: a superseding record later in the journal
               replaces the payload, as it did in program order. *)
            Hashtbl.replace t.index k (key, payload)
          | Error e ->
            t.frames <- t.frames - 1;
            t.corruptions <- t.corruptions @ [ e ])
        frames;
      Ok t)

let find t key =
  with_lock t (fun () ->
      Option.map snd (Hashtbl.find_opt t.index (Store_codec.encode key)))

let mem t key =
  with_lock t (fun () -> Hashtbl.mem t.index (Store_codec.encode key))

let writer t =
  match t.writer with
  | Some w -> w
  | None ->
    let w = Journal.open_append ?truncate_at:t.truncate_at t.path in
    t.truncate_at <- None;
    t.writer <- Some w;
    w

let put t ~key payload =
  with_lock t (fun () ->
      let k = Store_codec.encode key in
      match Hashtbl.find_opt t.index k with
      | Some (_, existing) when Value.equal existing payload -> ()
      | previous ->
        Journal.append (writer t) (Store_codec.encode_record ~key ~payload);
        t.frames <- t.frames + 1;
        if previous = None then t.order <- k :: t.order;
        Hashtbl.replace t.index k (key, payload))

let sync t =
  with_lock t (fun () ->
      match t.writer with None -> Ok false | Some w -> Journal.sync w)

let length t = with_lock t (fun () -> Hashtbl.length t.index)
let corruptions t = with_lock t (fun () -> t.corruptions)

let live_in_order t =
  List.rev_map
    (fun k ->
      match Hashtbl.find_opt t.index k with
      | Some entry -> entry
      | None -> assert false)
    t.order

let iter t f =
  List.iter
    (fun (key, payload) -> f ~key ~payload)
    (with_lock t (fun () -> live_in_order t))

let stat t =
  with_lock t (fun () ->
      {
        path = t.path;
        live = Hashtbl.length t.index;
        records = t.frames;
        corrupt = List.length t.corruptions;
        bytes =
          (match Unix.stat t.path with
          | { Unix.st_size; _ } -> st_size
          | exception Unix.Unix_error _ -> 0);
      })

let gc ?(canonical = false) t =
  with_lock t (fun () ->
      (* The writer's fd would keep pointing at the replaced inode. *)
      Option.iter Journal.close t.writer;
      t.writer <- None;
      let keys = List.rev t.order in
      (* Canonical order: sorted by encoded key bytes.  Insertion order is
         an artifact of scheduling (which domain or shard finished first);
         sorting erases it, so two stores holding the same records compact
         to byte-identical journals. *)
      let keys = if canonical then List.sort String.compare keys else keys in
      let live =
        List.map
          (fun k ->
            match Hashtbl.find_opt t.index k with
            | Some entry -> entry
            | None -> assert false)
          keys
      in
      Journal.rewrite t.path
        (List.map
           (fun (key, payload) -> Store_codec.encode_record ~key ~payload)
           live);
      if canonical then t.order <- List.rev keys;
      let dropped = t.frames - List.length live in
      t.frames <- List.length live;
      t.corruptions <- [];
      t.truncate_at <- None;
      dropped)

(* Fold a foreign shard journal into this store.  The foreign journal is
   collapsed last-writer-wins first (mirroring [open_dir]'s scan), then its
   live records are [put] in foreign first-insertion order — so across the
   merge, the foreign shard is "later" than anything already present and
   wins conflicting keys, while equal payloads stay no-ops.  Corrupt
   foreign records are skipped and their typed reports appended to
   {!corruptions} (they name the foreign path). *)
let merge_from t dir =
  let path = Filename.concat dir journal_name in
  match Journal.scan path with
  | Error _ as e -> e
  | Ok { Journal.records = frames; corruptions = foreign_bad; _ } ->
    let index = Hashtbl.create 64 and order = ref [] and bad = ref foreign_bad in
    List.iter
      (fun frame ->
        match decode_frame path frame with
        | Ok (key, payload) ->
          let k = Store_codec.encode key in
          if not (Hashtbl.mem index k) then order := k :: !order;
          Hashtbl.replace index k (key, payload)
        | Error e -> bad := !bad @ [ e ])
      frames;
    (* [put] takes the lock per record; never call it while holding it. *)
    let folded = ref 0 in
    List.iter
      (fun k ->
        let key, payload = Hashtbl.find index k in
        put t ~key payload;
        incr folded)
      (List.rev !order);
    with_lock t (fun () -> t.corruptions <- t.corruptions @ !bad);
    Result.map (fun _ -> !folded) (sync t)

let close t =
  let synced = sync t in
  with_lock t (fun () ->
      Option.iter Journal.close t.writer;
      t.writer <- None);
  Result.iter_error Flm_error.raise_error synced

let verify dir =
  let path = Filename.concat dir journal_name in
  match Journal.scan path with
  | Error _ as e -> e
  | Ok { Journal.records = frames; corruptions; _ } ->
    let ok = ref 0 and bad = ref [] in
    List.iter
      (fun frame ->
        match decode_frame path frame with
        | Ok _ -> incr ok
        | Error e -> bad := e :: !bad)
      frames;
    Ok (!ok, corruptions @ List.rev !bad)
