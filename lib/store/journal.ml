let magic = "FLMJRNL1"

let corrupt path offset detail =
  Flm_error.Store_corrupt { path; offset; detail }

(* --- framing --------------------------------------------------------------- *)

let frame payload =
  let buf = Buffer.create (String.length payload + 8) in
  let put_u32 n =
    for i = 0 to 3 do
      Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xff))
    done
  in
  put_u32 (String.length payload);
  put_u32 (Crc32.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let read_u32 s pos =
  let n = ref 0 in
  for i = 3 downto 0 do
    n := (!n lsl 8) lor Char.code s.[pos + i]
  done;
  !n

(* --- scanning --------------------------------------------------------------- *)

type scan_result = {
  path : string;
  records : (int * string) list;
  corruptions : Flm_error.t list;
  valid_end : int;
}

let scan path =
  let mlen = String.length magic in
  if not (Sys.file_exists path) then
    Ok { path; records = []; corruptions = []; valid_end = mlen }
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error detail -> Error (corrupt path 0 detail)
    | contents ->
      let size = String.length contents in
      if size < mlen then
        (* A kill between creating the file and finishing the magic header
           leaves a strict prefix of it; anything else is not a journal. *)
        if contents = String.sub magic 0 size then
          Ok
            {
              path;
              records = [];
              corruptions =
                (if size = 0 then []
                 else
                   [ corrupt path 0
                       (Printf.sprintf "torn magic header: %d bytes of %d"
                          size mlen) ]);
              valid_end = mlen;
            }
        else Error (corrupt path 0 "bad magic header: not a journal")
      else if String.sub contents 0 mlen <> magic then
        Error (corrupt path 0 "bad magic header: not a journal")
      else begin
        let records = ref [] and corruptions = ref [] in
        let valid_end = ref size in
        let rec go offset =
          if offset < size then
            if size - offset < 8 then begin
              (* A crash mid-append can leave a partial frame header. *)
              valid_end := offset;
              corruptions :=
                corrupt path offset
                  (Printf.sprintf "torn tail: %d header bytes of 8"
                     (size - offset))
                :: !corruptions
            end
            else begin
              let len = read_u32 contents offset in
              let crc = read_u32 contents (offset + 4) in
              if offset + 8 + len > size then begin
                valid_end := offset;
                corruptions :=
                  corrupt path offset
                    (Printf.sprintf
                       "torn tail: declared %d payload bytes, %d remain" len
                       (size - offset - 8))
                  :: !corruptions
              end
              else begin
                let actual =
                  Crc32.update 0 contents ~pos:(offset + 8) ~len
                in
                if actual = crc then begin
                  records :=
                    (offset, String.sub contents (offset + 8) len) :: !records;
                  go (offset + 8 + len)
                end
                else begin
                  (* A payload bit-flip: skip exactly this frame.  If the
                     length field itself was flipped the next "frame" will
                     fail its CRC too, and the cascade ends at the torn-tail
                     check — corrupted regions are never deserialized. *)
                  corruptions :=
                    corrupt path offset
                      (Printf.sprintf "CRC mismatch: stored %#x, computed %#x"
                         crc actual)
                    :: !corruptions;
                  go (offset + 8 + len)
                end
              end
            end
        in
        go mlen;
        Ok
          {
            path;
            records = List.rev !records;
            corruptions = List.rev !corruptions;
            valid_end = !valid_end;
          }
      end

(* --- appending --------------------------------------------------------------- *)

(* [written] is the file offset just past the last frame written; the bytes
   below [synced] are known durable.  A failed fsync is kept in [failed]:
   the kernel may already have dropped the dirty pages, and it reports the
   error once, so no later fsync on this writer may be read as success. *)
type writer = {
  fd : Unix.file_descr;
  path : string;
  mutable written : int;
  mutable synced : int;
  mutable failed : Flm_error.t option;
}

let write_all fd s =
  let len = String.length s in
  let bytes = Bytes.unsafe_of_string s in
  let rec go pos =
    if pos < len then go (pos + Unix.write fd bytes pos (len - pos))
  in
  go 0

let open_append ?truncate_at path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  let size =
    (* Heal a torn tail before the first append: frames written after
       unverifiable garbage would be unreachable to every future scan, so
       the tail must go first.  [truncate_at] comes from {!scan}'s
       [valid_end] — everything past it already failed verification. *)
    match truncate_at with
    | Some at when at < size ->
      Unix.ftruncate fd at;
      at
    | _ -> size
  in
  if size < String.length magic then begin
    (* Fresh file, or a torn magic header: restart the journal.  The header
       is made durable by the first {!sync}, with the frames after it. *)
    Unix.ftruncate fd 0;
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    write_all fd magic;
    { fd; path; written = String.length magic; synced = 0; failed = None }
  end
  else begin
    ignore (Unix.lseek fd 0 Unix.SEEK_END);
    { fd; path; written = size; synced = size; failed = None }
  end

let append w payload =
  let frame = frame payload in
  write_all w.fd frame;
  w.written <- w.written + String.length frame

let sync w =
  match w.failed with
  | Some e -> Error e
  | None when w.synced = w.written -> Ok false
  | None -> (
    match Unix.fsync w.fd with
    | () ->
      w.synced <- w.written;
      Ok true
    | exception Unix.Unix_error (e, _, _) ->
      let e =
        corrupt w.path w.synced
          (Printf.sprintf
             "fsync failed (%s): bytes %d..%d may not survive a power loss"
             (Unix.error_message e) w.synced w.written)
      in
      w.failed <- Some e;
      Error e)

let close w = Unix.close w.fd

(* --- atomic rewrite ----------------------------------------------------------- *)

let fsync_dir dir =
  (* Make the rename itself durable.  Some filesystems refuse to fsync a
     directory fd; best-effort there — the data file is already synced. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

let rewrite path payloads =
  let dir = Filename.dirname path in
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd magic;
      List.iter (fun payload -> write_all fd (frame payload)) payloads;
      Unix.fsync fd);
  Unix.rename tmp path;
  fsync_dir dir
