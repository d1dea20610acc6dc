(** The append-only, crash-safe journal file underneath {!Store}.

    {b File format.}  An 8-byte magic header ["FLMJRNL1"], then zero or more
    frames.  Each frame is

    {v [u32 LE payload length][u32 LE CRC-32 of payload][payload bytes] v}

    {b Crash safety.}  {!append} writes one whole frame with [write(2)];
    once that returns, the bytes are in the kernel, so the record survives
    [kill -9] of the writing process.  {!sync} is the separate durability
    step: one [fsync] covers every frame appended since the last one, so a
    batch of appends pays for one disk flush.  A crash — a kill mid-append,
    or a power loss before the sync — leaves a {e torn tail}: {!scan}
    detects it (declared length overruns the file, or the trailing CRC
    fails) and reports a typed {!Flm_error.Store_corrupt} instead of
    deserializing garbage; the whole frames before it scan back.  A
    bit-flipped payload fails its CRC and is skipped, with the scan
    resuming at the next frame; a corrupted {e length} field desynchronizes
    framing, so the scan abandons the remainder of the file (one corruption
    report covers the lost tail) — {!Store.gc} rewrites a clean journal from
    the surviving records.

    {b Compaction} ({!rewrite}) follows the classic atomic-replace protocol:
    write every frame to a temp file in the same directory, [fsync] it,
    [rename] over the journal, then [fsync] the directory so the rename
    itself is durable.  A crash at any point leaves either the old complete
    journal or the new complete journal, never a mix. *)

val magic : string

type scan_result = {
  path : string;
  records : (int * string) list;
      (** [(offset, payload)] for every frame whose CRC verifies, in file
          order *)
  corruptions : Flm_error.t list;
      (** a typed report for every skipped or torn region *)
  valid_end : int;
      (** the offset just past the last structurally-sound frame: where a
          torn tail begins, or the file size when the tail is intact.
          Appending must resume {e here} — frames written after
          unverifiable garbage would be invisible to every future scan —
          so {!open_append} takes it as [truncate_at]. *)
}

val scan : string -> (scan_result, Flm_error.t) result
(** [scan path] reads the whole journal.  [Error _] only when the file
    exists but cannot be trusted at all (unreadable, or the magic header is
    not a — possibly kill-torn — prefix of {!magic}).  A missing or empty
    file is an empty store. *)

type writer

val open_append : ?truncate_at:int -> string -> writer
(** Open (creating, with the magic header, if missing or empty) for
    appending.  [truncate_at] (from {!scan}'s [valid_end]) first truncates
    away a torn tail so the next frame lands at a verifiable boundary.
    Raises [Unix.Unix_error] on filesystem failure. *)

val append : writer -> string -> unit
(** Frame the payload (length + CRC) and write it.  No [fsync]: the frame
    survives a killed process at once and a power loss after the next
    {!sync}.  Thread-unsafe by itself; {!Store} serializes appends under its
    lock.  Raises [Unix.Unix_error] when the write fails. *)

val sync : writer -> (bool, Flm_error.t) result
(** Make every frame appended so far durable with one [fsync].  [Ok false]
    when nothing was appended since the last sync (no system call), [Ok
    true] after an [fsync].  A failed [fsync] is a typed
    {!Flm_error.Store_corrupt} at the first byte not known durable, and it
    is sticky: the kernel may already have dropped the unwritten pages and
    reports that once, so every later [sync] of this writer answers the
    same error. *)

val close : writer -> unit

val rewrite : string -> string list -> unit
(** [rewrite path payloads] atomically replaces the journal at [path] with a
    fresh one containing exactly [payloads]: temp file + [fsync] + [rename]
    + directory [fsync]. *)
