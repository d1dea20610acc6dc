(* Order statistics and process probes shared by every workload. *)

let now = Unix.gettimeofday

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let median samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The tail percentile [q] is fixed per workload (see README.md): the
   highest that a full-length run's op count and the host's noise leave
   steady.  p99.9 is left out on purpose: on a shared two-core box it
   measures the neighbours more than the program.  Fixing [q] keeps the
   statistic from switching percentile between runs whose op counts
   differ.  Nearest rank; [q] >= 1 is the maximum. *)
let tail_rank ~q n =
  if n = 0 then None
  else if q >= 1.0 then Some (n - 1)
  else Some (min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let tail ~q samples =
  let a = sorted samples in
  match tail_rank ~q (Array.length a) with Some i -> a.(i) | None -> 0.0

let tail_label ~q n =
  match tail_rank ~q n with
  | None -> "no ops"
  | Some i when i = n - 1 -> Printf.sprintf "max of %d ops" n
  | Some i ->
    Printf.sprintf "p%g of %d ops (rank %d, %d beyond)" (100.0 *. q) n (i + 1) (n - i - 1)

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Peak resident set of a live process, from its kernel status file
   (VmHWM, the high-water mark since exec or fork). *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Reset a live process's VmHWM to its current resident set, so a later
   [peak_rss_mb] reads the peak of what came after, not of the set-up. *)
let reset_peak_rss pid =
  let path =
    if pid = 0 then "/proc/self/clear_refs"
    else Printf.sprintf "/proc/%d/clear_refs" pid
  in
  Out_channel.with_open_text path (fun oc -> output_string oc "5")

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Set-up repetitions spread over the timed window: a run sets up once
   before its window and [k] more times inside it, between ops, at marks
   1/(k+1), ..., k/(k+1) of the way through.  The host's speed drifts over
   seconds; spread over the window, the set-ups see the same host as the
   ops, and their median is not a reading of the run's first seconds. *)
type marks = { start : float; window : float; k : int; mutable next : int }

let marks ~seconds k = { start = now (); window = seconds; k; next = 1 }

(* The extras whose marks have passed, run in order. *)
let run_due m extra =
  let rec go acc =
    if
      m.next <= m.k
      && now () >= m.start +. (m.window *. float_of_int m.next /. float_of_int (m.k + 1))
    then begin
      m.next <- m.next + 1;
      go (extra () :: acc)
    end
    else acc
  in
  List.rev (go [])

(* The extras a short run ended before reaching. *)
let run_remaining m extra =
  let rest = List.init (m.k - m.next + 1) (fun _ -> extra ()) in
  m.next <- m.k + 1;
  rest

(* Run [f] until [seconds] of wall clock have passed since the first
   call (at least once), and [extra] at each of [k] marks (see [marks]).
   Returns the results of [f] and of [extra], in order. *)
let timed_loop ~seconds ~extra:(k, extra) f =
  let m = marks ~seconds k in
  let t_end = now () +. seconds in
  let rec go acc xs =
    let acc = f () :: acc in
    let xs = List.rev_append (run_due m extra) xs in
    if now () < t_end then go acc xs else List.rev acc, List.rev xs @ run_remaining m extra
  in
  go [] []

(* The traced runs' schedule: the composed op with spans off and with
   spans on alternate for [seconds] (at least one of each), so a drift in
   machine speed during the run lands on both and the overhead ratio
   stays a comparison of like with like. *)
let alternate ~seconds plain traced =
  let t_end = now () +. seconds in
  let rec go k ps ts =
    if k >= 2 && now () >= t_end then List.rev ps, List.rev ts
    else if k mod 2 = 0 then go (k + 1) (plain () :: ps) ts
    else go (k + 1) ps (traced () :: ts)
  in
  go 0 [] []
