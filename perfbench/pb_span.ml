(* Spans and counts recorded by the traced run, keyed by layer name.

   Spans wrap calls into one layer's public functions from the
   benchmark's own code; they never nest, so the sum of all spans in an
   operation is its attributed time and the rest of its wall time is
   unattributed. *)

type t = {
  on : bool;
  time : (string, float ref) Hashtbl.t;
  count : (string, int ref) Hashtbl.t;
}

(* A table with [on = false] records nothing: [span] just calls its
   function.  The traced runs time the same composed op with spans off
   and on to measure what the spans cost. *)
let create ?(on = true) () = { on; time = Hashtbl.create 16; count = Hashtbl.create 16 }

let cell tbl name zero =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
    let r = ref zero in
    Hashtbl.add tbl name r;
    r

let add_time t name dt =
  let r = cell t.time name 0.0 in
  r := !r +. dt

let incr ?(by = 1) t name =
  if t.on then begin
    let r = cell t.count name 0 in
    r := !r + by
  end

let span t name f =
  if not t.on then f ()
  else begin
    let t0 = Pb_stats.now () in
    let v = f () in
    add_time t name (Pb_stats.now () -. t0);
    v
  end

let seconds t name =
  match Hashtbl.find_opt t.time name with Some r -> !r | None -> 0.0

let count t name =
  match Hashtbl.find_opt t.count name with Some r -> !r | None -> 0

let attributed t = Hashtbl.fold (fun _ r acc -> acc +. !r) t.time 0.0
