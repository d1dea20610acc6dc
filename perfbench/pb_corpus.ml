(* The frozen lint_deep corpus: OCaml sources generated from the seed,
   independent of the repository's own tree, so code added to the repo
   later does not move the workload.

   Shape (full size): helper modules under lib/core form a call DAG of
   pure integer functions, every fourth pair of definitions mutually
   recursive, so every seed gives a corpus of the same shape; protocol modules
   under lib/protocols call into them.  Planted on top:
   - transitive Random escapes: a protocol definition calls a two-hop
     lib/core chain that ends in [Random.int] (locality/transitive-random);
   - transitive Unix escapes: the same with [Unix.gettimeofday]
     (locality/transitive-time);
   - one two-mutex lock-order cycle between two lib/engine modules
     (concurrency/lock-order-cycle).
   Every other file is clean under both the shallow and the deep pass, so
   the findings must be exactly the planted set. *)

type planted = { rule : string; file : string; line : int }

type t = { sources : (string * string) list; planted : planted list }

type size = { cores : int; protos : int; defs : int; escapes : int }

let full = { cores = 56; protos = 40; defs = 12; escapes = 4 }
let toy = { cores = 6; protos = 4; defs = 4; escapes = 1 }

let core_name i = Printf.sprintf "Gen_core_%02d" i
let core_path i = Printf.sprintf "lib/core/gen_core_%02d.ml" i
let proto_path i = Printf.sprintf "lib/protocols/gen_proto_%02d.ml" i

(* A file under construction, tracking the line the next text starts on. *)
type buf = { b : Buffer.t; mutable line : int }

let emit buf s =
  Buffer.add_string buf.b s;
  String.iter (fun c -> if c = '\n' then buf.line <- buf.line + 1) s

let new_buf () = { b = Buffer.create 4096; line = 1 }

(* A call to a random earlier helper: a lower module, or an earlier
   definition of this one. *)
let callee rng ~module_ ~def ~defs =
  if module_ > 0 && (def = 0 || Random.State.bool rng) then
    Printf.sprintf "%s.f%d" (core_name (Random.State.int rng module_))
      (Random.State.int rng defs)
  else if def > 0 then Printf.sprintf "f%d" (Random.State.int rng def)
  else "( + )"

let body rng ~call =
  let k1 = 1 + Random.State.int rng 9 and k2 = 2 + Random.State.int rng 7 in
  Printf.sprintf
    "  let a = %s (x + %d) y in\n\
    \  let b =\n\
    \    match a mod %d with\n\
    \    | 0 -> x * %d\n\
    \    | 1 -> y - a\n\
    \    | _ -> a + %d\n\
    \  in\n\
    \  let c = List.fold_left (fun acc v -> acc + (v * b)) a [ x; y; %d ] in\n\
    \  if c > %d then %s (c - %d) b else c + b\n"
    (call ()) k1 k2 k1 k2 (k1 + k2) (100 * k1) (call ()) k2

let core_module rng ~size i =
  let buf = new_buf () in
  emit buf (Printf.sprintf "(* generated helper module %d *)\n\n" i);
  let call def () = callee rng ~module_:i ~def ~defs:size.defs in
  let d = ref 0 in
  while !d < size.defs do
    let def = !d in
    if def mod 4 = 2 && def + 1 < size.defs then begin
      (* a mutually recursive pair: one SCC of two definitions *)
      emit buf
        (Printf.sprintf
           "let rec f%d x y =\n\
           \  if x <= 0 then y else f%d (x - 1) (y + %d)\n\n\
            and f%d x y =\n\
           \  if y <= 0 then x else f%d (x + 1) (y - %d)\n\n"
           def (def + 1) (1 + Random.State.int rng 5) (def + 1) def
           (1 + Random.State.int rng 5));
      d := def + 2
    end
    else begin
      emit buf (Printf.sprintf "let f%d x y =\n" def);
      emit buf (body rng ~call:(call def));
      emit buf "\n";
      d := def + 1
    end
  done;
  core_path i, Buffer.contents buf.b

(* A protocol module: step functions over the helpers, plus (when
   [escape] is given) one definition that calls a tainted chain. *)
let proto_module rng ~size i ~escape =
  let buf = new_buf () in
  emit buf (Printf.sprintf "(* generated protocol module %d *)\n\n" i);
  let planted = ref [] in
  let escape_at = Random.State.int rng size.defs in
  for def = 0 to size.defs - 1 do
    (match escape with
    | Some (rule, chain) when def = escape_at ->
      planted := { rule; file = proto_path i; line = buf.line } :: !planted;
      emit buf (Printf.sprintf "let leak%d x y = %s.mix x y\n\n" def chain)
    | _ -> ());
    emit buf (Printf.sprintf "let step%d x y =\n" def);
    emit buf
      (body rng ~call:(fun () ->
           Printf.sprintf "%s.f%d"
             (core_name (Random.State.int rng size.cores))
             (Random.State.int rng size.defs)));
    emit buf "\n"
  done;
  (proto_path i, Buffer.contents buf.b), !planted

(* A tainted chain: [mix] in one lib/core module calls [draw] in another,
   which reaches the primitive.  lib/core is not bound by Locality, so
   the chain itself is clean; only the protocol caller is flagged. *)
let taint_chain ~kind k =
  let base = Printf.sprintf "gen_taint_%s_%d" kind k in
  let leaf_src =
    match kind with
    | "rand" -> "let draw x y = x + Random.int (1 + abs y)\n"
    | _ -> "let draw x y = x + y + int_of_float (Unix.gettimeofday ())\n"
  in
  ( String.capitalize_ascii base ^ "_mid",
    [ Printf.sprintf "lib/core/%s_leaf.ml" base, leaf_src;
      ( Printf.sprintf "lib/core/%s_mid.ml" base,
        Printf.sprintf "let mix x y = %s_leaf.draw (x * 2) y\n"
          (String.capitalize_ascii base) ) ] )

(* The lock-order cycle: each module takes its own mutex, protect-paired,
   and then calls into the other's locking helper. *)
let lock_sources =
  [ ( "lib/engine/gen_lock_a.ml",
      "let m = Mutex.create ()\n\
       let with_a f = Mutex.lock m; Fun.protect ~finally:(fun () -> \
       Mutex.unlock m) f\n\
       let a_then_b f = with_a (fun () -> Gen_lock_b.with_b f)\n" );
    ( "lib/engine/gen_lock_b.ml",
      "let m = Mutex.create ()\n\
       let with_b f = Mutex.lock m; Fun.protect ~finally:(fun () -> \
       Mutex.unlock m) f\n\
       let b_then_a f = with_b (fun () -> Gen_lock_a.with_a f)\n" ) ]

(* The cycle is reported once, at the lexically first holding site. *)
let lock_planted =
  { rule = "concurrency/lock-order-cycle"; file = "lib/engine/gen_lock_a.ml"; line = 3 }

let generate ~toy:is_toy ~seed =
  let size = if is_toy then toy else full in
  let rng = Random.State.make [| seed; 0x11e7 |] in
  let cores = List.init size.cores (fun i -> core_module rng ~size i) in
  let chains =
    List.init size.escapes (fun k -> "locality/transitive-random", taint_chain ~kind:"rand" k)
    @ List.init size.escapes (fun k ->
          "locality/transitive-time", taint_chain ~kind:"time" k)
  in
  (* Escapes go to distinct protocol modules chosen by the seed. *)
  let order = Array.init size.protos Fun.id in
  for i = size.protos - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let escape_of = Hashtbl.create 8 in
  List.iteri
    (fun k (rule, (mid, _)) -> Hashtbl.replace escape_of order.(k) (rule, mid))
    chains;
  let protos =
    List.init size.protos (fun i ->
        proto_module rng ~size i ~escape:(Hashtbl.find_opt escape_of i))
  in
  let sources =
    cores @ List.map fst protos
    @ List.concat_map (fun (_, (_, files)) -> files) chains
    @ lock_sources
  in
  { sources = List.sort (fun (a, _) (b, _) -> String.compare a b) sources;
    planted =
      List.sort compare (lock_planted :: List.concat_map snd protos) }

let findings_of (report : Lint_report.t) =
  List.sort compare
    (List.map
       (fun (f : Lint_rule.finding) ->
         { rule = Lint_rule.to_string f.rule; file = f.file; line = f.line })
       report.Lint_report.findings)

let show ps =
  String.concat "; "
    (List.map (fun p -> Printf.sprintf "%s %s:%d" p.rule p.file p.line) ps)
