type t =
  | Drop of float
  | Duplicate of float
  | Corrupt of float
  | Equivocate
  | Replay
  | Crash_midway
  | Delay of int
  | Mobile of float
  | Poison
  | Stall of int
  | Chaos of (int * t) list

let default_chaos =
  Chaos
    [ 3, Drop 0.25;
      2, Duplicate 0.25;
      3, Corrupt 0.25;
      3, Equivocate;
      3, Replay;
      2, Crash_midway;
      2, Delay 1;
      3, Mobile 0.5;
    ]

let rec to_string = function
  | Drop p -> Printf.sprintf "drop:%g" p
  | Duplicate p -> Printf.sprintf "dup:%g" p
  | Corrupt p -> Printf.sprintf "corrupt:%g" p
  | Equivocate -> "equivocate"
  | Replay -> "replay"
  | Crash_midway -> "crash"
  | Delay d -> Printf.sprintf "delay:%d" d
  | Mobile p -> Printf.sprintf "mobile:%g" p
  | Poison -> "poison"
  | Stall ms -> Printf.sprintf "stall:%d" ms
  | Chaos weighted ->
    Printf.sprintf "chaos(%s)"
      (String.concat ","
         (List.map (fun (w, s) -> Printf.sprintf "%d*%s" w (to_string s)) weighted))

let grammar =
  "expected drop[:P] | dup[:P] | corrupt[:P] | equivocate | replay | crash | \
   delay[:D] | mobile[:P] | poison | stall[:MS] | chaos"

let of_string spec =
  let prob ?(default = 0.25) what = function
    | None -> Ok default
    | Some s -> (
      match float_of_string_opt s with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok p
      | Some _ -> Error (Printf.sprintf "%s: probability must be in [0,1]" what)
      | None -> Error (Printf.sprintf "%s: expected a probability, got %S" what s))
  in
  let nat what ~default ~min_v = function
    | None -> Ok default
    | Some s -> (
      match int_of_string_opt s with
      | Some v when v >= min_v -> Ok v
      | Some _ -> Error (Printf.sprintf "%s: expected an integer >= %d" what min_v)
      | None -> Error (Printf.sprintf "%s: expected an integer, got %S" what s))
  in
  let ( let* ) = Result.bind in
  let head, arg =
    match String.split_on_char ':' spec with
    | [ head ] -> head, None
    | [ head; arg ] -> head, Some arg
    | _ -> spec, None
  in
  match head, arg with
  | "drop", arg ->
    let* p = prob "drop:P" arg in
    Ok (Drop p)
  | ("dup" | "duplicate"), arg ->
    let* p = prob "dup:P" arg in
    Ok (Duplicate p)
  | "corrupt", arg ->
    let* p = prob "corrupt:P" arg in
    Ok (Corrupt p)
  | ("equivocate" | "split"), None -> Ok Equivocate
  | "replay", None -> Ok Replay
  | "crash", None -> Ok Crash_midway
  | "delay", arg ->
    let* d = nat "delay:D" ~default:1 ~min_v:1 arg in
    Ok (Delay d)
  | "mobile", arg ->
    let* p = prob ~default:0.5 "mobile:P" arg in
    Ok (Mobile p)
  | "poison", None -> Ok Poison
  | "stall", arg ->
    let* ms = nat "stall:MS" ~default:200 ~min_v:1 arg in
    Ok (Stall ms)
  | "chaos", None -> Ok default_chaos
  | _ -> Error grammar

(* --- deterministic per-(round, port) coin flips ---------------------------- *)

let flip_at rng ~round ~port ~p =
  fst (Fault_prng.flip (Fault_prng.derive (Fault_prng.derive rng round) port) ~p)

(* --- send-array codecs (for stateful wrappers) ------------------------------ *)

let encode_sends sends =
  Value.list
    (Array.to_list
       (Array.map
          (function None -> Value.tag "silent" Value.unit | Some m -> Value.tag "msg" m)
          sends))

let decode_sends v =
  Array.of_list
    (List.map
       (fun x ->
         match Value.get_tag x with "msg", m -> Some m | _ -> None)
       (Value.get_list v))

(* A faulty wrapper that runs the honest device but keeps extra bookkeeping
   state alongside it and post-processes each round's sends.  The state is
   the pair (honest state, extra) and projects to the pair of their
   encodings. *)
let stateful ~name (Device.Device honest) ~init_extra ~rewrite =
  Device.Device
    {
      Device.name;
      arity = honest.arity;
      init = (fun ~input -> honest.init ~input, init_extra);
      step =
        (fun ~state:(hs, extra) ~round ~inbox ->
          let hs', sends = honest.step ~state:hs ~round ~inbox in
          let extra', sends' = rewrite ~extra ~round ~sends in
          (hs', extra'), sends');
      output = (fun _ -> None);
      project = (fun (hs, extra) -> Value.pair (honest.project hs) extra);
    }

(* --- the strategies --------------------------------------------------------- *)

let drop rng ~p honest =
  Adversary.mutate honest ~rewrite:(fun ~port ~round m ->
      if flip_at rng ~round ~port ~p then None else m)

(* Deterministic mangling: rewrite the message into one of a few hostile
   shapes — wrong type, wrong nesting, absurd payload — picked per slot. *)
let corrupt rng ~p honest =
  Adversary.mutate honest ~rewrite:(fun ~port ~round m ->
      match m with
      | None -> None
      | Some m when flip_at rng ~round ~port ~p ->
        let k =
          fst (Fault_prng.int (Fault_prng.derive (Fault_prng.derive rng (round + 7919)) port) 4)
        in
        Some
          (match k with
          | 0 -> Value.int ((31 * round) + port)
          | 1 -> Value.tag "corrupt" m
          | 2 -> Value.list [ m; m ]
          | _ -> Value.string "corrupted")
      | some -> some)

let duplicate rng ~p honest =
  stateful ~name:(Printf.sprintf "dup:%g(%s)" p (Device.name honest)) honest
    ~init_extra:(encode_sends (Array.make (Device.arity honest) None))
    ~rewrite:(fun ~extra ~round ~sends ->
      let previous = decode_sends extra in
      let sends' =
        Array.mapi
          (fun port m ->
            match m with
            | None when flip_at rng ~round ~port ~p -> previous.(port)
            | m -> m)
          sends
      in
      encode_sends sends, sends')

let delay ~d honest =
  stateful ~name:(Printf.sprintf "delay:%d(%s)" d (Device.name honest)) honest
    ~init_extra:(Value.list [])
    ~rewrite:(fun ~extra ~round:_ ~sends ->
      let buffered = Value.get_list extra @ [ encode_sends sends ] in
      if List.length buffered > d then
        match buffered with
        | due :: rest -> Value.list rest, decode_sends due
        | [] -> assert false
      else Value.list buffered, Array.make (Array.length sends) None)

(* The Gafni–Losa "time is not a healer" shape: the fault is a property of
   the round, not the node.  Each round the node is either honest or
   actively faulty, by a seeded per-round coin; an active round applies one
   seeded misbehavior — silence or corruption — uniformly across the
   node's outedges.  Installed at a faulty set, the per-node streams make
   the *active* subset vary round to round, so the observable fault
   migrates across nodes over time.  A deterministic wrapper of the honest
   device, hence closed under the Fault axiom like every other strategy
   here (the harness checks the replay closure on it via the chaos mix). *)
let mobile rng ~p honest =
  Adversary.mutate honest ~rewrite:(fun ~port ~round m ->
      let round_rng = Fault_prng.derive (Fault_prng.derive rng 54323) round in
      if not (fst (Fault_prng.flip round_rng ~p)) then m
      else
        match fst (Fault_prng.int (Fault_prng.derive round_rng 1) 2) with
        | 0 -> None (* silent this round *)
        | _ -> (
          (* mangle this round: wrong shape, port-dependent payload *)
          match m with
          | None -> Some (Value.int ((17 * round) + port))
          | Some m -> Some (Value.tag "mobile" m)))

let equivocate rng honest =
  let arity = Device.arity honest in
  Adversary.split_brain honest
    ~inputs:
      (Array.init arity (fun j ->
           Value.bool (fst (Fault_prng.flip (Fault_prng.derive rng j) ~p:0.5))))

(* The Fault axiom verbatim: record this node's outedge behaviors in two
   runs of the system — the given one, and one with every input rotated to
   the next node — then replay, choosing per outedge which run to draw
   from.  This is F_A(E_1, ..., E_d) with the E_i from genuinely different
   executions. *)
let replay rng ~horizon sys u =
  let g = System.graph sys in
  let n = Graph.n g in
  let rotated =
    List.fold_left
      (fun acc v -> System.substitute_input acc v (System.input sys ((v + 1) mod n)))
      sys (Graph.nodes g)
  in
  let trace_a = Exec.run sys ~rounds:horizon in
  let trace_b = Exec.run rotated ~rounds:horizon in
  let sources =
    List.mapi
      (fun port dst ->
        let from_b = fst (Fault_prng.flip (Fault_prng.derive rng port) ~p:0.5) in
        (if from_b then trace_b else trace_a), u, dst)
      (Array.to_list (System.wiring sys u))
  in
  Adversary.from_traces ~name:(Printf.sprintf "replay@%d" u) sources

let poison ~arity =
  Device.make ~name:"poison" ~arity
    ~init:(fun ~input:_ -> Value.unit)
    ~step:(fun ~state:_ ~round:_ ~inbox:_ -> failwith "fault-injected poison step")
    ~output:(fun _ -> None)

let stall ~ms (Device.Device honest) =
  Device.Device
    {
      honest with
      Device.name = Printf.sprintf "stall:%d(%s)" ms honest.name;
      step =
        (fun ~state ~round ~inbox ->
          let until = Unix.gettimeofday () +. (float_of_int ms /. 1000.0) in
          while Unix.gettimeofday () < until do
            Flm_error.Deadline.check ()
          done;
          honest.step ~state ~round ~inbox);
      output = (fun _ -> None);
    }

let rec install ~rng ~horizon ~strategy sys u =
  let honest = System.device sys u in
  let arity = Device.arity honest in
  match strategy with
  | Chaos weighted ->
    let picked, rng = Fault_prng.weighted rng weighted in
    install ~rng ~horizon ~strategy:picked sys u
  | Drop p -> System.substitute sys u (drop rng ~p honest), to_string strategy
  | Duplicate p ->
    System.substitute sys u (duplicate rng ~p honest), to_string strategy
  | Corrupt p -> System.substitute sys u (corrupt rng ~p honest), to_string strategy
  | Equivocate ->
    System.substitute sys u (equivocate rng honest), to_string strategy
  | Replay -> System.substitute sys u (replay rng ~horizon sys u), to_string strategy
  | Crash_midway ->
    let after = 1 + fst (Fault_prng.int rng (max 1 (horizon - 1))) in
    ( System.substitute sys u (Adversary.crash ~after honest),
      Printf.sprintf "crash@%d" after )
  | Delay d -> System.substitute sys u (delay ~d honest), to_string strategy
  | Mobile p -> System.substitute sys u (mobile rng ~p honest), to_string strategy
  | Poison -> System.substitute sys u (poison ~arity), to_string strategy
  | Stall ms -> System.substitute sys u (stall ~ms honest), to_string strategy
