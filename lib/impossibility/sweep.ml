type cell = {
  n : int;
  f : int;
  adequate : bool;
  survived_attacks : bool option;
  certificate_broke_it : bool option;
}

let bool_default = Value.bool false

let agreement_and_validity trace correct inputs =
  Ba_spec.check ~trace ~correct ~inputs = []

(* The adversary zoo used on the adequate side, for node [u] of K_n whose
   honest device is [honest]. *)
let attacks ~n honest u =
  [|
    Adversary.silent ~arity:(n - 1);
    Adversary.crash ~after:1 honest;
    Adversary.split_brain honest
      ~inputs:(Array.init (n - 1) (fun j -> Value.bool (j mod 2 = 0)));
    Adversary.babbler ~seed:(31 * u) ~arity:(n - 1)
      ~palette:[ Value.bool true; Value.bool false; Value.int 3 ];
  |]

let survives_zoo ~n ~f () =
  let g = Topology.complete n in
  let horizon = Eig.decision_round ~f + 1 in
  let patterns = [ 0; 1; (1 lsl n) - 1; 0b1010101 land ((1 lsl n) - 1) ] in
  (* Up to f faulty nodes, spread across the id range. *)
  let faulty_sets =
    if f = 0 then [ [] ]
    else if f = 1 then [ [ 0 ]; [ n - 1 ] ]
    else [ List.init f (fun i -> i); List.init f (fun i -> n - 1 - i) ]
  in
  (* The cell is wired once: the honest system and each faulty node's
     attackers.  Devices are immutable values, so every run shares them;
     a run only sets its inputs and swaps its attackers in. *)
  let honest =
    System.make g (fun u -> Eig.device ~n ~f ~me:u ~default:bool_default, bool_default)
  in
  let attackers =
    List.map
      (fun u -> u, attacks ~n (System.device honest u) u)
      (List.sort_uniq Int.compare (List.concat faulty_sets))
  in
  List.for_all
    (fun pattern ->
      let inputs = Array.init n (fun u -> Value.bool (pattern land (1 lsl u) <> 0)) in
      let with_inputs =
        List.fold_left
          (fun acc u -> System.substitute_input acc u inputs.(u))
          honest (Graph.nodes g)
      in
      List.for_all
        (fun faulty ->
          List.for_all
            (fun which ->
              let sys =
                List.fold_left
                  (fun acc u ->
                    System.substitute acc u (List.assoc u attackers).(which))
                  with_inputs faulty
              in
              let trace = Exec.run sys ~rounds:horizon in
              let correct =
                List.filter (fun u -> not (List.mem u faulty)) (Graph.nodes g)
              in
              agreement_and_validity trace correct (fun u -> inputs.(u)))
            [ 0; 1; 2; 3 ])
        faulty_sets)
    patterns

let nf_cell ~n ~f () =
  if n < 3 then invalid_arg "Sweep.nf_cell: n >= 3 required";
  let g = Topology.complete n in
  let adequate = Connectivity.is_adequate ~f g in
  if adequate then
    {
      n;
      f;
      adequate;
      survived_attacks = Some (survives_zoo ~n ~f ());
      certificate_broke_it = None;
    }
  else begin
    let cert =
      Ba_nodes.certify
        ~device:(fun w -> Eig.device ~n ~f ~me:w ~default:bool_default)
        ~v0:(Value.bool false) ~v1:(Value.bool true)
        ~horizon:(Eig.decision_round ~f + 1)
        ~f g
    in
    {
      n;
      f;
      adequate;
      survived_attacks = None;
      certificate_broke_it = Some (Certificate.is_contradiction cert);
    }
  end

(* The one n×f grid enumerator: every consumer of the boundary sweep (the
   in-process sweep below, the engine's job builder, the CLI) walks this same
   list, in this same order — f outer, n inner from 3. *)
let nf_grid ~n_max ~f_max =
  List.concat_map
    (fun f ->
      List.filter_map
        (fun n -> if n < 3 then None else Some (n, f))
        (List.init (n_max - 2) (fun i -> i + 3)))
    (List.init f_max (fun i -> i + 1))

let nf_boundary ~n_max ~f_max =
  List.map (fun (n, f) -> nf_cell ~n ~f ()) (nf_grid ~n_max ~f_max)

let connectivity_cell ~f ~n ~kappa () =
  let g = Topology.harary ~k:kappa ~n in
  let adequate = Connectivity.is_adequate ~f g in
  if adequate then begin
    (* Dolev relay under a lying relay node. *)
    let source = 0 in
    let value = Value.int 99 in
    let horizon = Dolev_relay.decision_round g ~f ~source + 1 in
    let liar u =
      Adversary.mutate
        (Dolev_relay.device g ~f ~source ~me:u ~default:(Value.int 0))
        ~rewrite:(fun ~port:_ ~round:_ m -> Option.map (fun _ -> Value.int 666) m)
    in
    let bad = List.init f (fun i -> 1 + (2 * i)) in
    let sys = Dolev_relay.system g ~f ~source ~value ~default:(Value.int 0) in
    let sys =
      List.fold_left (fun acc u -> System.substitute acc u (liar u)) sys bad
    in
    let trace = Exec.run sys ~rounds:horizon in
    let ok =
      List.for_all
        (fun u -> List.mem u bad || Trace.decision trace u = Some value)
        (Graph.nodes g)
    in
    kappa, adequate, Some ok, None
  end
  else begin
    let cert =
      Ba_connectivity.certify
        ~device:(fun w ->
          Naive.flood_vote g ~me:w ~rounds:(n / 2) ~default:bool_default)
        ~v0:(Value.bool false) ~v1:(Value.bool true)
        ~horizon:(n / 2 + 3)
        ~f g
    in
    kappa, adequate, None, Some (Certificate.is_contradiction cert)
  end

let connectivity_boundary ~f ~kappas ~n =
  List.map (fun kappa -> connectivity_cell ~f ~n ~kappa ()) kappas

let pp_nf ppf cells =
  Format.fprintf ppf "@[<v>  n \\ f |";
  let fs = List.sort_uniq Int.compare (List.map (fun c -> c.f) cells) in
  let ns = List.sort_uniq Int.compare (List.map (fun c -> c.n) cells) in
  (* Index the cells once by (n, f) — first match wins, as with the linear
     scan this replaces, but the table turns the render from quadratic in the
     cell count into linear. *)
  let by_nf = Hashtbl.create (List.length cells) in
  List.iter
    (fun c ->
      if not (Hashtbl.mem by_nf (c.n, c.f)) then Hashtbl.add by_nf (c.n, c.f) c)
    cells;
  List.iter (fun f -> Format.fprintf ppf " f=%d        |" f) fs;
  List.iter
    (fun n ->
      Format.fprintf ppf "@   n=%2d |" n;
      List.iter
        (fun f ->
          match Hashtbl.find_opt by_nf (n, f) with
          | None -> Format.fprintf ppf "            |"
          | Some c ->
            let text =
              match c.survived_attacks, c.certificate_broke_it with
              | Some true, _ -> "OK (solves) "
              | Some false, _ -> "ATTACKED?!  "
              | _, Some true -> "IMPOSSIBLE  "
              | _, Some false -> "cert failed "
              | None, None -> "            "
            in
            Format.fprintf ppf " %s|" text)
        fs)
    ns;
  Format.fprintf ppf "@]"
