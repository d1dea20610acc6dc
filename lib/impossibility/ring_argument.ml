let prefix_agrees b1 b2 ~through =
  let limit = min through (min (Array.length b1 - 1) (Array.length b2 - 1)) in
  let rec go i = i > limit || (Value.equal b1.(i) b2.(i) && go (i + 1)) in
  go 0

let certify ~who ~problem ~theorem ~bound ~header ~anchors ~deep ~fate
    ~fate_note ~fates ~check_anchor ~check ~fallback ~device ~through ?copies
    ~horizon () =
  let m =
    match copies with
    | Some m ->
      if m < 2 || m mod 2 <> 0 then
        invalid_arg (who ^ ": copies must be even and >= 2");
      m
    | None ->
      (* Both arcs must hold a node more than [through] hops from the other
         arc: arc length 3m/2 > 2 (through + 1). *)
      let m = ((4 * (through + 2)) + 2) / 3 in
      if m mod 2 = 0 then m else m + 1
  in
  let covering = Covering.triangle_ring ~copies:m in
  let ring_len = 3 * m in
  (* Anchors: fault-free triangle runs with unanimous inputs. *)
  let anchor input label =
    let sys =
      System.make covering.Covering.target (fun w -> device w, Value.bool input)
    in
    let trace = Exec.run sys ~rounds:horizon in
    label, trace, check_anchor ~input trace
  in
  let all_false = anchor false (fst anchors)
  and all_true = anchor true (snd anchors) in
  (* Lemma 3, executable: a ring node more than [through] hops from every
     node of the other arc behaves like the unanimous anchor through round
     [through]. *)
  let deep_note covering_trace label ~deep (anchor_label, anchor_trace, _) =
    let target = snd (Covering.decode covering deep) in
    let agrees =
      prefix_agrees
        (Trace.node_behavior covering_trace deep)
        (Trace.node_behavior anchor_trace target)
        ~through
    in
    Printf.sprintf
      "%s: ring node %d (over %d) %s the %s behavior through round %d; %s"
      label deep target
      (if agrees then "matches" else "DOES NOT match")
      anchor_label through
      (fate_note (fate covering_trace deep))
  in
  let notes covering_trace =
    [ header ~ring_len;
      deep_note covering_trace (fst deep) ~deep:(3 * (m / 4)) all_false;
      deep_note covering_trace (snd deep)
        ~deep:((ring_len / 2) + (3 * (m / 4)))
        all_true;
      fates ^ ": "
      ^ String.concat " "
          (List.init ring_len (fun i ->
               Option.value (fate covering_trace i) ~default:"-"));
    ]
  in
  Certificate.build ~aux:[ all_false; all_true ] ~notes ~problem
    ~description:
      (Printf.sprintf "%s: %d-ring covering of the triangle, %s %d" theorem
         ring_len bound through)
    ~f:1 ~covering ~device
    ~input:(fun s -> Value.bool (s >= ring_len / 2))
    ~horizon
    ~scenarios:
      (List.init ring_len (fun i ->
           let j = (i + 1) mod ring_len in
           Printf.sprintf "E%d,%d" i j, Certificate.edge_scenario covering i j))
    ~check ~fallback ()
