(* Shared helpers for the test suites: simple information-propagating devices
   and generators. *)

(* A gossip device: remembers every value it has heard (plus its input),
   broadcasts its whole knowledge every round.  Deterministic, and
   information flows at exactly one edge per round — ideal for exercising
   Locality and Bounded-Delay. *)
let gossip_step ~arity ~state ~inbox =
  let heard =
    Array.to_list inbox |> List.filter_map Fun.id |> List.concat_map Value.get_list
  in
  let state' =
    Value.list (List.sort_uniq Value.compare (heard @ Value.get_list state))
  in
  state', Array.make arity (Some state')

let gossip ~name ~arity =
  Device.make ~name ~arity
    ~init:(fun ~input -> Value.list [ input ])
    ~step:(fun ~state ~round:_ ~inbox -> gossip_step ~arity ~state ~inbox)
    ~output:(fun _ -> None)

(* Same, but with an explicit round counter so it can decide its knowledge
   after [horizon] rounds. *)
let gossip_deciding ~name ~arity ~horizon =
  Device.make ~name ~arity
    ~init:(fun ~input -> Value.pair (Value.int 0) (Value.list [ input ]))
    ~step:(fun ~state ~round:_ ~inbox ->
      let r, inner = Value.get_pair state in
      let inner', sends = gossip_step ~arity ~state:inner ~inbox in
      Value.pair (Value.int (Value.get_int r + 1)) inner', sends)
    ~output:(fun state ->
      let r, inner = Value.get_pair state in
      if Value.get_int r >= horizon then Some inner else None)

let make_gossip_system ?(horizon = 8) g =
  System.make g (fun u ->
      ( gossip_deciding ~name:(Printf.sprintf "G%d" u) ~arity:(Graph.degree g u)
          ~horizon,
        Value.int u ))

let trace_equal t1 t2 =
  Trace.rounds t1 = Trace.rounds t2
  &&
  let g = System.graph (Trace.system t1) in
  List.for_all
    (fun u ->
      Array.for_all2 Value.equal (Trace.node_behavior t1 u)
        (Trace.node_behavior t2 u))
    (Graph.nodes g)
  && List.for_all
       (fun (src, dst) ->
         Array.for_all2 Value.equal_opt
           (Trace.edge_behavior t1 ~src ~dst)
           (Trace.edge_behavior t2 ~src ~dst))
       (Graph.directed_edges g)
