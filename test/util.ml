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
       (fun src ->
         List.for_all
           (fun dst ->
             Array.for_all2 Value.equal_opt
               (Trace.edge_behavior t1 ~src ~dst)
               (Trace.edge_behavior t2 ~src ~dst))
           (Graph.neighbors g src))
       (Graph.nodes g)

(* Arbitrary JSON trees for the decoder properties.  Keys come mostly from
   the field names the decoders read, so generated objects get past their
   first checks; floats are finite, because JSON has no NaN or infinity. *)
let json_keys =
  [ "v"; "op"; "kind"; "n"; "f"; "timeout_ms"; "problem"; "family"; "seed";
    "strategy"; "trials"; "n_max"; "f_max"; "status"; "result"; "error";
    "class"; "exit_code"; "what"; "detail"; "faulty"; "violations";
    "survived"; "name"; "protocols"; "strategies"; "families"; "workers";
    "schema_version"; "findings"; "rule"; "file"; "line" ]

let json_gen =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ 1, return Bench_json.Null;
        1, map (fun b -> Bench_json.Bool b) bool;
        3, map (fun i -> Bench_json.Int i) (oneof [ small_signed_int; int ]);
        1, map (fun x -> Bench_json.Float x)
             (map (fun x -> if Float.is_finite x then x else 0.5) float);
        3, map (fun s -> Bench_json.String s)
             (oneof [ oneofl json_keys; oneofl [ "ba"; "crash"; "ok"; "cell" ];
                      string_size (int_bound 8) ]) ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         if depth = 0 then leaf
         else
           frequency
             [ 2, leaf;
               1, map (fun l -> Bench_json.List l)
                    (list_size (int_bound 4) (self (depth - 1)));
               3, map (fun kvs -> Bench_json.Obj kvs)
                    (list_size (int_bound 6)
                       (pair
                          (oneof [ oneofl json_keys; string_size (int_bound 4) ])
                          (self (depth - 1)))) ])

let arbitrary_json =
  QCheck.make ~print:(fun j -> Bench_json.to_string j) json_gen

(* A valid document with one or two random edits: a field or element
   replaced by an arbitrary tree (or edited in turn), dropped, or added.
   These reach the checks deep inside a decoder that a tree drawn from
   scratch almost never gets past. *)
let rec json_edit j =
  let open QCheck.Gen in
  let replace_nth i v l = List.mapi (fun k x -> if k = i then v else x) l in
  match j with
  | Bench_json.Obj (_ :: _ as kvs) ->
    int_bound (List.length kvs - 1) >>= fun i ->
    let key, sub = List.nth kvs i in
    frequency
      [ 3, map (fun v -> Bench_json.Obj (replace_nth i (key, v) kvs))
             (oneof [ json_gen; json_edit sub ]);
        1, return (Bench_json.Obj (List.filteri (fun k _ -> k <> i) kvs));
        1, map2 (fun k v -> Bench_json.Obj (kvs @ [ k, v ]))
             (oneofl json_keys) json_gen ]
  | Bench_json.List (_ :: _ as vs) ->
    int_bound (List.length vs - 1) >>= fun i ->
    map (fun v -> Bench_json.List (replace_nth i v vs))
      (oneof [ json_gen; json_edit (List.nth vs i) ])
  | _ -> json_gen

let near_json docs =
  let open QCheck.Gen in
  let edited = oneofl docs >>= json_edit in
  QCheck.make ~print:(fun j -> Bench_json.to_string j)
    (frequency [ 1, json_gen; 3, edited; 1, edited >>= json_edit ])
