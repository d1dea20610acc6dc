(* Relay items are Tag "ov" ((src, dst), (path_idx, payload)); bundles are
   Lists.  Within a phase, the item for path position i is in flight during
   round offset i: the source emits at offset 0, position i forwards at
   offset i, and the destination's claim arrives in the inbox of offset
   (len - 1) — possibly the inbox of the next phase's first round, which is
   absorbed before the inner step runs. *)

let item ~src ~dst ~idx payload =
  Value.tag "ov"
    (Value.pair
       (Value.pair (Value.int src) (Value.int dst))
       (Value.pair (Value.int idx) payload))

let parse_item v =
  if not (Value.is_tag "ov" v) then None
  else
    match Value.get_pair (Value.untag "ov" v) with
    | exception Value.Type_error _ -> None
    | key, rest -> (
      match Value.get_pair key, Value.get_pair rest with
      | exception Value.Type_error _ -> None
      | (src, dst), (idx, payload) -> (
        match
          Value.get_int_opt src, Value.get_int_opt dst, Value.get_int_opt idx
        with
        | Some src, Some dst, Some idx -> Some (src, dst, idx, payload)
        | _, _, _ -> None))

let all_routes g ~f =
  List.map (fun s -> s, Dolev_relay.routes g ~f ~source:s) (Graph.nodes g)

let max_arrival routes =
  List.fold_left
    (fun acc (_, per_dst) ->
      List.fold_left
        (fun acc (_, paths) ->
          List.fold_left (fun acc p -> max acc (List.length p - 1)) acc paths)
        acc per_dst)
    1 routes

let phase_length g ~f = max_arrival (all_routes g ~f)

let horizon g ~f ~inner_decision_round =
  ((inner_decision_round - 1) * phase_length g ~f) + 1

type role =
  | Send of Graph.node  (** I am the source; first hop. *)
  | Forward of Graph.node * Graph.node * int  (** pred, next, my position *)
  | Receive of Graph.node * int  (** pred, my position; I am dst *)

let position_of me path =
  let rec go i = function
    | [] -> None
    | v :: rest -> if v = me then Some i else go (i + 1) rest
  in
  go 0 path

let device g ~f ~inner:(Device.Device inner) ~me =
  let n = Graph.n g in
  if inner.arity <> n - 1 then
    invalid_arg "Overlay.device: inner arity must be n-1";
  let routes = all_routes g ~f in
  let phase = max_arrival routes in
  let nbrs = Array.of_list (Graph.neighbors g me) in
  let arity = Array.length nbrs in
  let port_of =
    let h = Hashtbl.create arity in
    Array.iteri (fun j v -> Hashtbl.add h v j) nbrs;
    fun v -> Hashtbl.find h v
  in
  (* Inner (complete-graph) port <-> node id. *)
  let others = List.filter (fun j -> j <> me) (List.init n Fun.id) in
  let inner_id_of_port = Array.of_list others in
  (* My role on each (src, dst, idx) path. *)
  let roles = Hashtbl.create 64 in
  List.iter
    (fun (src, per_dst) ->
      List.iter
        (fun (dst, paths) ->
          List.iteri
            (fun idx path ->
              match position_of me path with
              | None -> ()
              | Some 0 -> (
                match path with
                | _ :: next :: _ ->
                  Hashtbl.add roles (src, dst, idx) (Send next)
                | _ -> ())
              | Some pos ->
                let pred = List.nth path (pos - 1) in
                if pos = List.length path - 1 then
                  Hashtbl.add roles (src, dst, idx) (Receive (pred, pos))
                else
                  Hashtbl.add roles (src, dst, idx)
                    (Forward (pred, List.nth path (pos + 1), pos)))
            paths)
        per_dst)
    routes;
  let my_paths_to dst =
    match List.assoc_opt dst (List.assoc me routes) with
    | Some paths -> paths
    | None -> []
  in
  (* State: (inner_state, claims) with claims an assoc
     (src, idx) -> payload for the phase in flight; it projects to the
     pair of the inner state's projection and the claims' encoding. *)
  let project (inner_state, claims) =
    Value.pair (inner.project inner_state)
      (Value.of_assoc
         (List.map
            (fun ((s, i), v) -> Value.pair (Value.int s) (Value.int i), v)
            claims))
  in
  let decode_inbox claims =
    Array.init (n - 1) (fun port ->
        let src = inner_id_of_port.(port) in
        let votes =
          List.filter_map
            (fun ((s, _), v) -> if s = src then Some v else None)
            claims
        in
        let distinct = List.sort_uniq Value.compare votes in
        let count v = List.length (List.filter (Value.equal v) votes) in
        List.find_opt (fun v -> count v >= f + 1) distinct)
  in
  Device.Device
    {
      Device.name = Printf.sprintf "Ov[%s]" inner.name;
      arity;
      init = (fun ~input -> inner.init ~input, []);
      step =
        (fun ~state:(inner_state, claims) ~round ~inbox ->
          let offset = round mod phase in
          let out = Array.make arity [] in
          let push v itm = out.(port_of v) <- itm :: out.(port_of v) in
          (* 1. Absorb and forward relay traffic.  Messages in this inbox were
             sent at the previous round, i.e. at offset
             (round - 1) mod phase; a position-i item is therefore expected
             here iff i = ((round - 1) mod phase) + 1. *)
          let claims = ref claims in
          let expected_pos = ((round - 1 + phase) mod phase) + 1 in
          let seen = Hashtbl.create 8 in
          if round > 0 then
            Array.iteri
              (fun port m ->
                match m with
                | None -> ()
                | Some bundle -> (
                  match Value.get_list bundle with
                  | exception Value.Type_error _ -> ()
                  | items ->
                    List.iter
                      (fun itm ->
                        match parse_item itm with
                        | None -> ()
                        | Some (src, dst, idx, payload) -> (
                          let fresh () =
                            if Hashtbl.mem seen (src, dst, idx) then false
                            else begin
                              Hashtbl.add seen (src, dst, idx) ();
                              true
                            end
                          in
                          match Hashtbl.find_opt roles (src, dst, idx) with
                          | Some (Forward (pred, next, pos))
                            when nbrs.(port) = pred && pos = expected_pos ->
                            if fresh () then push next (item ~src ~dst ~idx payload)
                          | Some (Receive (pred, pos))
                            when nbrs.(port) = pred && pos = expected_pos
                                 && dst = me
                                 && not (List.mem_assoc (src, idx) !claims) ->
                            if fresh () then
                              claims := ((src, idx), payload) :: !claims
                          | Some (Forward _ | Receive _ | Send _) | None -> ()))
                      items))
              inbox;
          let claims = !claims in
          (* 2. At a phase boundary: decode last phase's claims, step the inner
             device, emit this phase's relay traffic. *)
          let inner_state, claims =
            if offset = 0 then begin
              let inner_round = round / phase in
              let inner_inbox =
                if inner_round = 0 then Array.make (n - 1) None
                else decode_inbox claims
              in
              let inner_state, inner_sends =
                Device.step_checked inner ~state:inner_state ~round:inner_round
                  ~inbox:inner_inbox
              in
              Array.iteri
                (fun inner_port payload_opt ->
                  match payload_opt with
                  | None -> ()
                  | Some payload ->
                    let dst = inner_id_of_port.(inner_port) in
                    List.iteri
                      (fun idx path ->
                        match path with
                        | _ :: next :: _ -> push next (item ~src:me ~dst ~idx payload)
                        | _ -> ())
                      (my_paths_to dst))
                inner_sends;
              inner_state, []
            end
            else inner_state, claims
          in
          let sends =
            Array.map
              (fun items ->
                if items = [] then None else Some (Value.list (List.rev items)))
              out
          in
          (inner_state, claims), sends);
      output = (fun (inner_state, _) -> inner.output inner_state);
      project;
    }

let eig_system g ~f ~inputs ~default =
  let n = Graph.n g in
  if Array.length inputs <> n then invalid_arg "Overlay.eig_system: inputs";
  System.make g (fun u ->
      ( device g ~f ~me:u ~inner:(Eig.device ~n ~f ~me:u ~default),
        inputs.(u) ))
