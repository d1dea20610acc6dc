(* Relay items are Tag "relay" (dst, (path_idx, payload)); each edge carries a
   bundle (List) of items per round, since one node may relay for many paths
   simultaneously. *)

let item ~dst ~idx payload =
  Value.tag "relay" (Value.triple (Value.int dst) (Value.int idx) payload)

let parse_item v =
  if not (Value.is_tag "relay" v) then None
  else
    match Value.get_triple (Value.untag "relay" v) with
    | exception Value.Type_error _ -> None
    | dst, idx, payload -> (
      match Value.get_int_opt dst, Value.get_int_opt idx with
      | Some dst, Some idx -> Some (dst, idx, payload)
      | _, _ -> None)

let routes g ~f ~source =
  let want = (2 * f) + 1 in
  List.filter_map
    (fun dst ->
      if dst = source then None
      else begin
        let paths = Paths.vertex_disjoint g ~src:source ~dst in
        if List.length paths < want then
          invalid_arg
            (Printf.sprintf
               "Dolev_relay: only %d disjoint paths %d->%d, need %d \
                (connectivity < 2f+1)"
               (List.length paths) source dst want);
        let sorted =
          List.sort
            (fun a b ->
              match Int.compare (List.length a) (List.length b) with
              | 0 -> Stdlib.compare a b
              | c -> c)
            paths
        in
        Some (dst, List.filteri (fun i _ -> i < want) sorted)
      end)
    (Graph.nodes g)

let max_arrival routes_table =
  List.fold_left
    (fun acc (_, paths) ->
      List.fold_left (fun acc p -> max acc (List.length p - 1)) acc paths)
    1 routes_table

let decision_round g ~f ~source = max_arrival (routes g ~f ~source) + 1

(* Position of [me] on [path], if any. *)
let position_of me path =
  let rec go i = function
    | [] -> None
    | v :: rest -> if v = me then Some i else go (i + 1) rest
  in
  go 0 path

let device g ~f ~source ~me ~default =
  let table = routes g ~f ~source in
  let horizon = max_arrival table in
  let nbrs = Array.of_list (Graph.neighbors g me) in
  let arity = Array.length nbrs in
  let port_of =
    let h = Hashtbl.create arity in
    Array.iteri (fun j v -> Hashtbl.add h v j) nbrs;
    fun v -> Hashtbl.find h v
  in
  (* Per (dst, idx): my role on that path. *)
  let roles =
    List.concat_map
      (fun (dst, paths) ->
        List.mapi
          (fun idx path ->
            let len = List.length path in
            match position_of me path with
            | Some pos when pos > 0 ->
              let pred = List.nth path (pos - 1) in
              if pos = len - 1 then [ (dst, idx), `Receive (pred, pos) ]
              else [ (dst, idx), `Forward (pred, List.nth path (pos + 1), pos) ]
            | Some 0 -> [ (dst, idx), `Send (List.nth path 1) ]
            | Some _ | None -> [])
          paths
        |> List.concat)
      table
  in
  let my_claims =
    (* path slots for which I am the destination *)
    List.filter_map
      (fun (key, role) ->
        match role with `Receive _ -> Some key | `Forward _ | `Send _ -> None)
      roles
  in
  let pack step claims decided =
    Value.triple (Value.int step)
      (Value.of_assoc
         (List.map (fun ((d, i), v) -> Value.pair (Value.int d) (Value.int i), v) claims))
      (match decided with None -> Value.unit | Some v -> Value.tag "d" v)
  in
  let unpack state =
    let step, claims, decided = Value.get_triple state in
    ( Value.get_int step,
      List.map
        (fun (k, v) ->
          let d, i = Value.get_pair k in
          (Value.get_int d, Value.get_int i), v)
        (Value.assoc claims),
      if Value.is_tag "d" decided then Some (Value.untag "d" decided) else None )
  in
  Device.make
    ~name:(Printf.sprintf "Relay[f=%d,src=%d]@%d" f source me)
    ~arity
    ~init:
      (fun ~input ->
        (* The source holds its value as a pseudo-claim and decides it
           outright. *)
        if me = source then pack 0 [ (source, -1), input ] (Some input)
        else pack 0 [] None)
    ~step:
      (fun ~state ~round:_ ~inbox ->
        let step, claims, decided = unpack state in
        if step > horizon then state, Array.make arity None
        else begin
          (* Outbound bundles per port. *)
          let out = Array.make arity [] in
          let push v itm = out.(port_of v) <- itm :: out.(port_of v) in
          (* Source injection at step 0. *)
          if me = source && step = 0 then begin
            let value = List.assoc (source, -1) claims in
            List.iter
              (fun (dst, paths) ->
                List.iteri
                  (fun idx path ->
                    match path with
                    | _ :: next :: _ -> push next (item ~dst ~idx value)
                    | _ -> ())
                  paths)
              table
          end;
          (* Process arrivals. *)
          let claims = ref claims in
          let seen = Hashtbl.create 8 in
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
                      | Some (dst, idx, payload) -> (
                        (* Validate against my role on this path slot first;
                           only then dedupe.  A spoofed item from the wrong
                           port must not shadow the genuine one. *)
                        let fresh () =
                          if Hashtbl.mem seen (dst, idx) then false
                          else begin
                            Hashtbl.add seen (dst, idx) ();
                            true
                          end
                        in
                        match List.assoc_opt (dst, idx) roles with
                        | Some (`Forward (pred, next, pos))
                          when nbrs.(port) = pred && pos = step ->
                          if fresh () then push next (item ~dst ~idx payload)
                        | Some (`Receive (pred, pos))
                          when nbrs.(port) = pred && pos = step && dst = me
                               && not (List.mem_assoc (dst, idx) !claims) ->
                          if fresh () then
                            claims := ((dst, idx), payload) :: !claims
                        | Some (`Forward _ | `Receive _ | `Send _) | None ->
                          ()))
                    items))
            inbox;
          let claims = !claims in
          (* Decide at the horizon: majority over my 2f+1 path slots. *)
          let decided =
            if me <> source && step = horizon && decided = None then begin
              let votes =
                List.filter_map
                  (fun key -> List.assoc_opt key claims)
                  my_claims
              in
              let distinct = List.sort_uniq Value.compare votes in
              let count v =
                List.length (List.filter (Value.equal v) votes)
              in
              match List.find_opt (fun v -> count v >= f + 1) distinct with
              | Some v -> Some v
              | None -> Some default
            end
            else decided
          in
          let sends =
            Array.map
              (fun items ->
                if items = [] then None else Some (Value.list (List.rev items)))
              out
          in
          pack (step + 1) claims decided, sends
        end)
    ~output:
      (fun state ->
        let _, _, decided = unpack state in
        decided)

let system g ~f ~source ~value ~default =
  System.make g (fun u ->
      ( device g ~f ~source ~me:u ~default,
        if u = source then value else Value.unit ))
