let validate_parts g parts =
  let all = List.concat parts |> List.sort Int.compare in
  if all <> Graph.nodes g then
    invalid_arg "Collapse: parts must partition the node set";
  if List.exists (fun p -> p = []) parts then
    invalid_arg "Collapse: empty part"

let part_of_table g parts =
  let table = Array.make (Graph.n g) (-1) in
  List.iteri (fun i p -> List.iter (fun u -> table.(u) <- i) p) parts;
  table

let quotient_graph g ~parts =
  validate_parts g parts;
  let part_of = part_of_table g parts in
  let edges =
    Graph.undirected_edges g
    |> List.filter_map (fun (u, v) ->
           let pu = part_of.(u) and pv = part_of.(v) in
           if pu = pv then None else Some (min pu pv, max pu pv))
    |> List.sort_uniq compare
  in
  Graph.make ~n:(List.length parts) edges

(* State: (running member devices in part order, internal in-flight
   messages as an assoc (src, dst) -> message).  It projects to the pair
   of the members' projected states and the buffer keyed by
   [Pair (Int src, Int dst)]. *)
let project (members, buffer) =
  Value.pair
    (Value.list
       (List.map (fun (Device.Running (d, s)) -> d.Device.project s) members))
    (Value.of_assoc
       (List.map
          (fun ((s, d), m) -> Value.pair (Value.int s) (Value.int d), m)
          buffer))

let member_states state = fst (Value.get_pair state) |> Value.get_list

let cross_key src dst = Value.pair (Value.int src) (Value.int dst)

(* [member_input input i]: member [i]'s input when the product device's
   input is [input]. *)
let product sys ~parts ~part_index ~member_input =
  let g = System.graph sys in
  validate_parts g parts;
  let part_of = part_of_table g parts in
  let quotient = quotient_graph g ~parts in
  let members = List.nth parts part_index in
  let neighbor_parts = Graph.neighbors quotient part_index in
  let arity = List.length neighbor_parts in
  let quotient_port =
    let table = Hashtbl.create 4 in
    List.iteri (fun j p -> Hashtbl.add table p j) neighbor_parts;
    fun p -> Hashtbl.find table p
  in
  let inside u = part_of.(u) = part_index in
  Device.Device
    {
      Device.name =
        Printf.sprintf "Q{%s}"
          (String.concat "," (List.map string_of_int members));
      arity;
      init =
        (fun ~input ->
          ( List.mapi
              (fun i u ->
                let (Device.Device d) = System.device sys u in
                Device.Running (d, d.init ~input:(member_input input i)))
              members,
            [] ));
      step =
        (fun ~state:(states, buffer) ~round ~inbox ->
          (* Cross deliveries from the quotient inbox: (src, dst) -> msg, with
             src in the claimed neighbor part and (src, dst) a real edge. *)
          let cross = Hashtbl.create 16 in
          List.iteri
            (fun j m ->
              let from_part = List.nth neighbor_parts j in
              match m with
              | None -> ()
              | Some bundle -> (
                match Value.assoc bundle with
                | exception Value.Type_error _ -> ()
                | pairs ->
                  List.iter
                    (fun (k, msg) ->
                      match Value.get_pair k with
                      | exception Value.Type_error _ -> ()
                      | s, d -> (
                        match Value.get_int_opt s, Value.get_int_opt d with
                        | Some s, Some d
                          when Graph.is_node g s && Graph.is_node g d
                               && part_of.(s) = from_part && inside d
                               && Graph.mem_edge g s d
                               && not (Hashtbl.mem cross (s, d)) ->
                          Hashtbl.add cross (s, d) msg
                        | _, _ -> ()))
                    pairs))
            (Array.to_list inbox);
          (* Step every member with its reconstructed inbox. *)
          let out_bundles = Array.make arity [] in
          let new_buffer = ref [] in
          let states' =
            List.map2
              (fun u (Device.Running (d, member_state)) ->
                let wiring = System.wiring sys u in
                let member_inbox =
                  Array.map
                    (fun v ->
                      if inside v then List.assoc_opt (v, u) buffer
                      else Hashtbl.find_opt cross (v, u))
                    wiring
                in
                let member_state', sends =
                  Device.step_checked d ~state:member_state ~round
                    ~inbox:member_inbox
                in
                Array.iteri
                  (fun j msg ->
                    match msg with
                    | None -> ()
                    | Some msg ->
                      let v = wiring.(j) in
                      if inside v then new_buffer := ((u, v), msg) :: !new_buffer
                      else begin
                        let port = quotient_port part_of.(v) in
                        out_bundles.(port) <-
                          (cross_key u v, msg) :: out_bundles.(port)
                      end)
                  sends;
                Device.Running (d, member_state'))
              members states
          in
          let sends =
            Array.map
              (fun entries ->
                if entries = [] then None
                else Some (Value.of_assoc (List.rev entries)))
              out_bundles
          in
          (states', List.rev !new_buffer), sends);
      output =
        (fun (states, _) ->
          let decisions =
            List.map (fun (Device.Running (d, s)) -> d.Device.output s) states
          in
          if List.for_all Option.is_some decisions then
            Some (Value.list (List.map Option.get decisions))
          else None);
      project;
    }

let device sys ~parts ~part_index =
  product sys ~parts ~part_index ~member_input:(fun input _ -> input)

let system sys ~parts =
  let g = System.graph sys in
  validate_parts g parts;
  let quotient = quotient_graph g ~parts in
  System.make quotient (fun pi ->
      let members = List.nth parts pi in
      (* Bypass input replication: hand each member its original input. *)
      ( product sys ~parts ~part_index:pi ~member_input:(fun input i ->
            List.nth (Value.get_list input) i),
        Value.list (List.map (System.input sys) members) ))

let certify_via_triangle ~device:member_device ~v0 ~v1 ~horizon ~f g =
  let n = Graph.n g in
  if n > 3 * f then invalid_arg "Collapse.certify_via_triangle: n > 3f";
  let a, b, c = Ba_nodes.default_partition g ~f in
  let parts = [ a; b; c ] in
  let base_system = System.make g (fun u -> member_device u, v0) in
  let quotient = quotient_graph g ~parts in
  if Graph.edge_count quotient <> 3 then
    invalid_arg "Collapse.certify_via_triangle: quotient is not the triangle";
  let product_device pi =
    device base_system ~parts ~part_index:pi
    |> Device.map_output (fun decisions ->
           Eig_tree.majority ~default:v0 (Value.get_list decisions))
  in
  let cert =
    Ba_nodes.certify ~device:product_device ~v0 ~v1 ~horizon ~f:1 quotient
  in
  {
    cert with
    Certificate.target = g;
    f;
    description =
      Printf.sprintf
        "Theorem 1 via footnote 3: n=%d <= 3f=%d collapsed onto the triangle \
         (parts {%s} {%s} {%s}); then the f=1 hexagon construction"
        n (3 * f)
        (String.concat "," (List.map string_of_int a))
        (String.concat "," (List.map string_of_int b))
        (String.concat "," (List.map string_of_int c));
  }
