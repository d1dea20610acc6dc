type node = int

type t = {
  size : int;
  adj : int array array; (* sorted neighbor arrays *)
}

let n g = g.size

let is_node g u = u >= 0 && u < g.size

let make ~n:size edges =
  if size < 0 then invalid_arg "Graph.make: negative size";
  let seen = Hashtbl.create (2 * List.length edges) in
  let lists = Array.make size [] in
  let add_directed u v = lists.(u) <- v :: lists.(u) in
  let add_edge (u, v) =
    if u < 0 || u >= size || v < 0 || v >= size then
      invalid_arg
        (Printf.sprintf "Graph.make: edge (%d,%d) outside [0,%d)" u v size);
    if u = v then invalid_arg (Printf.sprintf "Graph.make: self-loop at %d" u);
    let key = if u < v then (u, v) else (v, u) in
    if Hashtbl.mem seen key then
      invalid_arg (Printf.sprintf "Graph.make: duplicate edge (%d,%d)" u v);
    Hashtbl.add seen key ();
    add_directed u v;
    add_directed v u
  in
  List.iter add_edge edges;
  let adj =
    Array.map (fun l -> Array.of_list (List.sort_uniq Int.compare l)) lists
  in
  { size; adj }

let nodes g = List.init g.size Fun.id

let neighbors g u =
  if not (is_node g u) then invalid_arg "Graph.neighbors: bad node";
  Array.to_list g.adj.(u)

let degree g u =
  if not (is_node g u) then invalid_arg "Graph.degree: bad node";
  Array.length g.adj.(u)

let min_degree g =
  if g.size = 0 then 0
  else Array.fold_left (fun acc a -> min acc (Array.length a)) max_int g.adj

let mem_edge g u v =
  is_node g u && is_node g v
  && Array.exists (fun w -> w = v) g.adj.(u)

let undirected_edges g =
  let acc = ref [] in
  for u = g.size - 1 downto 0 do
    let row = g.adj.(u) in
    for i = Array.length row - 1 downto 0 do
      let v = row.(i) in
      if u < v then acc := (u, v) :: !acc
    done
  done;
  !acc

let edge_count g = List.length (undirected_edges g)

let equal g h =
  g.size = h.size
  && Array.for_all2 (fun a b -> a = b) g.adj h.adj

let induced g us =
  let us = List.sort_uniq Int.compare us in
  List.iter (fun u ->
      if not (is_node g u) then invalid_arg "Graph.induced: bad node")
    us;
  let back = Array.of_list us in
  let fwd = Hashtbl.create (Array.length back) in
  Array.iteri (fun i u -> Hashtbl.add fwd u i) back;
  let edges =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun v ->
            match Hashtbl.find_opt fwd v with
            | Some j when Hashtbl.find fwd u < j ->
              Some (Hashtbl.find fwd u, j)
            | _ -> None)
          (neighbors g u))
      us
  in
  make ~n:(Array.length back) edges, back

let distances g src =
  if not (is_node g src) then invalid_arg "Graph.distances: bad node";
  let dist = Array.make g.size max_int in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    Array.iter
      (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      g.adj.(u)
  done;
  dist

let is_connected g =
  g.size <= 1
  ||
  let dist = distances g 0 in
  Array.for_all (fun d -> d < max_int) dist

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d" g.size;
  List.iter (fun (u, v) -> Format.fprintf ppf "@ %d -- %d" u v)
    (undirected_edges g);
  Format.fprintf ppf "@]"

let to_dot ?(labels = string_of_int) g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph {\n";
  List.iter
    (fun u -> Buffer.add_string buf (Printf.sprintf "  %d [label=%S];\n" u (labels u)))
    (nodes g);
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v))
    (undirected_edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
