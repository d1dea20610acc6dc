let from_traces ~name sources =
  let sends =
    Array.of_list
      (List.map
         (fun (trace, src, dst) -> Trace.edge_behavior trace ~src ~dst)
         sources)
  in
  Device.replay ~name ~sends

let from_trace trace ~name ~schedule =
  from_traces ~name (List.map (fun (src, dst) -> trace, src, dst) schedule)

let silent ~arity = Device.silent ~name:"faulty-silent" ~arity

let crash ~after (Device.Device honest) =
  let arity = honest.arity in
  Device.Device
    {
      honest with
      name = Printf.sprintf "crash@%d(%s)" after honest.name;
      step =
        (fun ~state ~round ~inbox ->
          if round < after then honest.step ~state ~round ~inbox
          else state, Array.make arity None);
      output = (fun _ -> None);
    }

(* The state is one honest sub-state per variant. *)
let split_brain (Device.Device honest) ~inputs =
  let arity = honest.arity in
  if Array.length inputs <> arity then
    invalid_arg "Adversary.split_brain: one input per port required";
  let variants =
    Array.of_list (List.sort_uniq Value.compare (Array.to_list inputs))
  in
  let variant_of_port =
    Array.map
      (fun v ->
        let rec find i =
          if Value.equal variants.(i) v then i else find (i + 1)
        in
        find 0)
      inputs
  in
  Device.Device
    {
      name = Printf.sprintf "split-brain(%s)" honest.name;
      arity;
      init = (fun ~input:_ -> Array.map (fun v -> honest.init ~input:v) variants);
      step =
        (fun ~state ~round ~inbox ->
          let stepped =
            Array.map (fun s -> honest.step ~state:s ~round ~inbox) state
          in
          let sends =
            Array.init arity (fun j -> (snd stepped.(variant_of_port.(j))).(j))
          in
          Array.map fst stepped, sends);
      output = (fun _ -> None);
      project =
        (fun state -> Value.list (Array.to_list (Array.map honest.project state)));
    }

let babbler ~seed ~palette ~arity =
  let palette = Array.of_list palette in
  if Array.length palette = 0 then invalid_arg "Adversary.babbler: empty palette";
  Device.make ~name:"babbler" ~arity
    ~init:(fun ~input:_ -> Value.unit)
    ~step:(fun ~state ~round ~inbox:_ ->
      (* Deterministic pseudo-random choice per (seed, round, port): the
         system keeps a single behavior, as the model requires. *)
      let pick j =
        (* flm-lint: allow locality/hashtbl-hash — hashing a triple of
           immediate ints is structure-stable, and (seed, round, j) are
           all explicit inputs: the babbler stays one deterministic
           behavior per seed, exactly what the model requires *)
        let h = Hashtbl.hash (seed, round, j) in
        if h mod 3 = 0 then None
        else Some palette.(h mod Array.length palette)
      in
      state, Array.init arity pick)
    ~output:(fun _ -> None)

let mutate (Device.Device honest) ~rewrite =
  Device.Device
    {
      honest with
      name = Printf.sprintf "mutate(%s)" honest.name;
      step =
        (fun ~state ~round ~inbox ->
          let state', sends = honest.step ~state ~round ~inbox in
          state', Array.mapi (fun port m -> rewrite ~port ~round m) sends);
      output = (fun _ -> None);
    }
