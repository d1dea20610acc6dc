let confused = Value.tag "confused" Value.unit

let nothing = Value.tag "nothing" Value.unit

let decision_round = 3

let device ~n ~f ~me ~general =
  if n < 2 || f < 0 || me < 0 || me >= n then invalid_arg "Crusader.device";
  if general < 0 || general >= n then invalid_arg "Crusader.device: general";
  let arity = n - 1 in
  let pack step payload decided =
    Value.triple (Value.int step) payload
      (match decided with None -> Value.unit | Some v -> Value.tag "d" v)
  in
  let unpack state =
    let step, payload, decided = Value.get_triple state in
    ( Value.get_int step,
      payload,
      if Value.is_tag "d" decided then Some (Value.untag "d" decided) else None )
  in
  Device.make
    ~name:(Printf.sprintf "Crusader[%d/%d,g=%d]@%d" n f general me)
    ~arity
    ~init:(fun ~input -> pack 0 input None)
    ~step:
      (fun ~state ~round:_ ~inbox ->
        let step, payload, decided = unpack state in
        match step with
        | 0 ->
          (* The general announces; everyone else waits. *)
          let sends =
            if me = general then
              Array.make arity (Some (Value.tag "cr1" payload))
            else Array.make arity None
          in
          pack 1 payload decided, sends
        | 1 ->
          (* Record the direct value; echo it. *)
          let direct =
            if me = general then payload
            else begin
              let port = if general < me then general else general - 1 in
              match inbox.(port) with
              | Some m when Value.is_tag "cr1" m -> Value.untag "cr1" m
              | Some _ | None -> nothing
            end
          in
          pack 2 direct decided,
          Array.make arity (Some (Value.tag "cr2" direct))
        | 2 ->
          (* Tally the echoes (own direct value included). *)
          let echoes =
            payload
            :: (Array.to_list inbox
               |> List.filter_map (fun m ->
                      match m with
                      | Some v when Value.is_tag "cr2" v ->
                        Some (Value.untag "cr2" v)
                      | Some _ | None -> None))
          in
          let candidates =
            List.sort_uniq Value.compare
              (List.filter (fun v -> not (Value.equal v nothing)) echoes)
          in
          let count w = List.length (List.filter (Value.equal w) echoes) in
          let decision =
            match List.find_opt (fun w -> count w >= n - f) candidates with
            | Some w -> w
            | None -> confused
          in
          pack 3 payload (Some decision), Array.make arity None
        | _ -> state, Array.make arity None)
    ~output:
      (fun state ->
        let _, _, decided = unpack state in
        decided)

let system g ~f ~general ~value =
  let n = Graph.n g in
  if List.exists (fun u -> Graph.degree g u <> n - 1) (Graph.nodes g) then
    invalid_arg "Crusader.system: complete graph required";
  System.make g (fun u ->
      ( device ~n ~f ~me:u ~general,
        if u = general then value else Value.unit ))
