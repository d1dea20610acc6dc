let majority ~default votes =
  let distinct = List.sort_uniq Value.compare votes in
  let count v = List.length (List.filter (Value.equal v) votes) in
  let threshold = List.length votes / 2 in
  match List.find_opt (fun v -> count v > threshold) distinct with
  | Some v -> v
  | None -> default

let majority_vote ~n ~f ~me ~default =
  ignore f;
  if me < 0 || me >= n then invalid_arg "Naive.majority_vote";
  let arity = n - 1 in
  let pack step input decided =
    Value.triple (Value.int step) input
      (match decided with None -> Value.unit | Some v -> Value.tag "d" v)
  in
  let unpack state =
    let step, input, decided = Value.get_triple state in
    ( Value.get_int step,
      input,
      if Value.is_tag "d" decided then Some (Value.untag "d" decided) else None )
  in
  Device.make
    ~name:(Printf.sprintf "Majority[%d]@%d" n me)
    ~arity
    ~init:(fun ~input -> pack 0 input None)
    ~step:
      (fun ~state ~round:_ ~inbox ->
        let step, input, decided = unpack state in
        match step with
        | 0 -> pack 1 input decided, Array.make arity (Some input)
        | 1 ->
          let votes =
            input
            :: (Array.to_list inbox |> List.filter_map Fun.id)
          in
          pack 2 input (Some (majority ~default votes)), Array.make arity None
        | _ -> state, Array.make arity None)
    ~output:
      (fun state ->
        let _, _, decided = unpack state in
        decided)

let echo_once ~n ~me ~default =
  if me < 0 || me >= n then invalid_arg "Naive.echo_once";
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
    ~name:(Printf.sprintf "Echo[%d]@%d" n me)
    ~arity
    ~init:(fun ~input -> pack 0 input None)
    ~step:
      (fun ~state ~round:_ ~inbox ->
        let step, payload, decided = unpack state in
        match step with
        | 0 ->
          (* Broadcast input. *)
          pack 1 payload decided, Array.make arity (Some payload)
        | 1 ->
          (* Echo the received vector. *)
          let vector =
            Array.to_list inbox
            |> List.map (function Some v -> v | None -> Value.unit)
          in
          let heard = Value.list vector in
          ( pack 2 (Value.pair payload heard) decided,
            Array.make arity (Some heard) )
        | 2 ->
          let input, first_hand = Value.get_pair payload in
          let first = Value.get_list first_hand in
          let second =
            Array.to_list inbox
            |> List.concat_map (function
                 | Some v -> (
                   match Value.get_list v with
                   | exception Value.Type_error _ -> []
                   | vs -> vs)
                 | None -> [])
          in
          let votes =
            input :: (first @ second)
            |> List.filter (fun v -> not (Value.equal v Value.unit))
          in
          pack 3 payload (Some (majority ~default votes)), Array.make arity None
        | _ -> state, Array.make arity None)
    ~output:
      (fun state ->
        let _, _, decided = unpack state in
        decided)

let repeat_own ~n ~me =
  if me < 0 || me >= n then invalid_arg "Naive.repeat_own";
  let arity = n - 1 in
  Device.make
    ~name:(Printf.sprintf "Own[%d]@%d" n me)
    ~arity
    ~init:(fun ~input -> input)
    ~step:(fun ~state ~round:_ ~inbox:_ -> state, Array.make arity None)
    ~output:(fun state -> Some state)

let flood_vote g ~me ~rounds ~default =
  let arity = Graph.degree g me in
  let pack step claims decided =
    Value.triple (Value.int step)
      (Value.of_assoc (List.map (fun (i, v) -> Value.int i, v) claims))
      (match decided with None -> Value.unit | Some v -> Value.tag "d" v)
  in
  let unpack state =
    let step, claims, decided = Value.get_triple state in
    ( Value.get_int step,
      List.map (fun (k, v) -> Value.get_int k, v) (Value.assoc claims),
      if Value.is_tag "d" decided then Some (Value.untag "d" decided) else None )
  in
  Device.make
    ~name:(Printf.sprintf "Flood@%d" me)
    ~arity
    ~init:(fun ~input -> pack 0 [ me, input ] None)
    ~step:
      (fun ~state ~round:_ ~inbox ->
        let step, claims, decided = unpack state in
        if step > rounds then state, Array.make arity None
        else begin
          (* Merge incoming claim sets; first claim per id wins, scanning
             ports in order — deterministic. *)
          let claims =
            Array.fold_left
              (fun claims m ->
                match m with
                | None -> claims
                | Some v -> (
                  match Value.assoc v with
                  | exception Value.Type_error _ -> claims
                  | pairs ->
                    List.fold_left
                      (fun claims (k, v) ->
                        match Value.get_int_opt k with
                        | Some id when not (List.mem_assoc id claims) ->
                          claims @ [ id, v ]
                        | Some _ | None -> claims)
                      claims pairs))
              claims inbox
          in
          let decided =
            if step = rounds && decided = None then begin
              let votes = List.map snd claims in
              let distinct = List.sort_uniq Value.compare votes in
              let count v = List.length (List.filter (Value.equal v) votes) in
              let threshold = List.length votes / 2 in
              match List.find_opt (fun v -> count v > threshold) distinct with
              | Some v -> Some v
              | None -> Some default
            end
            else decided
          in
          let payload =
            Value.of_assoc (List.map (fun (i, v) -> Value.int i, v) claims)
          in
          let sends =
            if step >= rounds then Array.make arity None
            else Array.make arity (Some payload)
          in
          pack (step + 1) claims decided, sends
        end)
    ~output:
      (fun state ->
        let _, _, decided = unpack state in
        decided)
