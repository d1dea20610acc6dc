let trimmed_midpoint ~f values =
  let len = List.length values in
  if len <= 2 * f then invalid_arg "Approx.trimmed_midpoint: need > 2f values";
  let sorted = List.sort Float.compare values in
  let trimmed = List.filteri (fun i _ -> i >= f && i < len - f) sorted in
  match trimmed with
  | [] -> invalid_arg "Approx.trimmed_midpoint: empty after trim"
  | first :: _ ->
    let last = List.nth trimmed (List.length trimmed - 1) in
    (first +. last) /. 2.0

let decision_round ~rounds = rounds + 1

let rounds_for ~eps ~delta =
  if eps <= 0.0 then invalid_arg "Approx.rounds_for: eps > 0 required";
  let rec go spread acc =
    if spread <= eps || acc > 64 then max acc 1
    else go (spread /. 2.0) (acc + 1)
  in
  go delta 0

let device ~n ~f ~me ~rounds =
  if n < 2 || f < 0 || me < 0 || me >= n then invalid_arg "Approx.device";
  if rounds < 1 then invalid_arg "Approx.device: rounds >= 1";
  let arity = n - 1 in
  let pack step est decided =
    Value.triple (Value.int step) (Value.float est)
      (match decided with None -> Value.unit | Some v -> Value.tag "d" (Value.float v))
  in
  let unpack state =
    let step, est, decided = Value.get_triple state in
    ( Value.get_int step,
      Value.get_float est,
      if Value.is_tag "d" decided then
        Some (Value.get_float (Value.untag "d" decided))
      else None )
  in
  Device.make
    ~name:(Printf.sprintf "Approx[%d/%d]@%d" n f me)
    ~arity
    ~init:(fun ~input -> pack 0 (Value.get_float input) None)
    ~step:
      (fun ~state ~round:_ ~inbox ->
        let step, est, decided = unpack state in
        if step > rounds then state, Array.make arity None
        else begin
          let est =
            if step = 0 then est
            else begin
              (* Garbled or missing values are replaced by our own estimate:
                 this can only pull the trimmed midpoint toward a correct
                 value. *)
              let received =
                Array.to_list inbox
                |> List.map (fun m ->
                       match m with
                       | Some v -> (
                         match Value.get_float_opt v with
                         | Some x when Float.is_finite x -> x
                         | _ -> est)
                       | None -> est)
              in
              trimmed_midpoint ~f (est :: received)
            end
          in
          let decided =
            if step = rounds && decided = None then Some est else decided
          in
          let sends =
            if step >= rounds then Array.make arity None
            else Array.make arity (Some (Value.float est))
          in
          pack (step + 1) est decided, sends
        end)
    ~output:
      (fun state ->
        let _, _, decided = unpack state in
        Option.map Value.float decided)

let system g ~f ~rounds ~inputs =
  let n = Graph.n g in
  if List.exists (fun u -> Graph.degree g u <> n - 1) (Graph.nodes g) then
    invalid_arg "Approx.system: complete graph required";
  if Array.length inputs <> n then invalid_arg "Approx.system: inputs";
  System.make g (fun u ->
      device ~n ~f ~me:u ~rounds, Value.float inputs.(u))

let edg_device ~n ~f ~me ~eps ~delta =
  device ~n ~f ~me ~rounds:(rounds_for ~eps ~delta)
