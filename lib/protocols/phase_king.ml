(* Steps alternate: even step 2(k-1) broadcasts preferences (phase k's first
   round); odd step 2k-1 computes the majority tally and lets the phase king
   broadcast it; the following even step applies the king rule.  The decision
   happens during step 2(f+1), after the last king message arrives. *)

let decision_round ~f = (2 * (f + 1)) + 1

let device ~n ~f ~me =
  if n < 2 || f < 0 || me < 0 || me >= n then invalid_arg "Phase_king.device";
  let arity = n - 1 in
  let pack step pref maj mult decided =
    Value.list
      [ Value.int step;
        Value.bool pref;
        Value.bool maj;
        Value.int mult;
        (match decided with None -> Value.unit | Some v -> Value.tag "d" (Value.bool v));
      ]
  in
  let unpack state =
    match Value.get_list state with
    | [ step; pref; maj; mult; decided ] ->
      ( Value.get_int step,
        Value.get_bool pref,
        Value.get_bool maj,
        Value.get_int mult,
        if Value.is_tag "d" decided then
          Some (Value.get_bool (Value.untag "d" decided))
        else None )
    | _ -> invalid_arg "Phase_king: bad state"
  in
  let last_step = 2 * (f + 1) in
  Device.make
    ~name:(Printf.sprintf "King[%d/%d]@%d" n f me)
    ~arity
    ~init:(fun ~input -> pack 0 (Value.get_bool input) false 0 None)
    ~step:
      (fun ~state ~round:_ ~inbox ->
        let step, pref, maj, mult, decided = unpack state in
        if step > last_step then state, Array.make arity None
        else if step mod 2 = 0 then begin
          (* Even step: first apply the king rule to the king message sent at
             the previous odd step (none before step 2). *)
          let pref =
            if step = 0 then pref
            else begin
              let king = (step / 2) - 1 in
              let king_value =
                if king = me then maj
                else begin
                  (* Read only the king's own port — a Byzantine non-king
                     cannot spoof the king message. *)
                  match
                    inbox.(if king < me then king else king - 1)
                  with
                  | Some v when Value.is_tag "king" v -> (
                    match Value.get_bool_opt (Value.untag "king" v) with
                    | Some b -> b
                    | None -> false)
                  | _ -> false
                end
              in
              if mult > (n / 2) + f then maj else king_value
            end
          in
          let decided =
            if step = last_step && decided = None then Some pref else decided
          in
          let sends =
            if step >= last_step then Array.make arity None
            else Array.make arity (Some (Value.tag "pref" (Value.bool pref)))
          in
          pack (step + 1) pref maj mult decided, sends
        end
        else begin
          (* Odd step: tally the preference exchange; the phase king
             broadcasts the tally winner. *)
          let votes =
            (Array.to_list inbox
            |> List.filter_map (fun m ->
                   match m with
                   | Some v when Value.is_tag "pref" v ->
                     Value.get_bool_opt (Value.untag "pref" v)
                   | _ -> None))
            @ [ pref ]
          in
          let ones = List.length (List.filter Fun.id votes) in
          let zeros = List.length votes - ones in
          let maj = ones > zeros in
          let mult = max ones zeros in
          let king = ((step + 1) / 2) - 1 in
          let sends =
            if king = me then
              Array.make arity (Some (Value.tag "king" (Value.bool maj)))
            else Array.make arity None
          in
          pack (step + 1) pref maj mult decided, sends
        end)
    ~output:
      (fun state ->
        let _, _, _, _, decided = unpack state in
        Option.map Value.bool decided)

let system g ~f ~inputs =
  let n = Graph.n g in
  if List.exists (fun u -> Graph.degree g u <> n - 1) (Graph.nodes g) then
    invalid_arg "Phase_king.system: complete graph required";
  if Array.length inputs <> n then invalid_arg "Phase_king.system: inputs";
  System.make g (fun u -> device ~n ~f ~me:u, Value.bool inputs.(u))
