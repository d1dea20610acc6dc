let decision_round ~f = f + 4

let bot = Value.tag "bot" Value.unit

(* Most frequent non-bot value; ties break toward the smallest value, so
   every correct node computes the same candidate from the same multiset. *)
let candidate ~default votes =
  let non_bot = List.filter (fun v -> not (Value.equal v bot)) votes in
  match List.sort_uniq Value.compare non_bot with
  | [] -> default
  | distinct ->
    let count v = List.length (List.filter (Value.equal v) non_bot) in
    List.fold_left
      (fun best v -> if count v > count best then v else best)
      (List.hd distinct) (List.tl distinct)

(* Through step 2 the state is the phase's payload; from step 3 on it is
   the candidate and the embedded binary EIG's own state.  Either way it
   projects to (step, payload), the payload of the binary phase being
   (candidate, EIG state). *)
type 's state = Voting of int * Value.t | Binary of int * Value.t * 's

let device ~n ~f ~me ~default =
  if n < 2 || f < 0 || me < 0 || me >= n then invalid_arg "Turpin_coan.device";
  let arity = n - 1 in
  let (Device.Device inner) = Eig.device ~n ~f ~me ~default:(Value.bool false) in
  let collect ~tag inbox own =
    own
    :: (Array.to_list inbox
       |> List.filter_map (fun m ->
              match m with
              | Some v when Value.is_tag tag v -> Some (Value.untag tag v)
              | Some _ | None -> None))
  in
  let wrap_inner sends =
    Array.map (Option.map (fun m -> Value.tag "eig" m)) sends
  in
  Device.Device
    {
      Device.name = Printf.sprintf "TC[%d/%d]@%d" n f me;
      arity;
      init = (fun ~input -> Voting (0, input));
      step =
        (fun ~state ~round:_ ~inbox ->
          match state with
          | Voting (0, payload) ->
            (* Broadcast the raw input. *)
            Voting (1, payload), Array.make arity (Some (Value.tag "tc1" payload))
          | Voting (1, payload) ->
            (* Keep the input iff it has n-f support; else bottom. *)
            let votes = collect ~tag:"tc1" inbox payload in
            let supported w =
              List.length (List.filter (Value.equal w) votes) >= n - f
            in
            let x =
              match
                List.find_opt supported (List.sort_uniq Value.compare votes)
              with
              | Some w -> w
              | None -> bot
            in
            Voting (2, x), Array.make arity (Some (Value.tag "tc2" x))
          | Voting (_, x) ->
            (* Fix the common candidate; agree in binary on whether to use
               it. *)
            let votes = collect ~tag:"tc2" inbox x in
            let y = candidate ~default votes in
            (* Adopt the candidate only with n-f support: then at least
               n-2f >= f+1 correct nodes back it, which forces every
               correct node's candidate to be the same y (two n-f support
               sets share a correct node, so correct non-bot values are all
               equal). *)
            let support = List.length (List.filter (Value.equal y) votes) in
            let b = support >= n - f in
            let inner_state = inner.init ~input:(Value.bool b) in
            let inner_state, sends =
              inner.step ~state:inner_state ~round:0
                ~inbox:(Array.make arity None)
            in
            Binary (3, y, inner_state), wrap_inner sends
          | Binary (step, y, inner_state) ->
            let inner_inbox =
              Array.map
                (function
                  | Some m when Value.is_tag "eig" m -> Some (Value.untag "eig" m)
                  | Some _ | None -> None)
                inbox
            in
            let inner_state, sends =
              inner.step ~state:inner_state ~round:(step - 2)
                ~inbox:inner_inbox
            in
            Binary (step + 1, y, inner_state), wrap_inner sends);
      output =
        (function
          | Binary (step, y, inner_state) when step > 3 -> (
            match inner.output inner_state with
            | Some b when Value.equal b (Value.bool true) -> Some y
            | Some _ -> Some default
            | None -> None)
          | Voting _ | Binary _ -> None);
      project =
        (function
          | Voting (step, payload) -> Value.pair (Value.int step) payload
          | Binary (step, y, inner_state) ->
            Value.pair (Value.int step) (Value.pair y (inner.project inner_state)));
    }

let system g ~f ~inputs ~default =
  let n = Graph.n g in
  if List.exists (fun u -> Graph.degree g u <> n - 1) (Graph.nodes g) then
    invalid_arg "Turpin_coan.system: complete graph required";
  if Array.length inputs <> n then invalid_arg "Turpin_coan.system: inputs";
  System.make g (fun u -> device ~n ~f ~me:u ~default, inputs.(u))
