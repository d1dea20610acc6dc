(* Chain encoding: for instance s and value v, the root is
   Signed_s (Tag "inst" (s, v)); each relay wraps the whole chain in its own
   signature.  A chain received at step r is valid when it carries exactly r
   pairwise-distinct signatures, the innermost signer equals the instance
   sender named in the payload, and no signature is forged (forgeries are
   mangled by the signed executor and fail to parse). *)

let root ~sender value =
  Signature.signed ~signer:sender
    (Value.tag "inst" (Value.pair (Value.int sender) value))

(* Peel a chain: returns (signers outermost-first, instance sender, value). *)
let parse chain =
  let rec peel acc v =
    match Signature.destruct v with
    | Some (signer, payload) -> peel (signer :: acc) payload
    | None -> (
      match v with
      | Value.Tag ("inst", Value.Pair (Value.Int s, value)) ->
        (* [acc] is innermost-first here; the innermost signer must be the
           instance sender. *)
        (match acc with
        | innermost :: _ when innermost = s -> Some (List.rev acc, s, value)
        | _ -> None)
      | _ -> None)
  in
  match peel [] chain with
  | Some (signers, s, value)
    when List.length (List.sort_uniq Int.compare signers)
         = List.length signers ->
    Some (signers, s, value)
  | _ -> None

let decision_round ~f = f + 2

let device ~n ~f ~me ~default =
  if n < 2 || f < 0 || me < 0 || me >= n then invalid_arg "Dolev_strong.device";
  let arity = n - 1 in
  (* State: (step, input, extracted) where extracted maps instance ->
     accepted values (at most 2 kept). *)
  let pack step input extracted decided =
    Value.list
      [ Value.int step;
        input;
        Value.of_assoc
          (List.map
             (fun (s, vs) -> Value.int s, Value.list vs)
             extracted);
        (match decided with None -> Value.unit | Some v -> Value.tag "d" v);
      ]
  in
  let unpack state =
    match Value.get_list state with
    | [ step; input; extracted; decided ] ->
      ( Value.get_int step,
        input,
        List.map
          (fun (k, vs) -> Value.get_int k, Value.get_list vs)
          (Value.assoc extracted),
        if Value.is_tag "d" decided then Some (Value.untag "d" decided)
        else None )
    | _ -> invalid_arg "Dolev_strong: bad state"
  in
  let bundle items =
    if items = [] then None else Some (Value.list items)
  in
  Device.make
    ~name:(Printf.sprintf "DS[%d/%d]@%d" n f me)
    ~arity
    ~init:(fun ~input -> pack 0 input [ me, [ input ] ] None)
    ~step:
      (fun ~state ~round:_ ~inbox ->
        let step, input, extracted, decided = unpack state in
        if step > f + 1 then state, Array.make arity None
        else if step = 0 then begin
          (* Send my own instance's root chain. *)
          let chain = root ~sender:me input in
          pack 1 input extracted decided,
          Array.make arity (bundle [ chain ])
        end
        else begin
          (* Absorb chains with exactly [step] signatures; relay newly
             accepted values (wrapped in my signature) while step <= f. *)
          let extracted = ref extracted in
          let relays = ref [] in
          let accept s v chain =
            let current =
              Option.value ~default:[] (List.assoc_opt s !extracted)
            in
            if
              List.length current < 2
              && not (List.exists (Value.equal v) current)
            then begin
              extracted :=
                (s, current @ [ v ]) :: List.remove_assoc s !extracted;
              if step <= f then
                relays := Signature.signed ~signer:me chain :: !relays
            end
          in
          Array.iter
            (fun m ->
              match m with
              | None -> ()
              | Some b -> (
                match Value.get_list b with
                | exception Value.Type_error _ -> ()
                | chains ->
                  List.iter
                    (fun chain ->
                      match parse chain with
                      | Some (signers, s, v)
                        when List.length signers = step
                             && not (List.mem me signers) ->
                        accept s v chain
                      | Some _ | None -> ())
                    chains))
            inbox;
          let extracted = !extracted in
          let decided =
            if step = f + 1 && decided = None then begin
              (* Per instance: unique value or default; then majority. *)
              let instance_result s =
                if s = me then input
                else
                  match List.assoc_opt s extracted with
                  | Some [ v ] -> v
                  | Some _ | None -> default
              in
              let results = List.init n instance_result in
              let distinct = List.sort_uniq Value.compare results in
              let count v =
                List.length (List.filter (Value.equal v) results)
              in
              let best =
                List.fold_left
                  (fun acc v ->
                    match acc with
                    | Some (bc, _) when bc >= count v -> acc
                    | _ -> Some (count v, v))
                  None distinct
              in
              match best with
              | Some (c, v) when c > n / 2 -> Some v
              | Some _ | None -> Some default
            end
            else decided
          in
          pack (step + 1) input extracted decided,
          Array.make arity (bundle (List.rev !relays))
        end)
    ~output:
      (fun state ->
        let _, _, _, decided = unpack state in
        decided)

let system g ~f ~inputs ~default =
  let n = Graph.n g in
  if List.exists (fun u -> Graph.degree g u <> n - 1) (Graph.nodes g) then
    invalid_arg "Dolev_strong.system: complete graph required";
  if Array.length inputs <> n then invalid_arg "Dolev_strong.system: inputs";
  System.make g (fun u -> device ~n ~f ~me:u ~default, inputs.(u))
