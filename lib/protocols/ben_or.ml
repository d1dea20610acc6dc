(* Even steps broadcast reports (R, phase, x); odd steps tally reports and
   broadcast proposals (P, phase, v | bot); the following even step tallies
   proposals: f+1 matching -> decide, one -> adopt, none -> coin. *)

let bot = Value.tag "bot" Value.unit

(* flm-lint: allow locality/hashtbl-hash — the shared coin must be a pure
   function of (seed, me, phase), and Hashtbl.hash on an acyclic tuple of
   immediates is exactly that: deterministic for a fixed compiler, no
   ambient state.  Fault_prng would be the canonical stream, but protocols
   sit below lib/faults in the dependency order. *)
let coin ~seed ~me ~phase = Hashtbl.hash (seed, me, phase, "ben-or") mod 2 = 0

let device ~n ~f ~me ~seed =
  if n < 2 || f < 0 || me < 0 || me >= n then invalid_arg "Ben_or.device";
  let arity = n - 1 in
  let pack step x prop decided =
    Value.list
      [ Value.int step;
        Value.bool x;
        prop;
        (match decided with None -> Value.unit | Some v -> Value.tag "d" (Value.bool v));
      ]
  in
  let unpack state =
    match Value.get_list state with
    | [ step; x; prop; decided ] ->
      ( Value.get_int step,
        Value.get_bool x,
        prop,
        if Value.is_tag "d" decided then
          Some (Value.get_bool (Value.untag "d" decided))
        else None )
    | _ -> invalid_arg "Ben_or: bad state"
  in
  let tally tag step_parity inbox own =
    own
    :: (Array.to_list inbox
       |> List.filter_map (fun m ->
              match m with
              | Some v when Value.is_tag tag v -> (
                match Value.get_pair (Value.untag tag v) with
                | exception Value.Type_error _ -> None
                | phase, payload ->
                  if Value.get_int_opt phase = Some step_parity then
                    Some payload
                  else None)
              | Some _ | None -> None))
  in
  Device.make
    ~name:(Printf.sprintf "BenOr[%d/%d,s=%d]@%d" n f seed me)
    ~arity
    ~init:(fun ~input -> pack 0 (Value.get_bool input) bot None)
    ~step:
      (fun ~state ~round:_ ~inbox ->
        let step, x, prop, decided = unpack state in
        let phase = step / 2 in
        if step mod 2 = 0 then begin
          (* Tally last phase's proposals (none before phase 1), then report
             the current estimate. *)
          let x, decided =
            if step = 0 then x, decided
            else begin
              let proposals = tally "P" (phase - 1) inbox prop in
              let supporters v =
                List.length
                  (List.filter (Value.equal (Value.bool v)) proposals)
              in
              let adopted =
                if supporters true > 0 then Some true
                else if supporters false > 0 then Some false
                else None
              in
              match decided with
              | Some _ -> x, decided
              | None ->
                if supporters true >= f + 1 then true, Some true
                else if supporters false >= f + 1 then false, Some false
                else (
                  match adopted with
                  | Some v -> v, None
                  | None -> coin ~seed ~me ~phase, None)
            end
          in
          ( pack (step + 1) x bot decided,
            Array.make arity
              (Some (Value.tag "R" (Value.pair (Value.int phase) (Value.bool x))))
          )
        end
        else begin
          (* Tally reports; propose the strict majority value or bot. *)
          let reports = tally "R" phase inbox (Value.bool x) in
          let votes v =
            List.length (List.filter (Value.equal (Value.bool v)) reports)
          in
          let prop =
            if 2 * votes true > n then Value.bool true
            else if 2 * votes false > n then Value.bool false
            else bot
          in
          ( pack (step + 1) x prop decided,
            Array.make arity
              (Some (Value.tag "P" (Value.pair (Value.int phase) prop))) )
        end)
    ~output:
      (fun state ->
        let _, _, _, decided = unpack state in
        Option.map Value.bool decided)

let system g ~f ~seed ~inputs =
  let n = Graph.n g in
  if List.exists (fun u -> Graph.degree g u <> n - 1) (Graph.nodes g) then
    invalid_arg "Ben_or.system: complete graph required";
  if Array.length inputs <> n then invalid_arg "Ben_or.system: inputs";
  System.make g (fun u -> device ~n ~f ~me:u ~seed, Value.bool inputs.(u))
