(* Step 0 broadcasts the stimulus bit; step 1 ORs it and seeds an embedded
   EIG instance, which then runs shifted by one round.  FIRE is entered the
   step after EIG decides true. *)

let fire = Value.tag "FIRE" Value.unit

let fire_round ~f = f + 3

(* Until step 2 the state is the stimulus, then the embedded EIG's own
   state; either way it projects to (step, payload). *)
type 's state = Stimulus of int * Value.t | Agreeing of int * 's

let device ~n ~f ~me =
  let (Device.Device inner) = Eig.device ~n ~f ~me ~default:(Value.bool false) in
  let arity = n - 1 in
  let wrap_sends sends =
    Array.map (Option.map (fun m -> Value.tag "eig" m)) sends
  in
  Device.Device
    {
      Device.name = Printf.sprintf "Squad[%d/%d]@%d" n f me;
      arity;
      init = (fun ~input -> Stimulus (0, Value.bool (Value.get_bool input)));
      step =
        (fun ~state ~round:_ ~inbox ->
          match state with
          | Stimulus (0, payload) ->
            (* Broadcast the stimulus. *)
            let own = Value.get_bool payload in
            ( Stimulus (1, payload),
              Array.make arity (Some (Value.tag "stim" (Value.bool own))) )
          | Stimulus (_, payload) ->
            (* OR in every claimed stimulus, then start agreement on it. *)
            let own = Value.get_bool payload in
            let heard =
              Array.exists
                (function
                  | Some m when Value.is_tag "stim" m ->
                    Value.get_bool_opt (Value.untag "stim" m) = Some true
                  | Some _ | None -> false)
                inbox
            in
            let verdict = own || heard in
            let inner_state = inner.init ~input:(Value.bool verdict) in
            let inner_state, sends =
              inner.step ~state:inner_state ~round:0
                ~inbox:(Array.make arity None)
            in
            Agreeing (2, inner_state), wrap_sends sends
          | Agreeing (step, inner_state) ->
            let inner_inbox =
              Array.map
                (function
                  | Some m when Value.is_tag "eig" m -> Some (Value.untag "eig" m)
                  | Some _ | None -> None)
                inbox
            in
            let inner_state, sends =
              inner.step ~state:inner_state ~round:(step - 1)
                ~inbox:inner_inbox
            in
            Agreeing (step + 1, inner_state), wrap_sends sends);
      output =
        (function
          | Agreeing (step, inner_state) when step > 2 -> (
            match inner.output inner_state with
            | Some v when Value.equal v (Value.bool true) -> Some fire
            | Some _ | None -> None)
          | Stimulus _ | Agreeing _ -> None);
      project =
        (function
          | Stimulus (step, payload) -> Value.pair (Value.int step) payload
          | Agreeing (step, inner_state) ->
            Value.pair (Value.int step) (inner.project inner_state));
    }

let system g ~f ~stimulated =
  let n = Graph.n g in
  if List.exists (fun u -> Graph.degree g u <> n - 1) (Graph.nodes g) then
    invalid_arg "Firing.system: complete graph required";
  System.make g (fun u ->
      device ~n ~f ~me:u, Value.bool (List.mem u stimulated))
