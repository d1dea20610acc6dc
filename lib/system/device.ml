type 's machine = {
  name : string;
  arity : int;
  init : input:Value.t -> 's;
  step :
    state:'s ->
    round:int ->
    inbox:Value.t option array ->
    's * Value.t option array;
  output : 's -> Value.t option;
  project : 's -> Value.t;
}

type t = Device : 's machine -> t [@@unboxed]
type running = Running : 's machine * 's -> running

let make ~name ~arity ~init ~step ~output =
  Device { name; arity; init; step; output; project = Fun.id }

let name (Device d) = d.name
let arity (Device d) = d.arity

let no_sends arity = Array.make arity None

let silent ~name ~arity =
  make ~name ~arity
    ~init:(fun ~input:_ -> Value.unit)
    ~step:(fun ~state ~round:_ ~inbox:_ -> state, no_sends arity)
    ~output:(fun _ -> None)

let replay ~name ~sends =
  make ~name ~arity:(Array.length sends)
    ~init:(fun ~input:_ -> Value.unit)
    ~step:(fun ~state ~round ~inbox:_ ->
      let out =
        Array.map
          (fun schedule ->
            if round < Array.length schedule then schedule.(round) else None)
          sends
      in
      state, out)
    ~output:(fun _ -> None)

let check (Device d) =
  if d.arity < 0 then invalid_arg "Device.check: negative arity"

let step_checked d ~state ~round ~inbox =
  if Array.length inbox <> d.arity then
    invalid_arg
      (Printf.sprintf "Device %s: inbox size %d, arity %d" d.name
         (Array.length inbox) d.arity);
  let state', sends = d.step ~state ~round ~inbox in
  if Array.length sends <> d.arity then
    invalid_arg
      (Printf.sprintf "Device %s: sends size %d, arity %d" d.name
         (Array.length sends) d.arity);
  state', sends

let contramap_input f (Device d) =
  Device { d with init = (fun ~input -> d.init ~input:(f input)) }

let map_output f (Device d) =
  Device { d with output = (fun state -> Option.map f (d.output state)) }

(* The state is one running sub-device per name, in the given order. *)
let parallel named =
  match named with
  | [] -> invalid_arg "Device.parallel: no sub-devices"
  | (_, Device first) :: rest ->
    let arity = first.arity in
    List.iter
      (fun (name, Device d) ->
        if d.arity <> arity then
          invalid_arg
            (Printf.sprintf "Device.parallel: %s has arity %d, expected %d"
               name d.arity arity))
      rest;
    let names = List.map fst named in
    let key name = Value.string name in
    let component name m =
      match m with
      | None -> None
      | Some bundle -> (
        match Value.find ~key:(key name) bundle with
        | exception Value.Type_error _ -> None
        | found -> found)
    in
    let keyed f states = List.map2 (fun name s -> key name, f s) names states in
    Device
      {
        name = "par(" ^ String.concat "," names ^ ")";
        arity;
        init =
          (fun ~input ->
            List.map (fun (_, Device d) -> Running (d, d.init ~input)) named);
        step =
          (fun ~state ~round ~inbox ->
            let stepped =
              List.map2
                (fun name (Running (d, s)) ->
                  let sub_inbox = Array.map (component name) inbox in
                  let s', out = d.step ~state:s ~round ~inbox:sub_inbox in
                  Running (d, s'), out)
                names state
            in
            let sends =
              Array.init arity (fun port ->
                  let parts =
                    List.concat
                      (List.map2
                         (fun name (_, out) ->
                           match out.(port) with
                           | Some m -> [ key name, m ]
                           | None -> [])
                         names stepped)
                  in
                  if parts = [] then None else Some (Value.of_assoc parts))
            in
            List.map fst stepped, sends);
        output =
          (fun state ->
            let decisions =
              List.map (fun (Running (d, s)) -> d.output s) state
            in
            if List.for_all Option.is_some decisions then
              Some (Value.of_assoc (keyed Option.get decisions))
            else None);
        project =
          (fun state ->
            Value.of_assoc
              (keyed (fun (Running (d, s)) -> d.project s) state));
      }
