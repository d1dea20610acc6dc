type t = {
  name : string;
  seed : int;
  trials : int;
  workers : int;
  protocols : string list;
  strategies : string list;
  families : string list;
  n_max : int;
  f_max : int;
}

type cube = {
  jobs : Job.t list;
  skipped : (string * string) list;
}

let invalid what detail = Flm_error.Invalid_input { what; detail }

let validate t =
  let ( let* ) = Result.bind in
  let check cond what detail =
    if cond then Ok () else Error (invalid what detail)
  in
  let* () = check (t.name <> "") "campaign name" "must be non-empty" in
  let* () = check (t.seed >= 0) "campaign seed" "must be >= 0" in
  let* () = check (t.trials >= 1) "campaign trials" "must be >= 1" in
  let* () = check (t.workers >= 1) "campaign workers" "must be >= 1" in
  let* () = check (t.n_max >= 3) "campaign n_max" "must be >= 3" in
  let* () = check (t.f_max >= 1) "campaign f_max" "must be >= 1" in
  let* () =
    check (t.protocols <> []) "campaign protocols" "must name at least one"
  in
  let* () =
    check (t.strategies <> []) "campaign strategies" "must name at least one"
  in
  let* () =
    check (t.families <> []) "campaign families" "must name at least one"
  in
  let* () =
    List.fold_left
      (fun acc p ->
        let* () = acc in
        check
          (List.mem p Job.campaign_protocols)
          "campaign protocol"
          (Printf.sprintf "%S is not one of %s" p
             (String.concat "|" Job.campaign_protocols)))
      (Ok ()) t.protocols
  in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        match Fault_strategy.of_string s with
        | Ok _ -> Ok ()
        | Error d -> Error (invalid "campaign strategy" d))
      (Ok ()) t.strategies
  in
  let* () =
    List.fold_left
      (fun acc fam ->
        let* () = acc in
        check (fam <> "") "campaign family" "template must be non-empty")
      (Ok ()) t.families
  in
  Ok t

let make ~name ?(seed = 1) ?(trials = 1) ?(workers = 2) ~protocols ~strategies
    ~families ~n_max ~f_max () =
  validate
    { name; seed; trials; workers; protocols; strategies; families; n_max;
      f_max }

(* --- JSON ------------------------------------------------------------------- *)

let of_json json =
  let ( let* ) = Result.bind in
  let module Read = Bench_json.Read in
  let* o = Read.obj ~fail:(invalid "campaign spec") json in
  let* () =
    Read.only o
      [ "name"; "seed"; "trials"; "workers"; "protocols"; "strategies";
        "families"; "n_max"; "f_max" ]
  in
  let* name = Read.string o "name" in
  let* seed = Read.int_opt o "seed" in
  let* trials = Read.int_opt o "trials" in
  let* workers = Read.int_opt o "workers" in
  let* protocols = Read.strings o "protocols" in
  let* strategies = Read.strings o "strategies" in
  let* families = Read.strings o "families" in
  let* n_max = Read.int o "n_max" in
  let* f_max = Read.int o "f_max" in
  make ~name ?seed ?trials ?workers ~protocols ~strategies ~families ~n_max
    ~f_max ()

let to_json t =
  let strings l = Bench_json.List (List.map (fun s -> Bench_json.String s) l) in
  Bench_json.Obj
    [ "name", Bench_json.String t.name;
      "seed", Bench_json.Int t.seed;
      "trials", Bench_json.Int t.trials;
      "workers", Bench_json.Int t.workers;
      "protocols", strings t.protocols;
      "strategies", strings t.strategies;
      "families", strings t.families;
      "n_max", Bench_json.Int t.n_max;
      "f_max", Bench_json.Int t.f_max;
    ]

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> (
    match Bench_json.parse contents with
    | Ok json -> of_json json
    | Error d -> Error (invalid path d))
  | exception Sys_error d -> Error (invalid path d)

(* --- cube enumeration ------------------------------------------------------- *)

let family_at template n = Printf.sprintf "%s:%d" template n

let enumerate t =
  let skipped = ref [] in
  let skip label reason = skipped := (label, reason) :: !skipped in
  let jobs =
    List.concat_map
      (fun template ->
        List.concat_map
          (fun (n, f) ->
            let family = family_at template n in
            match Topology.of_family family with
            | Error reason ->
              skip (Printf.sprintf "%s/f=%d" family f) reason;
              []
            | Ok g ->
              List.concat_map
                (fun protocol ->
                  if not (Job.campaign_applies ~protocol g ~f) then begin
                    skip
                      (Printf.sprintf "%s/%s/f=%d" protocol family f)
                      "protocol not applicable on this cell";
                    []
                  end
                  else
                    List.concat_map
                      (fun strategy ->
                        List.init t.trials (fun trial ->
                            Job.Campaign_trial
                              { protocol; family; f; seed = t.seed; strategy;
                                trial }))
                      t.strategies)
                t.protocols)
          (Sweep.nf_grid ~n_max:t.n_max ~f_max:t.f_max))
      t.families
  in
  { jobs; skipped = List.rev !skipped }

let pp ppf t =
  Format.fprintf ppf
    "campaign %s: seed=%d trials=%d workers=%d protocols=[%s] strategies=[%s] \
     families=[%s] n<=%d f<=%d"
    t.name t.seed t.trials t.workers
    (String.concat "," t.protocols)
    (String.concat "," t.strategies)
    (String.concat "," t.families)
    t.n_max t.f_max
