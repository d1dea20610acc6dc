type verdict =
  | Contradiction of { run_label : string; violations : Violation.t list }
  | Fault_axiom_failed of { run_label : string; reason : string }
  | Unbroken of string

type t = {
  problem : string;
  description : string;
  target : Graph.t;
  f : int;
  covering : Covering.t;
  covering_trace : Trace.t;
  runs : (Reconstruct.t * Violation.t list) list;
  aux : (string * Trace.t * Violation.t list) list;
  notes : string list;
  verdict : verdict;
}

let decide ?(aux = []) ~runs ~fallback () =
  let locality_failure =
    List.find_map
      (fun ((r : Reconstruct.t), _) ->
        match r.Reconstruct.locality with
        | Error reason -> Some (r.Reconstruct.label, reason)
        | Ok () -> None)
      runs
  in
  match locality_failure with
  | Some (run_label, reason) -> Fault_axiom_failed { run_label; reason }
  | None -> (
    let aux_hit =
      List.find_map
        (fun (label, _, violations) ->
          if violations = [] then None else Some (label, violations))
        aux
    in
    match aux_hit with
    | Some (run_label, violations) -> Contradiction { run_label; violations }
    | None -> (
      match List.find_opt (fun (_, violations) -> violations <> []) runs with
      | Some (r, violations) ->
        Contradiction { run_label = r.Reconstruct.label; violations }
      | None -> Unbroken fallback))

let edge_scenario covering i j =
  let ci, vi = Covering.decode covering i in
  let cj, vj = Covering.decode covering j in
  fun v -> if v = vi then Some ci else if v = vj then Some cj else None

let build ?(signed = false) ?(aux = []) ?(notes = fun _ -> []) ~problem
    ~description ~f ~covering ~device ~input ~horizon ~scenarios ~check
    ~fallback () =
  let covering_system = System.of_covering covering ~device ~input in
  let covering_trace = Exec.run ~signed covering_system ~rounds:horizon in
  let runs =
    List.map
      (fun (label, chi) ->
        let run =
          Reconstruct.run ~signed ~label ~covering ~covering_system
            ~covering_trace ~device ~chi ~rounds:horizon ()
        in
        run, check run)
      scenarios
  in
  {
    problem;
    description;
    target = covering.Covering.target;
    f;
    covering;
    covering_trace;
    runs;
    aux;
    notes = notes covering_trace;
    verdict = decide ~aux ~runs ~fallback ();
  }

let verdict_line t =
  match t.verdict with
  | Contradiction { run_label; violations } ->
    Printf.sprintf "CONTRADICTION in %s (%s)" run_label
      (String.concat "+"
         (List.sort_uniq compare
            (List.map (fun v -> v.Violation.condition) violations)))
  | Fault_axiom_failed { run_label; _ } ->
    Printf.sprintf "no contradiction: Fault axiom fails (%s)" run_label
  | Unbroken msg -> "UNBROKEN: " ^ msg

let is_contradiction t =
  match t.verdict with
  | Contradiction _ -> true
  | Fault_axiom_failed _ | Unbroken _ -> false

let validate t =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let* () =
    if Connectivity.is_inadequate ~f:t.f t.target then Ok ()
    else err "target graph is adequate for f=%d; nothing to certify" t.f
  in
  let* () = Covering.verify t.covering in
  let* () =
    List.fold_left
      (fun acc ((r : Reconstruct.t), _) ->
        let* () = acc in
        (* Re-check locality from the stored traces. *)
        let source_scenario =
          Scenario.of_trace t.covering_trace
            (Reconstruct.source_nodes r ~covering:t.covering)
        in
        let target_scenario =
          Scenario.of_trace r.Reconstruct.trace r.Reconstruct.correct
        in
        let fresh =
          Scenario.matches
            ~map:(fun s -> snd (Covering.decode t.covering s))
            source_scenario target_scenario
        in
        if fresh = r.Reconstruct.locality then Ok ()
        else err "run %s: stored locality witness is stale" r.Reconstruct.label)
      (Ok ()) t.runs
  in
  let expected =
    decide ~aux:t.aux ~runs:t.runs
      ~fallback:
        (match t.verdict with Unbroken msg -> msg | _ -> "no violation found")
      ()
  in
  if expected = t.verdict then Ok ()
  else err "verdict does not follow from the recorded runs"

let pp_verdict ppf = function
  | Contradiction { run_label; violations } ->
    Format.fprintf ppf
      "@[<v>CONTRADICTION in reconstructed run %s:@ %a@]" run_label
      Violation.pp_list violations
  | Fault_axiom_failed { run_label; reason } ->
    Format.fprintf ppf
      "@[<v>NO CONTRADICTION: the Fault axiom does not hold in this model@ \
       (run %s: %s)@]"
      run_label reason
  | Unbroken msg -> Format.fprintf ppf "NO VIOLATION FOUND: %s" msg

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>certificate: %s@ %s@ target |G|=%d, f=%d (inadequate: %b), \
     covering |S|=%d, %d reconstructed runs@ %a@]"
    t.problem t.description (Graph.n t.target) t.f
    (Connectivity.is_inadequate ~f:t.f t.target)
    (Graph.n t.covering.Covering.source)
    (List.length t.runs) pp_verdict t.verdict

let pp ppf t =
  pp_summary ppf t;
  List.iter (fun note -> Format.fprintf ppf "@ note: %s" note) t.notes;
  List.iter
    (fun (label, trace, violations) ->
      Format.fprintf ppf "@ @[<v 2>anchor %s (%d rounds):@ %a@]" label
        (Trace.rounds trace) Violation.pp_list violations)
    t.aux;
  List.iter
    (fun (r, violations) ->
      Format.fprintf ppf "@ @[<v 2>%a@ %a@]" Reconstruct.pp r
        Violation.pp_list violations)
    t.runs
