let certify_simple ~device ~horizon () =
  (* Hexagon: copy 0 = (a,b,c) with input 0, copy 1 with input 1. *)
  Certificate.build ~problem:"approximate-agreement"
    ~description:
      "Theorem 5 (simple approximate agreement): hexagon covering of the \
       triangle, inputs 0 and 1"
    ~f:1 ~covering:(Covering.triangle_hexagon ()) ~device
    ~input:(fun s -> if s < 3 then Value.float 0.0 else Value.float 1.0)
    ~horizon
    ~scenarios:
      [ ("E1", fun v -> if v = 0 then None else Some 0);
        ("E2", fun v ->
          if v = 1 then None else if v = 0 then Some 1 else Some 0);
        ("E3", fun v -> if v = 2 then None else Some 1);
      ]
    ~check:(fun r ->
      Approx_spec.check_simple ~trace:r.Reconstruct.trace
        ~correct:r.Reconstruct.correct ~inputs:(fun u ->
          Value.get_float (System.input r.Reconstruct.system u)))
    ~fallback:
      "E1 pins outputs to 0, E3 pins outputs to 1, E2 straddles them — the \
       three cannot all hold"
    ()

let choose_k ~eps ~gamma ~delta =
  if delta <= eps then
    invalid_arg
      "Approx_chain.choose_k: delta <= eps makes (eps,delta,gamma)-agreement \
       trivially solvable";
  let rec go k =
    if k >= 2 && (k + 2) mod 3 = 0 && delta > ((2.0 *. gamma) /. float_of_int (k - 1)) +. eps
    then k
    else go (k + 1)
  in
  go 2

let certify_edg ~device ~eps ~gamma ~delta ?k ~horizon () =
  let k = match k with Some k -> k | None -> choose_k ~eps ~gamma ~delta in
  if (k + 2) mod 3 <> 0 then invalid_arg "Approx_chain: k+2 must be divisible by 3";
  let covering = Covering.triangle_ring ~copies:((k + 2) / 3) in
  let ring_len = k + 2 in
  let outputs covering_trace =
    List.init ring_len (fun i ->
        match Trace.decision covering_trace i with
        | Some v -> (
          match Value.get_float_opt v with
          | Some x -> Printf.sprintf "%g" x
          | None -> "?")
        | None -> "-")
  in
  Certificate.build ~problem:"edg-agreement"
    ~description:
      (Printf.sprintf
         "Theorem 6 ((eps,delta,gamma)-agreement): %d-node chain over the \
          triangle, eps=%g delta=%g gamma=%g" ring_len eps delta gamma)
    ~f:1 ~covering ~device
    ~input:(fun s -> Value.float (float_of_int s *. delta))
    ~horizon
    (* Scenarios S_0 .. S_k: adjacent pairs marching up the chain (the ring
       edge from k+1 back to 0 spans the whole input range and is not a
       valid scenario — its inputs are (k+1)δ apart). *)
    ~scenarios:
      (List.init (k + 1) (fun i ->
           Printf.sprintf "S%d" i, Certificate.edge_scenario covering i (i + 1)))
    ~check:(fun r ->
      Approx_spec.check_edg ~trace:r.Reconstruct.trace
        ~correct:r.Reconstruct.correct
        ~inputs:(fun u -> Value.get_float (System.input r.Reconstruct.system u))
        ~eps ~gamma)
    ~notes:(fun covering_trace ->
      [ Printf.sprintf
          "chain of %d nodes, inputs 0 .. %g in steps of %g; eps=%g gamma=%g \
           (delta > 2*gamma/(k-1) + eps = %g)"
          ring_len
          (float_of_int (ring_len - 1) *. delta)
          delta eps gamma
          ((2.0 *. gamma /. float_of_int (k - 1)) +. eps);
        Printf.sprintf
          "Lemma 7: node i+1's output is at most delta+gamma+i*eps, but \
           validity at S%d needs at least %g" k
          ((float_of_int k *. delta) -. gamma);
        "chain outputs in S: " ^ String.concat " " (outputs covering_trace);
      ])
    ~fallback:
      "every link of the Lemma 7 chain held — arithmetically impossible for \
       the chosen k"
    ()
