(* EIG Byzantine agreement: fault-free correctness, correctness at the
   resilience boundary n = 3f+1 under a zoo of adversaries, and failure
   below it. *)

let check = Alcotest.check
let tbool = Alcotest.bool

let vbool b = Value.bool b
let default = Value.bool false

let correct_nodes g faulty =
  List.filter (fun u -> not (List.mem u faulty)) (Graph.nodes g)

let agreement_holds trace nodes =
  match List.filter_map (fun u -> Trace.decision trace u) nodes with
  | [] -> false
  | first :: rest -> List.for_all (Value.equal first) rest

let all_decided trace nodes =
  List.for_all (fun u -> Trace.decision trace u <> None) nodes

let validity_holds trace ~inputs nodes =
  (* If all correct inputs coincide, the decision must be that value. *)
  match List.sort_uniq Value.compare (List.map (fun u -> inputs u) nodes) with
  | [ v ] ->
    List.for_all
      (fun u ->
        match Trace.decision trace u with
        | Some d -> Value.equal d v
        | None -> false)
      nodes
  | _ -> true

let run_eig ~n ~f ~inputs ~faulty_at =
  let g = Topology.complete n in
  let sys =
    System.make g (fun u ->
        Eig.device ~n ~f ~me:u ~default, vbool inputs.(u))
  in
  let sys =
    List.fold_left
      (fun acc (u, make_dev) -> System.substitute acc u (make_dev u))
      sys faulty_at
  in
  Exec.run sys ~rounds:(Eig.decision_round ~f + 1)

let fault_free () =
  List.iter
    (fun (n, f) ->
      List.iter
        (fun pattern ->
          let inputs = Array.init n (fun u -> pattern land (1 lsl u) <> 0) in
          let t = run_eig ~n ~f ~inputs ~faulty_at:[] in
          let nodes = List.init n Fun.id in
          check tbool "decided" true (all_decided t nodes);
          check tbool "agreement" true (agreement_holds t nodes);
          check tbool "validity" true
            (validity_holds t
               ~inputs:(fun u -> vbool inputs.(u))
               nodes))
        [ 0; 1; 3; (1 lsl n) - 1; 5 ])
    [ 4, 1; 5, 1; 7, 2 ]

let adversaries ~n ~f u =
  let honest = Eig.device ~n ~f ~me:u ~default in
  [ "silent", (fun _ -> Adversary.silent ~arity:(n - 1));
    "crash", (fun _ -> Adversary.crash ~after:1 honest);
    ( "split",
      fun _ ->
        Adversary.split_brain honest
          ~inputs:(Array.init (n - 1) (fun j -> vbool (j mod 2 = 0))) );
    ( "babbler",
      fun _ ->
        Adversary.babbler ~seed:(17 * u) ~arity:(n - 1)
          ~palette:
            [ vbool true;
              vbool false;
              Value.list [ Value.pair (Value.int_list [ 0 ]) (vbool true) ];
            ] );
    ( "mutate",
      fun _ ->
        Adversary.mutate honest ~rewrite:(fun ~port ~round m ->
            match m with
            | Some _ when (port + round) mod 2 = 0 -> Some (vbool (round mod 2 = 0))
            | other -> other) );
  ]

let at_resilience_boundary () =
  (* n = 3f+1: every adversary below must fail to break agreement/validity. *)
  List.iter
    (fun (n, f, faulty) ->
      List.iter
        (fun pattern ->
          let inputs = Array.init n (fun u -> pattern land (1 lsl u) <> 0) in
          List.iter
            (fun (adv_name, make_dev) ->
              let t =
                run_eig ~n ~f ~inputs
                  ~faulty_at:(List.map (fun u -> u, make_dev) faulty)
              in
              let correct = correct_nodes (Topology.complete n) faulty in
              let label = Printf.sprintf "%s n=%d f=%d p=%d" adv_name n f pattern in
              check tbool (label ^ " decided") true (all_decided t correct);
              check tbool (label ^ " agreement") true (agreement_holds t correct);
              check tbool (label ^ " validity") true
                (validity_holds t
                   ~inputs:(fun u -> vbool inputs.(u))
                   correct))
            (adversaries ~n ~f (List.hd faulty)))
        [ 0; 6; (1 lsl n) - 1; 9 ])
    [ 4, 1, [ 2 ]; 7, 2, [ 1; 5 ] ]

let below_boundary_is_breakable () =
  (* n = 3, f = 1: Theorem 1's construction, executed.  Install the EIG
     devices in the hexagon covering (inputs 0,0,0,1,1,1), reconstruct the
     three runs E1, E2, E3 of K3 with the Fault-axiom replay device, and
     verify that the runs cannot all satisfy the conditions. *)
  let f = 1 in
  let c = Covering.triangle_hexagon () in
  let g = c.Covering.target in
  let device w = Eig.device ~n:3 ~f ~me:w ~default in
  let sys_s =
    System.of_covering c ~device ~input:(fun s -> vbool (s >= 3))
  in
  let horizon = Eig.decision_round ~f + 1 in
  let ts = Exec.run sys_s ~rounds:horizon in
  let mk_run faulty_node schedule inputs =
    let sys = System.make g (fun w -> device w, vbool inputs.(w)) in
    let sys =
      System.substitute sys faulty_node
        (Adversary.from_trace ts ~name:"F" ~schedule)
    in
    Exec.run sys ~rounds:horizon
  in
  (* Hexagon nodes u,v,w,x,y,z = 0..5 over a,b,c = 0,1,2. *)
  let e1 = mk_run 0 [ 0, 1; 3, 2 ] [| false; false; false |] in
  let e2 = mk_run 1 [ 4, 3; 1, 2 ] [| true; false; false |] in
  let e3 = mk_run 2 [ 2, 3; 5, 4 ] [| true; true; false |] in
  (* Locality: the reconstructed scenarios equal the covering scenarios. *)
  let expect_match label s_nodes g_nodes trace =
    let map s = List.assoc s (List.combine s_nodes g_nodes) in
    match
      Scenario.matches ~map
        (Scenario.of_trace ts s_nodes)
        (Scenario.of_trace trace g_nodes)
    with
    | Ok () -> ()
    | Error m -> Alcotest.fail (label ^ ": " ^ m)
  in
  expect_match "E1 ~ S_vw" [ 1; 2 ] [ 1; 2 ] e1;
  expect_match "E2 ~ S_wx" [ 2; 3 ] [ 2; 0 ] e2;
  expect_match "E3 ~ S_xy" [ 3; 4 ] [ 0; 1 ] e3;
  (* At least one of the three runs must violate its conditions. *)
  let ok_e1 =
    agreement_holds e1 [ 1; 2 ]
    && validity_holds e1 ~inputs:(fun _ -> vbool false) [ 1; 2 ]
    && all_decided e1 [ 1; 2 ]
  in
  let ok_e2 = agreement_holds e2 [ 0; 2 ] && all_decided e2 [ 0; 2 ] in
  let ok_e3 =
    agreement_holds e3 [ 0; 1 ]
    && validity_holds e3 ~inputs:(fun _ -> vbool true) [ 0; 1 ]
    && all_decided e3 [ 0; 1 ]
  in
  check tbool "Theorem 1: some condition fails below 3f+1" false
    (ok_e1 && ok_e2 && ok_e3)

let decision_round_exact () =
  let n = 4 and f = 1 in
  let inputs = [| true; true; false; true |] in
  let t = run_eig ~n ~f ~inputs ~faulty_at:[] in
  List.iter
    (fun u ->
      check Alcotest.(option int) "decides exactly at f+2"
        (Some (Eig.decision_round ~f))
        (Trace.decision_round t u))
    [ 0; 1; 2; 3 ]

(* Property: random inputs, random single corrupt node among the adversary
   zoo, n = 4, f = 1. *)
let prop_boundary =
  let gen = QCheck.Gen.(triple (int_bound 15) (int_bound 3) (int_bound 4)) in
  QCheck.Test.make ~name:"EIG safe at n=4,f=1 under adversary zoo" ~count:100
    (QCheck.make gen)
    (fun (pattern, bad, which) ->
      let n = 4 and f = 1 in
      let inputs = Array.init n (fun u -> pattern land (1 lsl u) <> 0) in
      let name, make_dev = List.nth (adversaries ~n ~f bad) which in
      ignore name;
      let t = run_eig ~n ~f ~inputs ~faulty_at:[ bad, make_dev ] in
      let correct = correct_nodes (Topology.complete n) [ bad ] in
      all_decided t correct
      && agreement_holds t correct
      && validity_holds t ~inputs:(fun u -> vbool inputs.(u)) correct)

(* --- Eig_tree against a list-based reference ------------------------------ *)

(* The reference keeps entries as an assoc list in insertion order, first
   write wins, and resolves by the textbook recursion over label lists. *)
let ref_add entries (label, v) =
  if List.mem_assoc label entries then entries else entries @ [ label, v ]

let label_order (a, _) (b, _) = List.compare Int.compare a b

let ref_majority ~default votes =
  let distinct = List.sort_uniq Value.compare votes in
  let count v = List.length (List.filter (Value.equal v) votes) in
  match List.find_opt (fun v -> count v > List.length votes / 2) distinct with
  | Some v -> v
  | None -> default

let rec ref_resolve ~n ~f ~default find label =
  if List.length label > f then Option.value (find label) ~default
  else
    List.init n Fun.id
    |> List.filter (fun j -> not (List.mem j label))
    |> List.map (fun j -> ref_resolve ~n ~f ~default find (label @ [ j ]))
    |> ref_majority ~default

(* Every label of length [len] over ids [0 .. n-1], in label order. *)
let rec all_labels ~n len =
  if len = 0 then [ [] ]
  else
    List.concat_map
      (fun l ->
        List.filter_map
          (fun j -> if List.mem j l then None else Some (l @ [ j ]))
          (List.init n Fun.id))
      (all_labels ~n (len - 1))

(* The two value palettes: all-boolean trees take [resolve]'s int-vote
   path, mixed ones the general path. *)
let palettes =
  [ [ Value.bool true; Value.bool false ];
    [ Value.bool true; Value.bool false; Value.int 3;
      Value.pair (Value.int 1) (Value.string "v") ] ]

(* Every default [resolve] is checked under: the two booleans take the
   int-vote path when the tree allows it, [unit] never does. *)
let defaults = [ Value.bool false; Value.bool true; Value.unit ]

(* A random valid label set: n <= 8, labels of length <= 3, values from a
   boolean or a mixed palette so majorities are contested.  Dense cases
   keep most labels of a full tree; sparse ones draw a few labels,
   duplicates included (the same label claimed twice with different
   values). *)
let tree_case_gen =
  let open QCheck.Gen in
  oneofl palettes >>= fun palette ->
  int_range 1 8 >>= fun n ->
  int_range 0 (min 3 n) >>= fun depth ->
  let label =
    shuffle_l (List.init n Fun.id) >>= fun perm ->
    int_range 0 depth >|= fun len -> List.filteri (fun i _ -> i < len) perm
  in
  let entry = pair label (oneofl palette) in
  let dense =
    flatten_l
      (List.concat_map
         (fun len ->
           List.map
             (fun l ->
               pair (int_bound 9) (oneofl palette) >|= fun (keep, v) ->
               if keep = 0 then None else Some (l, v))
             (all_labels ~n len))
         (List.init (depth + 1) Fun.id))
    >|= List.filter_map Fun.id
  in
  let sparse = list_size (int_bound 40) entry in
  oneof [ dense; sparse ] >>= fun claims ->
  (* Re-claim a few labels with other values: first write must win. *)
  list_size (int_bound 5) entry >|= fun extra ->
  n, depth, claims @ extra @ claims

let print_case (n, depth, claims) =
  Printf.sprintf "n=%d depth=%d claims=[%s]" n depth
    (String.concat "; "
       (List.map
          (fun (l, v) ->
            Printf.sprintf "%s:%s"
              (String.concat "." (List.map string_of_int l))
              (Value.to_string v))
          claims))

let tree_case = QCheck.make ~print:print_case tree_case_gen

let build n claims =
  List.fold_left (fun t (l, v) -> Eig_tree.add t l v) (Eig_tree.empty ~n) claims

let reference claims = List.fold_left ref_add [] claims

let encoded entries =
  Value.of_assoc
    (List.map
       (fun (l, v) -> Eig_tree.label_key l, v)
       (List.stable_sort label_order entries))

let prop_tree_encoding =
  QCheck.Test.make ~name:"Eig_tree.to_value: sorted, first write wins"
    ~count:200 tree_case (fun (n, _, claims) ->
      Value.equal (Eig_tree.to_value (build n claims)) (encoded (reference claims)))

(* [f] runs past the tree's depth, so leaf levels go missing, and up to
   n at n <= 3, so f+1 = n and f+1 > n both occur. *)
let prop_tree_queries =
  QCheck.Test.make ~name:"Eig_tree find/level/resolve match the reference"
    ~count:200 tree_case (fun (n, depth, claims) ->
      let t = build n claims and entries = reference claims in
      let table = Hashtbl.create 64 in
      List.iter (fun (l, v) -> Hashtbl.replace table l v) entries;
      List.for_all
        (fun (l, _) -> Eig_tree.find t l = List.assoc_opt l entries)
        (claims @ [ [], Value.unit ])
      && List.for_all
           (fun len ->
             Eig_tree.level t len
             = List.stable_sort label_order
                 (List.filter (fun (l, _) -> List.length l = len) entries))
           (List.init (depth + 2) Fun.id)
      && List.for_all
           (fun default ->
             List.for_all
               (fun f ->
                 List.for_all
                   (fun (root, _) ->
                     Value.equal
                       (Eig_tree.resolve ~f ~default t root)
                       (ref_resolve ~n ~f ~default (Hashtbl.find_opt table) root))
                   (([], Value.unit) :: List.filteri (fun i _ -> i < 4) claims))
               (List.init (depth + 1) Fun.id))
           defaults)

let prop_majority =
  let votes =
    QCheck.make
      ~print:(fun vs -> String.concat "," (List.map Value.to_string vs))
      QCheck.Gen.(
        list_size (int_bound 9)
          (oneofl [ Value.bool true; Value.bool false; Value.int 3 ]))
  in
  QCheck.Test.make ~name:"Eig_tree.majority matches the reference" ~count:300
    votes (fun vs ->
      let default = Value.unit in
      Value.equal (Eig_tree.majority ~default vs) (ref_majority ~default vs))

(* Every slot at n <= 8 and level <= 4.  Filling a whole level in label
   order and reading it back in slot order checks that slot c holds the
   c-th label — rank (unrank c) = c — and that its shared key decodes to
   that label; the encoding checks that every stored entry, shared or
   freshly paired, equals [Pair (label_key label, v)]. *)
let prop_every_slot =
  let palette =
    QCheck.make
      ~print:(fun vs -> String.concat "," (List.map Value.to_string vs))
      QCheck.Gen.(
        list_size (int_range 1 5)
          (oneofl
             [ Value.bool true; Value.bool false; Value.int 3;
               Value.string "x"; Value.unit ]))
  in
  QCheck.Test.make ~name:"Eig_tree: every slot's shared key and entry"
    ~count:10 palette (fun palette ->
      let k = List.length palette in
      List.for_all
        (fun n ->
          let levels = List.init (min 4 n + 1) (fun r -> all_labels ~n r) in
          let valued =
            List.map
              (List.mapi (fun c l -> l, List.nth palette ((c + n) mod k)))
              levels
          in
          let t = build n (List.concat valued) in
          List.for_all2 (fun r entries -> Eig_tree.level t r = entries)
            (List.init (List.length valued) Fun.id)
            valued
          && Value.equal (Eig_tree.to_value t) (encoded (List.concat valued)))
        (List.init 8 (fun i -> i + 1)))

(* The per-domain table memo has a slot budget; n = 16 level 4 alone
   exceeds it, so alternating with smaller tables drops and rebuilds the
   memo.  Every entry must stay the one a fresh pair would give. *)
let memo_budget () =
  List.iter
    (fun (n, label) ->
      List.iter
        (fun v ->
          check tbool
            (Printf.sprintf "n=%d label %s" n
               (String.concat "." (List.map string_of_int label)))
            true
            (Value.equal
               (Eig_tree.to_value (Eig_tree.add (Eig_tree.empty ~n) label v))
               (Value.of_assoc [ Eig_tree.label_key label, v ])))
        [ Value.bool true; Value.bool false; Value.int 7 ])
    [ 16, [ 15; 0; 14; 1 ]; 5, [ 4; 2 ]; 16, [ 3; 2; 1 ]; 16, [ 0; 1; 2; 3 ];
      12, [ 11; 10; 9 ]; 16, [ 15; 14; 13; 12 ] ]

(* Ragged trees for [resolve]: each slot of a depth-(f+1) tree is absent
   with probability 1/4, and the palette is either two booleans (even
   sibling counts tie) or mixes in non-boolean values.  One tree in four
   stops at depth f, so its leaf level is missing. *)
let resolve_case =
  let gen =
    let open QCheck.Gen in
    int_range 1 7 >>= fun n ->
    int_range 0 (min 2 (n - 1)) >>= fun f ->
    oneofl palettes >>= fun palette ->
    frequency [ 3, return (f + 2); 1, return (f + 1) ] >>= fun levels ->
    flatten_l
      (List.concat_map
         (fun len ->
           List.map
             (fun l ->
               pair (int_bound 3) (oneofl palette) >|= fun (keep, v) ->
               if keep = 0 then None else Some (l, v))
             (all_labels ~n len))
         (List.init levels Fun.id))
    >|= fun claims -> n, f, List.filter_map Fun.id claims
  in
  QCheck.make
    ~print:(fun (n, f, claims) ->
      Printf.sprintf "f=%d %s" f (print_case (n, f + 1, claims)))
    gen

(* Every label of length at most [len]. *)
let labels_upto ~n len =
  List.concat_map (fun len -> all_labels ~n len) (List.init (len + 1) Fun.id)

let prop_resolve =
  QCheck.Test.make ~name:"Eig_tree.resolve matches the reference on ragged trees"
    ~count:300 resolve_case (fun (n, f, claims) ->
      let t = build n claims in
      List.for_all
        (fun default ->
          List.for_all
            (fun root ->
              Value.equal
                (Eig_tree.resolve ~f ~default t root)
                (ref_resolve ~n ~f ~default (fun l -> List.assoc_opt l claims)
                   root))
            (labels_upto ~n f))
        defaults)

(* The edge shapes of the int-vote path, every root, every default: full
   boolean trees with f+1 = n (the deepest leaf level there is), one with
   f+1 > n, a tree with no leaf level, and two non-boolean leaves that
   outvote their sibling and send the whole vote down the general path. *)
let resolve_edges () =
  let full n depth v =
    List.concat_map
      (fun len -> List.mapi (fun i l -> l, v i) (all_labels ~n len))
      (List.init (depth + 1) Fun.id)
  in
  let alternating i = Value.bool (i mod 3 = 0) in
  List.iter
    (fun (what, n, f, claims) ->
      let t = build n claims in
      List.iter
        (fun default ->
          List.iter
            (fun root ->
              check tbool
                (Printf.sprintf "%s, default %s, root %s" what
                   (Value.to_string default)
                   (String.concat "." (List.map string_of_int root)))
                true
                (Value.equal
                   (Eig_tree.resolve ~f ~default t root)
                   (ref_resolve ~n ~f ~default
                      (fun l -> List.assoc_opt l claims) root)))
            (labels_upto ~n (min n f)))
        defaults)
    [ "n=1 f=0", 1, 0, full 1 1 alternating;
      "n=2 f=1", 2, 1, full 2 2 alternating;
      "n=3 f=2", 3, 2, full 3 3 alternating;
      "n=2 f=2", 2, 2, full 2 2 alternating;
      "n=4 f=1, no leaf level", 4, 1, full 4 1 alternating;
      "n=4 f=1, two int leaves", 4, 1,
      full 4 2 (fun i -> if i = 3 || i = 4 then Value.int 3 else alternating i) ]

let prop_tree_rejects =
  let bad =
    QCheck.make
      ~print:(fun (n, l) ->
        Printf.sprintf "n=%d label=%s" n
          (String.concat "." (List.map string_of_int l)))
      QCheck.Gen.(
        int_range 1 8 >>= fun n ->
        oneof
          [ (* one id out of range *)
            (pair (int_range 0 (n - 1)) (oneofl [ -1; n; n + 3 ])
            >|= fun (a, b) -> if a mod 2 = 0 then [ a; b ] else [ b ]);
            (* a repeated id *)
            (int_range 0 (n - 1) >|= fun a -> [ a; a ]);
            (int_range 0 (n - 1) >|= fun a -> [ a; (a + 1) mod (n + 1); a ]);
          ]
        >|= fun l -> n, l)
  in
  QCheck.Test.make ~name:"Eig_tree rejects out-of-range and repeated ids"
    ~count:200 bad (fun (n, l) ->
      let raises f =
        match f () with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      raises (fun () -> Eig_tree.add (Eig_tree.empty ~n) l Value.unit)
      && raises (fun () -> Eig_tree.find (Eig_tree.empty ~n) l))

let suite =
  ( "eig",
    [ Alcotest.test_case "fault-free" `Quick fault_free;
      Alcotest.test_case "n=3f+1 under adversaries" `Quick at_resilience_boundary;
      Alcotest.test_case "broken below 3f+1" `Quick below_boundary_is_breakable;
      Alcotest.test_case "decision round exact" `Quick decision_round_exact;
      QCheck_alcotest.to_alcotest prop_boundary;
      QCheck_alcotest.to_alcotest prop_tree_encoding;
      QCheck_alcotest.to_alcotest prop_tree_queries;
      QCheck_alcotest.to_alcotest prop_majority;
      QCheck_alcotest.to_alcotest prop_tree_rejects;
      QCheck_alcotest.to_alcotest prop_every_slot;
      Alcotest.test_case "label tables past the memo budget" `Quick memo_budget;
      QCheck_alcotest.to_alcotest prop_resolve;
      Alcotest.test_case "resolve edge shapes" `Quick resolve_edges;
    ] )
