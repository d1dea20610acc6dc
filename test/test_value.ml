(* Unit and property tests for Value.t: ordering laws, accessor round-trips,
   printer sanity. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let v_int = Value.int
let v_pair = Value.pair

let roundtrip () =
  check tbool "bool" true (Value.get_bool (Value.bool true));
  check tint "int" 42 (Value.get_int (Value.int 42));
  check (Alcotest.float 0.0) "float" 1.5 (Value.get_float (Value.float 1.5));
  check tstr "string" "hi" (Value.get_string (Value.string "hi"));
  let a, b = Value.get_pair (v_pair (v_int 1) (v_int 2)) in
  check tint "pair fst" 1 (Value.get_int a);
  check tint "pair snd" 2 (Value.get_int b);
  let x, y, z = Value.get_triple (Value.triple (v_int 1) (v_int 2) (v_int 3)) in
  check tint "triple 1" 1 (Value.get_int x);
  check tint "triple 2" 2 (Value.get_int y);
  check tint "triple 3" 3 (Value.get_int z);
  let c, p = Value.get_tag (Value.tag "vote" (v_int 0)) in
  check tstr "tag ctor" "vote" c;
  check tint "tag payload" 0 (Value.get_int p)

let type_errors () =
  let expect_type_error f =
    match f () with
    | exception Value.Type_error _ -> ()
    | _ -> Alcotest.fail "expected Type_error"
  in
  expect_type_error (fun () -> Value.get_int (Value.bool true));
  expect_type_error (fun () -> Value.get_bool Value.unit);
  expect_type_error (fun () -> Value.untag "a" (Value.tag "b" Value.unit));
  expect_type_error (fun () -> Value.get_list (v_int 3))

let untag_and_is_tag () =
  check tbool "is_tag yes" true (Value.is_tag "x" (Value.tag "x" Value.unit));
  check tbool "is_tag no" false (Value.is_tag "x" (Value.tag "y" Value.unit));
  check tint "untag" 7 (Value.get_int (Value.untag "x" (Value.tag "x" (v_int 7))))

let assoc_find () =
  let m = Value.of_assoc [ v_int 1, Value.string "a"; v_int 2, Value.string "b" ] in
  (match Value.find ~key:(v_int 2) m with
  | Some v -> check tstr "find hit" "b" (Value.get_string v)
  | None -> Alcotest.fail "find miss");
  check tbool "find absent" true (Value.find ~key:(v_int 3) m = None);
  check tint "assoc len" 2 (List.length (Value.assoc m))

let lists () =
  check tbool "int_list" true
    (Value.get_int_list (Value.int_list [ 1; 2; 3 ]) = [ 1; 2; 3 ]);
  check tbool "float_list" true
    (Value.get_float_list (Value.float_list [ 1.0; 2.0 ]) = [ 1.0; 2.0 ])

let printing () =
  check tstr "unit" "()" (Value.to_string Value.unit);
  check tstr "nullary tag" "Fire" (Value.to_string (Value.tag "Fire" Value.unit));
  check tstr "int" "3" (Value.to_string (v_int 3))

(* Property tests: generator for arbitrary values. *)
let value_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self fuel ->
      let leaf =
        oneof
          [ return Value.unit;
            map Value.bool bool;
            map Value.int small_signed_int;
            map Value.float (float_range (-100.0) 100.0);
            map Value.string (small_string ~gen:printable);
          ]
      in
      if fuel <= 0 then leaf
      else
        frequency
          [ 3, leaf;
            1, map2 Value.pair (self (fuel / 2)) (self (fuel / 2));
            1, map Value.list (list_size (int_bound 4) (self (fuel / 3)));
            1, map2 Value.tag (small_string ~gen:(char_range 'a' 'z')) (self (fuel / 2));
          ])

let arbitrary_value = QCheck.make ~print:Value.to_string value_gen

let prop_compare_refl =
  QCheck.Test.make ~name:"compare reflexive" ~count:200 arbitrary_value
    (fun v -> Value.compare v v = 0 && Value.equal v v)

let prop_compare_antisym =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:200
    (QCheck.pair arbitrary_value arbitrary_value)
    (fun (a, b) -> Value.compare a b = -Value.compare b a)

let prop_equal_iff_compare =
  QCheck.Test.make ~name:"equal iff compare = 0" ~count:200
    (QCheck.pair arbitrary_value arbitrary_value)
    (fun (a, b) -> Value.equal a b = (Value.compare a b = 0))

let prop_compare_trans =
  QCheck.Test.make ~name:"compare transitive on sorted triple" ~count:200
    (QCheck.triple arbitrary_value arbitrary_value arbitrary_value)
    (fun (a, b, c) ->
      let sorted = List.sort Value.compare [ a; b; c ] in
      match sorted with
      | [ x; y; z ] -> Value.compare x y <= 0 && Value.compare y z <= 0 && Value.compare x z <= 0
      | _ -> false)

let suite =
  ( "value",
    [ Alcotest.test_case "accessor round-trips" `Quick roundtrip;
      Alcotest.test_case "type errors" `Quick type_errors;
      Alcotest.test_case "tags" `Quick untag_and_is_tag;
      Alcotest.test_case "assoc/find" `Quick assoc_find;
      Alcotest.test_case "int/float lists" `Quick lists;
      Alcotest.test_case "printing" `Quick printing;
      QCheck_alcotest.to_alcotest prop_compare_refl;
      QCheck_alcotest.to_alcotest prop_compare_antisym;
      QCheck_alcotest.to_alcotest prop_equal_iff_compare;
      QCheck_alcotest.to_alcotest prop_compare_trans;
    ] )
