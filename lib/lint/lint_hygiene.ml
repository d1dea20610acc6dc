open Parsetree

(* Error/equality hygiene.  [Obj.magic] is banned outright; polymorphic
   compare must not touch fingerprints (on a cache key it walks the whole
   descriptor instead of checking the fingerprint first, and on the int64
   fingerprint itself it invites compare-vs-equal drift); library failures in the engine/store layers
   must raise through Flm_error so callers and the CLI's exit-code
   contract can observe the class. *)

let poly_ops = [ [ "=" ]; [ "<>" ]; [ "compare" ]; [ "Stdlib"; "compare" ] ]

(* Does this operand look fingerprint-typed?  Purely syntactic: a mention
   of the Fingerprint module, a fingerprint-carrying field (.fp / .fkey /
   .nkey), a variable conventionally named fp, or a type constraint on
   Fingerprint.t. *)
let mentions_fingerprint (e : expression) =
  let found = ref false in
  let rec ty_mentions (t : core_type) =
    match t.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, args) ->
      (match Lint_ast.flat txt with
      | "Fingerprint" :: _ -> found := true
      | _ -> ());
      List.iter ty_mentions args
    | _ -> ()
  in
  Lint_ast.iter_expr e (fun ex ->
      match ex.pexp_desc with
      | Pexp_ident { txt; _ } -> (
        match Lint_ast.flat txt with
        | "Fingerprint" :: _ | [ ("fp" | "fingerprint") ] -> found := true
        | _ -> ())
      | Pexp_field (_, { txt; _ }) -> (
        match Lint_ast.flat txt with
        | [ ("fp" | "fkey" | "nkey") ] -> found := true
        | _ -> ())
      | Pexp_constraint (_, ty) -> ty_mentions ty
      | _ -> ());
  !found

let untyped_raisers =
  [ [ "failwith" ]; [ "invalid_arg" ]; [ "Stdlib"; "failwith" ];
    [ "Stdlib"; "invalid_arg" ] ]

let raise_of_construct e =
  (* [raise (Failure _)] / [raise (Invalid_argument _)] spelled out. *)
  match Lint_ast.head_call e with
  | Some (([ "raise" ] | [ "Stdlib"; "raise" ]), [ (_, arg) ]) -> (
    match arg.pexp_desc with
    | Pexp_construct ({ txt; _ }, _) -> (
      match Lint_ast.flat txt with
      | [ ("Failure" | "Invalid_argument") ] -> true
      | _ -> false)
    | _ -> false)
  | _ -> false

let check ~active (str : structure) =
  let acc = ref [] in
  let add rule loc message =
    if List.mem rule active then
      acc := Lint_rule.of_location ~rule ~message loc :: !acc
  in
  Lint_ast.iter_expressions str (fun e ->
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
        match Lint_ast.flat txt with
        | [ "Obj"; "magic" ] ->
          add Lint_rule.Hygiene_obj_magic loc
            "Obj.magic defeats the type system; there is no sound use of it \
             in this codebase"
        | path when List.mem path untyped_raisers ->
          add Lint_rule.Hygiene_untyped_raise loc
            "raise a typed Flm_error (Invalid_input, Job_failed, ...) so \
             callers and the CLI exit-code contract can observe the class"
        | _ -> ())
      | _ -> ());
      if raise_of_construct e then
        add Lint_rule.Hygiene_untyped_raise e.pexp_loc
          "raise a typed Flm_error instead of Failure/Invalid_argument";
      match e.pexp_desc with
      | Pexp_apply (op, [ (_, a); (_, b) ]) -> (
        match Lint_ast.ident_path op with
        | Some path when List.mem path poly_ops ->
          if mentions_fingerprint a || mentions_fingerprint b then
            add Lint_rule.Hygiene_poly_compare op.pexp_loc
              "polymorphic compare on fingerprint values; use \
               Fingerprint.equal / Fingerprint.equal_key"
        | _ -> ())
      | _ -> ());
  List.rev !acc
