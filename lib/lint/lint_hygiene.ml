open Parsetree

(* Error/equality hygiene.  [Obj.magic] is banned outright; polymorphic
   compare must not touch fingerprints (on a cache key it walks the whole
   descriptor instead of checking the fingerprint first, and on the int64
   fingerprint itself it invites compare-vs-equal drift); library failures in the engine/store layers
   must raise through Flm_error so callers and the CLI's exit-code
   contract can observe the class. *)

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

(* One node of the file walk ([path]: its identifier path; [call]: its
   peeled application).  Every classifier is a [match] on literals. *)
let visit ~report ~poly (e : expression) ~path ~call =
  match e.pexp_desc with
  | Pexp_ident { loc; _ } -> (
    match path with
    | [ "Obj"; "magic" ] ->
      report Lint_rule.Hygiene_obj_magic loc
        "Obj.magic defeats the type system; there is no sound use of it in \
         this codebase"
    | [ ("failwith" | "invalid_arg") ]
    | [ "Stdlib"; ("failwith" | "invalid_arg") ] ->
      report Lint_rule.Hygiene_untyped_raise loc
        "raise a typed Flm_error (Invalid_input, Job_failed, ...) so callers \
         and the CLI exit-code contract can observe the class"
    | _ -> ())
  | Pexp_apply (op, args) -> (
    (* [raise (Failure _)] / [raise (Invalid_argument _)] spelled out *)
    (match call with
    | Some
        ( ([ "raise" ] | [ "Stdlib"; "raise" ]),
          [ (_, { pexp_desc = Pexp_construct ({ txt; _ }, _); _ }) ] ) -> (
      match Lint_ast.flat txt with
      | [ ("Failure" | "Invalid_argument") ] ->
        report Lint_rule.Hygiene_untyped_raise e.pexp_loc
          "raise a typed Flm_error instead of Failure/Invalid_argument"
      | _ -> ())
    | _ -> ());
    match op.pexp_desc, args with
    | ( Pexp_ident
          { txt =
              ( Longident.Lident ("=" | "<>" | "compare")
              | Longident.Ldot (Longident.Lident "Stdlib", "compare") );
            _ },
        [ (_, a); (_, b) ] )
      when poly && (mentions_fingerprint a || mentions_fingerprint b) ->
      report Lint_rule.Hygiene_poly_compare op.pexp_loc
        "polymorphic compare on fingerprint values; use Fingerprint.equal / \
         Fingerprint.equal_key"
    | _ -> ())
  | _ -> ()
