(* One walk per file.  The compiler-libs parse is the floor of a lint run;
   everything after it happens in one pre-order pass over the tree.  Each
   expression is peeled once — its identifier path, or its application's
   head and arguments — and handed to every consumer: the Locality
   identifier rules and the structure-level mutable-state scan, the
   hygiene rules, the concurrency site collection, and the facts of the
   structure-level definition whose body the walk is in.  Only regions a
   rule must judge as a whole get a sub-walk of their own: a lock's
   continuation, a [~finally] closure's unlocks, a held region's events,
   and the operands of a polymorphic compare. *)

open Parsetree

type t = {
  report : Lint_rule.id -> Location.t -> string -> unit;
  idents : bool;  (* a Locality identifier rule is in force *)
  state : bool;  (* locality/mutable-state is in force *)
  poly : bool;  (* hygiene/poly-compare is in force *)
  sites : Lint_concurrency.sites option;  (* when a concurrency rule is *)
  mutable scan : expression list;
      (* the nodes the mutable-state scan visits among the current node's
         children *)
  mutable body : expression option;  (* the binding body to enter next *)
  mutable pending : Lint_callgraph.facts option;  (* its facts, if a def *)
  mutable facts : Lint_callgraph.facts option;  (* the def being walked *)
  mutable defs : Lint_callgraph.def list;  (* newest first *)
}

let visit w (e : expression) =
  let path =
    match e.pexp_desc with Pexp_ident { txt; _ } -> Lint_ast.flat txt | _ -> []
  in
  let call =
    match e.pexp_desc with Pexp_apply _ -> Lint_ast.head_call e | _ -> None
  in
  (match e.pexp_desc with
  | Pexp_ident { loc; _ } when w.idents -> (
    match Lint_locality.banned_ident path with
    | Some (rule, message) -> w.report rule loc message
    | None -> ())
  | _ -> ());
  Lint_hygiene.visit ~report:w.report ~poly:w.poly e ~path ~call;
  (match w.sites with
  | Some s -> Lint_concurrency.visit s e ~call
  | None -> ());
  (match w.facts with
  | Some f ->
    if path <> [] then Lint_callgraph.ident f e path;
    Lint_callgraph.node f e ~call
  | None -> ());
  w.scan <-
    (if w.scan != [] && List.memq e w.scan then
       Lint_locality.scan_step ~report:w.report e ~path ~call
     else [])

let expr w self e =
  let scan = w.scan and facts = w.facts in
  (match w.body with
  | Some b when b == e ->
    w.body <- None;
    w.facts <- w.pending
  | _ -> ());
  visit w e;
  Ast_iterator.default_iterator.expr self e;
  w.scan <- scan;
  w.facts <- facts

(* The structure levels: the file's top level and nested module
   structures, including functor bodies and constrained modules, which
   the mutable-state scan enters.  Definitions are recorded only along
   plain [module M = struct ... end] chains ([ctx] is their module path);
   functors, aliases and constrained modules are bottom to the call graph.
   Everything else — and everything inside an expression — is the
   iterator's. *)
let rec structure w it ~ctx items = List.iter (structure_item w it ~ctx) items

and structure_item w it ~ctx item =
  match item.pstr_desc with
  | Pstr_value (_, vbs) -> List.iter (binding w it ~ctx) vbs
  | Pstr_module mb -> module_binding w it ~ctx mb
  | Pstr_recmodule mbs -> List.iter (module_binding w it ~ctx) mbs
  | _ -> it.Ast_iterator.structure_item it item

and binding w it ~ctx vb =
  w.body <- Some vb.pvb_expr;
  w.pending <- Option.map (fun _ -> Lint_callgraph.facts ()) ctx;
  if w.state then w.scan <- [ vb.pvb_expr ];
  it.Ast_iterator.value_binding it vb;
  w.scan <- [];
  match ctx, w.pending with
  | Some ctx, Some f ->
    w.defs <- List.rev_append (Lint_callgraph.defs_of_binding ~ctx vb f) w.defs
  | _ -> ()

and module_binding w it ~ctx mb =
  let ctx =
    match ctx, mb.pmb_name.txt, mb.pmb_expr.pmod_desc with
    | Some c, Some m, Pmod_structure _ -> Some (c ^ "." ^ m)
    | _ -> None
  in
  module_expr w it ~ctx mb.pmb_expr;
  it.Ast_iterator.attributes it mb.pmb_attributes

and module_expr w it ~ctx me =
  match me.pmod_desc with
  | Pmod_structure items ->
    structure w it ~ctx items;
    it.Ast_iterator.attributes it me.pmod_attributes
  | Pmod_functor (param, body) ->
    (match param with
    | Named (_, mty) -> it.Ast_iterator.module_type it mty
    | Unit -> ());
    module_expr w it ~ctx:None body;
    it.Ast_iterator.attributes it me.pmod_attributes
  | Pmod_constraint (body, mty) ->
    module_expr w it ~ctx:None body;
    it.Ast_iterator.module_type it mty;
    it.Ast_iterator.attributes it me.pmod_attributes
  | _ -> it.Ast_iterator.module_expr it me

let file ~path ~active str =
  let found = ref [] in
  let on rule = List.mem rule active in
  let report rule loc message =
    if on rule then found := Lint_rule.of_location ~rule ~message loc :: !found
  in
  let w =
    { report;
      idents =
        List.exists on
          [ Lint_rule.Locality_random; Locality_time; Locality_domain;
            Locality_hash ];
      state = on Lint_rule.Locality_mutable_state;
      poly = on Lint_rule.Hygiene_poly_compare;
      sites =
        (if
           List.exists on
             [ Lint_rule.Concurrency_lock_pairing; Concurrency_condvar;
               Concurrency_nested_lock ]
         then Some (Lint_concurrency.sites ())
         else None);
      scan = [];
      body = None;
      pending = None;
      facts = None;
      defs = [] }
  in
  let it = { Ast_iterator.default_iterator with expr = expr w } in
  let modname = Lint_callgraph.modname_of path in
  structure w it ~ctx:(Some modname) str;
  let findings =
    match w.sites with
    | Some s -> Lint_concurrency.report ~active s @ !found
    | None -> !found
  in
  findings, { Lint_callgraph.path; modname; defs = List.rev w.defs }
