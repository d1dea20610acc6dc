open Parsetree

(* Lock-discipline analysis, syntactic and conservative.  Three checks:

   1. lock-pairing: a [Mutex.lock m] statement's continuation must release
      [m] on every control path, either directly ([Mutex.unlock m] in
      sequence on all branches) or via [Fun.protect ~finally] whose finally
      unlocks [m].  A release the analysis cannot see (a condvar loop that
      unlocks inside a local closure, say) needs an inline suppression —
      by design: those are exactly the sites a reviewer should re-derive.

   2. condvar-discipline: [Condition.wait c m] must sit lexically inside a
      region where [m] is held (the continuation of [Mutex.lock m], a
      [Fun.protect] body whose finally unlocks [m], or a [with_*] helper's
      closure).

   3. nested-lock: no [Mutex.lock] inside a [Fun.protect] body that
      already holds a different lock, or inside a [with_*] helper closure
      (the striped caches' lock-order discipline). *)

type region =
  | Cont of string * Location.t
      (* continuation of a statement [Mutex.lock m]: m is held (until the
         unlock somewhere inside) *)
  | Protect of string * Location.t
      (* a [Fun.protect] body whose finally unlocks m: m is held throughout *)
  | Helper of Location.t
      (* a [with_*] helper's closure argument: some lock is held *)

(* --- all-paths release ----------------------------------------------------- *)

let rec releases m (e : expression) =
  match e.pexp_desc with
  | Pexp_sequence (a, b) -> releases m a || releases m b
  | Pexp_let (_, vbs, body) ->
    List.exists (fun vb -> releases m vb.pvb_expr) vbs || releases m body
  | Pexp_ifthenelse (_, t, Some e') -> releases m t && releases m e'
  | Pexp_ifthenelse (_, _, None) -> false
  | Pexp_match (_, cases) | Pexp_function cases ->
    cases <> [] && List.for_all (fun c -> releases m c.pc_rhs) cases
  | Pexp_try (body, _) -> releases m body
  | Pexp_constraint (x, _) | Pexp_open (_, x) | Pexp_letmodule (_, _, x) ->
    releases m x
  | _ -> (
    match Lint_ast.unlock_site e with
    | Some m' when m' = m -> true
    | _ -> (
      match Lint_ast.fun_protect e with
      | Some (fin, _) -> List.mem m (Lint_ast.unlocks_in fin)
      | None -> false))

(* --- site collection -------------------------------------------------------- *)

type sites = {
  mutable positioned : Location.t list;
  mutable unreleased : (string * Location.t) list;
  mutable all_locks : (string * Location.t) list;
  mutable waits : (string * Location.t) list;
  mutable regions : region list;
}

let sites () =
  { positioned = []; unreleased = []; all_locks = []; waits = []; regions = [] }

let statement_lock s (lock : expression) cont =
  match Lint_ast.lock_site lock with
  | None -> ()
  | Some m ->
    s.positioned <- lock.pexp_loc :: s.positioned;
    s.regions <- Cont (m, cont.pexp_loc) :: s.regions;
    if not (releases m cont) then
      s.unreleased <- (m, lock.pexp_loc) :: s.unreleased

(* The closure a [with_*] helper call runs under its lock: its first
   [fun] argument. *)
let with_helper (path, args) =
  if not (Lint_ast.is_with_helper path) then None
  else
    List.find_map
      (fun (_, (a : expression)) ->
        match a.pexp_desc with Pexp_fun _ -> Some a | _ -> None)
      args

(* One node of the file walk, with its peeled application [call]: lock and
   wait sites, the regions that hold a lock, and statement-position
   locks. *)
let visit s (e : expression) ~call =
  (match call with
  | None -> ()
  | Some c -> (
    (match Lint_ast.lock_of c with
    | Some m -> s.all_locks <- (m, e.pexp_loc) :: s.all_locks
    | None -> ());
    (match c with
    | [ "Condition"; "wait" ], [ (_, _); (_, m) ] ->
      s.waits <- (Lint_ast.expr_name m, e.pexp_loc) :: s.waits
    | _ -> ());
    (match Lint_ast.protect_of c with
    | Some (fin, Some body) ->
      let body = Lint_ast.closure_body body in
      List.iter
        (fun m -> s.regions <- Protect (m, body.pexp_loc) :: s.regions)
        (Lint_ast.unlocks_in fin)
    | Some (_, None) | None -> ());
    match with_helper c with
    | Some closure ->
      let body = Lint_ast.closure_body closure in
      s.regions <- Helper body.pexp_loc :: s.regions
    | None -> ()));
  match e.pexp_desc with
  | Pexp_sequence (a, b) -> statement_lock s a b
  | Pexp_let
      ( _,
        [ { pvb_pat =
              { ppat_desc =
                  Ppat_construct ({ txt = Longident.Lident "()"; _ }, None);
                _ };
            pvb_expr;
            _ } ],
        body ) ->
    statement_lock s pvb_expr body
  | _ -> ()

(* --- the three checks ------------------------------------------------------- *)

let report ~active s =
  let acc = ref [] in
  let add rule loc message =
    if List.mem rule active then
      acc := Lint_rule.of_location ~rule ~message loc :: !acc
  in
  List.iter
    (fun (m, loc) ->
      add Lint_rule.Concurrency_lock_pairing loc
        (Printf.sprintf
           "Mutex.lock %s is not guarded by Fun.protect ~finally and is not \
            released on every branch of its continuation"
           m))
    s.unreleased;
  List.iter
    (fun (m, loc) ->
      if not (List.mem loc s.positioned) then
        add Lint_rule.Concurrency_lock_pairing loc
          (Printf.sprintf
             "Mutex.lock %s is not in statement position; its release cannot \
              be checked"
             m))
    s.all_locks;
  List.iter
    (fun (m, loc) ->
      let covered =
        List.exists
          (function
            | Cont (m', outer) | Protect (m', outer) ->
              m' = m && Lint_ast.within ~outer loc
            | Helper outer -> Lint_ast.within ~outer loc)
          s.regions
      in
      if not covered then
        add Lint_rule.Concurrency_condvar loc
          (Printf.sprintf
             "Condition.wait on %s outside a region that lexically holds it"
             m))
    s.waits;
  List.iter
    (fun (m, loc) ->
      List.iter
        (function
          | Protect (m', outer)
            when m' <> m && Lint_ast.within ~outer loc ->
            add Lint_rule.Concurrency_nested_lock loc
              (Printf.sprintf
                 "Mutex.lock %s inside a Fun.protect body that already holds \
                  %s"
                 m m')
          | Helper outer when Lint_ast.within ~outer loc ->
            add Lint_rule.Concurrency_nested_lock loc
              (Printf.sprintf
                 "Mutex.lock %s inside a with_* helper closure that already \
                  holds a lock"
                 m)
          | _ -> ())
        s.regions)
    s.all_locks;
  List.rev !acc
