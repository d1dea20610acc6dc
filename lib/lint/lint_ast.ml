open Parsetree

let flat (lid : Longident.t) =
  match Longident.flatten lid with path -> path | exception _ -> []

let ident_path (e : expression) =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some (flat txt) | _ -> None

type call = string list * (Asttypes.arg_label * expression) list

(* Peel an application down to (head ident path, args), looking through
   [@@] and [|>] so "f x @@ fun () -> ..." and "x |> f" analyze like the
   direct application they denote. *)
let rec head_call (e : expression) : call option =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> (
    match ident_path f with
    | Some [ ("@@" | "Stdlib.@@") ] | Some [ "Stdlib"; "@@" ] -> (
      match args with
      | [ (_, g); (_, x) ] ->
        Option.map (fun (h, a) -> h, a @ [ Asttypes.Nolabel, x ]) (head_call g)
      | _ -> None)
    | Some [ "|>" ] | Some [ "Stdlib"; "|>" ] -> (
      match args with
      | [ (_, x); (_, g) ] ->
        Option.map (fun (h, a) -> h, a @ [ Asttypes.Nolabel, x ]) (head_call g)
      | _ -> None)
    | Some path -> Some (path, args)
    | None -> Option.map (fun (h, a) -> h, a @ args) (head_call f))
  | Pexp_ident { txt; _ } -> Some (flat txt, [])
  | _ -> None

let iter_expr (e : expression) f =
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          f e;
          Ast_iterator.default_iterator.expr self e) }
  in
  it.expr it e

(* A stable name for a mutex expression ("t.lock", "s.lock", "m"), used to
   match lock/unlock/wait sites.  Anything unprintable still yields a
   deterministic string. *)
let expr_name (e : expression) =
  match Pprintast.string_of_expression e with
  | s -> String.trim s
  | exception _ -> "<expr>"

let mutex_arg args =
  match args with (Asttypes.Nolabel, m) :: _ -> Some m | _ -> None

(* Recognizers on a peeled call, so a walk that has already computed a
   node's [head_call] classifies it without peeling it again. *)
let lock_of (path, args) =
  match path with
  | [ "Mutex"; "lock" ] -> Option.map expr_name (mutex_arg args)
  | _ -> None

let unlock_of (path, args) =
  match path with
  | [ "Mutex"; "unlock" ] -> Option.map expr_name (mutex_arg args)
  | _ -> None

(* [Fun.protect ~finally:fin body], possibly via @@ / |>: (fin, body when
   present). *)
let protect_of (path, args) =
  match path with
  | [ "Fun"; "protect" ] | [ "Stdlib"; "Fun"; "protect" ] ->
    let fin =
      List.find_map
        (function
          | Asttypes.Labelled "finally", f -> Some f
          | _ -> None)
        args
    in
    let body =
      List.find_map
        (function Asttypes.Nolabel, b -> Some b | _ -> None)
        args
    in
    Option.map (fun f -> f, body) fin
  | _ -> None

(* The same recognizers on an expression.  Only an application can be a
   lock, unlock or protect site. *)
let on_call f (e : expression) =
  match e.pexp_desc with
  | Pexp_apply _ -> Option.bind (head_call e) f
  | _ -> None

let lock_site e = on_call lock_of e
let unlock_site e = on_call unlock_of e
let fun_protect e = on_call protect_of e

(* The mutexes a [~finally] closure unlocks, in source order. *)
let unlocks_in fin =
  let out = ref [] in
  iter_expr fin (fun e ->
      match unlock_site e with Some m -> out := m :: !out | None -> ());
  List.rev !out

(* [with_lock t f] / [with_stripe s f]-style helpers, by name: their
   closure arguments run under the helper's lock. *)
let rec is_with_helper = function
  | [ name ] -> String.length name > 5 && String.sub name 0 5 = "with_"
  | _ :: rest -> is_with_helper rest
  | [] -> false

(* The closure body of [fun () -> e] / [fun x -> e] (peeling parameters). *)
let rec closure_body (e : expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> closure_body body
  | Pexp_newtype (_, body) -> closure_body body
  | _ -> e

(* Byte-offset containment: is [inner] located within [outer]? *)
let within ~(outer : Location.t) (inner : Location.t) =
  outer.loc_start.pos_cnum <= inner.loc_start.pos_cnum
  && inner.loc_end.pos_cnum <= outer.loc_end.pos_cnum
