(* Whole-repo call-graph extraction.  Every library is `(wrapped false)`,
   so module names are global and derived from filenames — which makes a
   purely syntactic, module-qualified resolution honest: [Pool.submit]
   means exactly one definition repo-wide if it means anything.  Anything
   we cannot resolve (stdlib, first-class functions, functor bodies,
   module aliases) is bottom — assumed effect-free and lock-free.  That is
   a soundness trade, not an accident: the deep pass exists to catch the
   common escape (a named helper chain), and DESIGN.md §17 records the
   blind spots. *)

open Parsetree

(* --- per-file summaries ------------------------------------------------------ *)

type holder = Hmutex of string | Hcall of string
type inner_op = Ilock of string | Icall of string

(* One observed "held X, then acquired/called Y" fact, with both sites. *)
type event = { outer : holder; oline : int; inner : inner_op; iline : int }

type def = {
  name : string;  (* short name *)
  ctx : string;  (* enclosing module path: "Pool" or "Pool.Sub" *)
  line : int;
  col : int;
  refs : (string * int) list;  (* candidate callees with reference line *)
  intrinsics : Lint_effects.intrinsic list;
  locks : (string * int) list;  (* direct Mutex.lock sites *)
  events : event list;
}

type summary = { path : string; modname : string; defs : def list }

let fqn (d : def) = d.ctx ^ "." ^ d.name

(* --- reference filtering ----------------------------------------------------- *)

(* Modules whose members are external by construction: the stdlib, the
   compiler front end, and the vendored dev/bench dependencies.  A
   qualified reference whose head is here can never be a repo definition
   (wrapped-false module names are filenames, and these are not), so
   dropping them keeps summaries small; their effectful members are
   classified separately by {!Lint_effects.intrinsic_of_path}. *)
let external_module = function
  | "Stdlib" | "List" | "ListLabels" | "Array" | "ArrayLabels" | "String"
  | "StringLabels" | "Bytes" | "BytesLabels" | "Char" | "Uchar" | "Int"
  | "Int32" | "Int64" | "Nativeint" | "Float" | "Bool" | "Unit" | "Option"
  | "Result" | "Either" | "Seq" | "Map" | "Set" | "Hashtbl" | "Queue"
  | "Stack" | "Buffer" | "Printf" | "Format" | "Scanf" | "Lexing" | "Parsing"
  | "Filename" | "Sys" | "Unix" | "Random" | "Domain" | "Atomic" | "Mutex"
  | "Condition" | "Thread" | "Effect" | "Fun" | "Lazy" | "Gc" | "Obj"
  | "Marshal" | "Digest" | "Printexc" | "Callback" | "Weak" | "Ephemeron"
  | "Arg" | "In_channel" | "Out_channel" | "Bigarray" | "Complex" | "Fmt"
  | "Alcotest" | "QCheck" | "QCheck_alcotest" | "Bechamel" | "Cmdliner"
  | "Parse" | "Location" | "Longident" | "Parsetree" | "Ast_iterator"
  | "Ast_helper" | "Asttypes" | "Pprintast" ->
    true
  | _ -> false

let lower c = c = '_' || (c >= 'a' && c <= 'z')
let upper c = c >= 'A' && c <= 'Z'

let ref_of_path parts =
  match parts with
  | [ x ] when String.length x > 0 && lower x.[0] -> Some x
  | head :: _ :: _
    when String.length head > 0
         && upper head.[0]
         && not (external_module head) ->
    Some (String.concat "." parts)
  | _ -> None

(* --- body facts ---------------------------------------------------------- *)

let line_of (e : expression) = e.pexp_loc.Location.loc_start.Lexing.pos_lnum

let col_of (e : expression) =
  e.pexp_loc.Location.loc_start.Lexing.pos_cnum
  - e.pexp_loc.Location.loc_start.Lexing.pos_bol

(* What the file walk gathers inside one structure-level binding's body,
   newest first.  The walk is pre-order and the first site of each fact
   wins, so the reversed lists are in source order. *)
type facts = {
  mutable refs : (string * int) list;
  mutable intrinsics : Lint_effects.intrinsic list;
  mutable locks : (string * int) list;
  mutable events : event list;
}

let facts () = { refs = []; intrinsics = []; locks = []; events = [] }

let rec mem_key k = function
  | [] -> false
  | (k', _) :: rest -> String.equal k k' || mem_key k rest

(* An identifier in the body.  Candidate callees are references, not just
   application heads — a function passed as a value ([List.map step
   views]) still pulls its effects into the closure that takes it. *)
let ident f (e : expression) path =
  (match ref_of_path path with
  | Some r when not (mem_key r f.refs) -> f.refs <- (r, line_of e) :: f.refs
  | _ -> ());
  match Lint_effects.intrinsic_of_path path with
  | Some (eff, what)
    when not
           (List.exists
              (fun (i : Lint_effects.intrinsic) ->
                i.eff = eff && String.equal i.what what)
              f.intrinsics) ->
    f.intrinsics <-
      { Lint_effects.eff; what; iline = line_of e; icol = col_of e }
      :: f.intrinsics
  | _ -> ()

let add_event f ev =
  if not (List.mem ev f.events) then f.events <- ev :: f.events

(* Lock-order events: for each critical region in the body — a lexical
   lock→unlock span, a [Fun.protect] body whose finally unlocks, or a
   [with_*] helper's closure argument — record every *application head*
   and every further lock inside it.  Application heads only (not bare
   references): a false "acquired while held" edge is expensive, and a
   function value that is merely captured under the lock is called
   elsewhere, outside the region. *)
let ops f holder oline region =
  Lint_ast.iter_expr region (fun x ->
      match Lint_ast.lock_site x with
      | Some m -> (
        match holder with
        | Hmutex m0 when m0 = m -> ()
        | _ ->
          add_event f
            { outer = holder; oline; inner = Ilock m; iline = line_of x })
      | None -> (
        match x.pexp_desc with
        | Pexp_apply _ -> (
          match Lint_ast.head_call x with
          | Some (parts, _) -> (
            match ref_of_path parts with
            | Some r -> (
              match holder with
              | Hcall r0 when r0 = r -> ()
              | _ ->
                add_event f
                  { outer = holder; oline; inner = Icall r; iline = line_of x })
            | None -> ())
          | None -> ())
        | _ -> ()))

(* The continuation span of a statement-style lock: sequence elements up
   to the matching unlock. *)
let rec span f holder oline m (e : expression) =
  if Lint_ast.unlock_site e = Some m then ()
  else
    match e.pexp_desc with
    | Pexp_sequence (x, rest) ->
      if Lint_ast.unlock_site x = Some m then ()
      else begin
        ops f holder oline x;
        span f holder oline m rest
      end
    | _ -> ops f holder oline e

(* Any node of the body ([call]: its peeled application, if it is one):
   direct lock sites, and the events of the region it opens. *)
let node f (e : expression) ~call =
  match e.pexp_desc, call with
  | Pexp_sequence (a, rest), _ -> (
    match Lint_ast.lock_site a with
    | Some m -> span f (Hmutex m) (line_of a) m rest
    | None -> ())
  | Pexp_let (Nonrecursive, [ vb ], cont), _ -> (
    match Lint_ast.lock_site vb.pvb_expr with
    | Some m -> span f (Hmutex m) (line_of vb.pvb_expr) m cont
    | None -> ())
  | _, Some ((parts, args) as c) -> (
    (match Lint_ast.lock_of c with
    | Some m when not (mem_key m f.locks) ->
      f.locks <- (m, line_of e) :: f.locks
    | _ -> ());
    match Lint_ast.protect_of c with
    | Some (fin, Some b) ->
      List.iter
        (fun m -> ops f (Hmutex m) (line_of e) (Lint_ast.closure_body b))
        (Lint_ast.unlocks_in fin)
    | _ -> (
      match ref_of_path parts with
      | Some r when Lint_ast.is_with_helper parts ->
        List.iter
          (fun (_, (arg : expression)) ->
            match arg.pexp_desc with
            | Pexp_fun _ ->
              ops f (Hcall r) (line_of e) (Lint_ast.closure_body arg)
            | _ -> ())
          args
      | _ -> ()))
  | _ -> ()

(* --- structure-level bindings -------------------------------------------- *)

let pat_vars p =
  let rec go acc (p : pattern) =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> (txt, p.ppat_loc) :: acc
    | Ppat_constraint (q, _) -> go acc q
    | Ppat_tuple ps -> List.fold_left go acc ps
    | Ppat_alias (q, { txt; _ }) -> go ((txt, p.ppat_loc) :: acc) q
    | _ -> acc
  in
  List.rev (go [] p)

let rec is_function (e : expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, b) | Pexp_constraint (b, _) -> is_function b
  | _ -> false

let rec strip_constraint (e : expression) =
  match e.pexp_desc with
  | Pexp_constraint (b, _) -> strip_constraint b
  | _ -> e

let modname_of path =
  String.capitalize_ascii Filename.(remove_extension (basename path))

let defs_of_binding ~ctx (vb : value_binding) f =
  let body = vb.pvb_expr in
  let refs = List.rev f.refs
  and intr = List.rev f.intrinsics
  and locks = List.rev f.locks
  and events = List.rev f.events in
  let mutable_top =
    (not (is_function body))
    &&
    match Lint_ast.head_call (strip_constraint body) with
    | Some (parts, _) -> Lint_locality.mutable_alloc parts <> None
    | None -> false
  in
  List.map
    (fun (name, (loc : Location.t)) ->
      let line = loc.loc_start.pos_lnum in
      let col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol in
      let intrinsics =
        if mutable_top then
          { Lint_effects.eff = Mutates;
            what = Printf.sprintf "mutable %s.%s" ctx name;
            iline = line;
            icol = col }
          :: intr
        else intr
      in
      { name; ctx; line; col; refs; intrinsics; locks; events })
    (pat_vars vb.pvb_pat)

(* --- the graph --------------------------------------------------------------- *)

type graph = {
  files : summary array;  (* sorted by path *)
  owner : int array;  (* definition -> file index *)
  defs : def array;  (* files in order, definitions in source order *)
  adj : int list array;  (* resolved candidate callees *)
  sccs : int list list;  (* callees-first *)
  resolve : ctx:string -> string -> int option;
}

(* Tarjan, emitting components in reverse topological order of the
   condensation: every SCC is emitted after the SCCs it calls into —
   exactly the order the effect fixpoint consumes. *)
let sccs_of n adj =
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let onstack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strong v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    onstack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if onstack.(w) then low.(v) <- min low.(v) index.(w))
      (adj v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          onstack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      out := pop [] :: !out
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strong v
  done;
  List.rev !out

(* Resolution: a qualified reference is tried under each enclosing module
   prefix (innermost first — nested modules shadow), then bare (the
   wrapped-false global namespace).  An unqualified reference only
   resolves within its own module chain.  Later definitions of the same
   name shadow earlier ones, as in the language. *)
let resolver index ctx r =
  let rec prefixes acc c =
    match String.rindex_opt c '.' with
    | Some j -> prefixes (c :: acc) (String.sub c 0 j)
    | None -> List.rev (c :: acc)
  in
  let chain = prefixes [] ctx in
  let try_ key = Hashtbl.find_opt index key in
  let rec go = function
    | [] -> if String.contains r '.' then try_ r else None
    | p :: rest -> (
      match try_ (p ^ "." ^ r) with Some d -> Some d | None -> go rest)
  in
  go chain

let build summaries =
  let files =
    Array.of_list
      (List.sort (fun a b -> String.compare a.path b.path) summaries)
  in
  let owner = ref [] in
  let defs = ref [] in
  Array.iteri
    (fun fi (s : summary) ->
      List.iter
        (fun d ->
          owner := fi :: !owner;
          defs := d :: !defs)
        s.defs)
    files;
  let owner = Array.of_list (List.rev !owner) in
  let defs = Array.of_list (List.rev !defs) in
  let n = Array.length defs in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i d -> Hashtbl.replace index (fqn d) i) defs;
  let adj =
    Array.map
      (fun d ->
        List.filter_map (fun (r, _) -> resolver index d.ctx r) d.refs
        |> List.sort_uniq Int.compare)
      defs
  in
  let sccs = sccs_of n (fun v -> adj.(v)) in
  let resolve ~ctx r = resolver index ctx r in
  { files; owner; defs; adj; sccs; resolve }
