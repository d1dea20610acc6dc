open Parsetree

(* The Locality axiom, enforced syntactically: a protocol/device step may
   depend only on its explicit inputs.  Any reference to an ambient
   information source — the global PRNG, wall-clock time, the environment,
   shared-memory primitives, the representation hash — breaks that, and
   with it the soundness of Exec_cache memoization and byte-identical
   Store resume. *)

let banned_ident path =
  match path with
  | "Random" :: _ ->
    Some
      ( Lint_rule.Locality_random,
        "Random.* is ambient nondeterminism; draw from a Fault_prng stream \
         derived from explicit inputs instead" )
  | "Unix" :: _ ->
    Some
      ( Lint_rule.Locality_time,
        "Unix.* reads ambient time/OS state a step function must not see" )
  | [ "Sys"; ("time" | "getenv" | "getenv_opt" | "argv" | "unsafe_getenv") ] ->
    Some
      ( Lint_rule.Locality_time,
        "Sys reads ambient time/environment a step function must not see" )
  | ("Domain" | "Atomic" | "Mutex" | "Condition" | "Thread" | "Effect") :: _ ->
    Some
      ( Lint_rule.Locality_domain,
        "shared-memory primitives have no place in model-layer code" )
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param" | "seeded_hash_param") ]
    ->
    Some
      ( Lint_rule.Locality_hash,
        "Hashtbl.hash is a representation hash, not part of the model" )
  | _ -> None

(* Allocators whose result is mutable: binding one at structure level is
   shared mutable module state. *)
let mutable_alloc path =
  match path with
  | [ "ref" ]
  | [ "Array"; ("make" | "create_float" | "init" | "copy") ]
  | [ "Bytes"; ("make" | "create" | "of_string" | "init") ]
  | [ "Hashtbl"; "create" ]
  | [ "Queue"; "create" ]
  | [ "Stack"; "create" ]
  | [ "Buffer"; "create" ]
  | [ "Atomic"; "make" ] ->
    Some (String.concat "." path)
  | _ -> None

(* One step of the structure-level mutable-state scan, at [e] (its ident
   [path] or peeled [call]): report a mutable allocator, and return the
   sub-expressions the scan continues into.  The scan starts at each
   structure-level binding's body and never enters a function body —
   state allocated per call is local, not shared. *)
let scan_step ~report (e : expression) ~path ~call =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ | Pexp_lazy _ -> []
  | desc ->
    let head = match call with Some (p, _) -> p | None -> path in
    (match mutable_alloc head with
    | Some what ->
      report Lint_rule.Locality_mutable_state e.pexp_loc
        (Printf.sprintf
           "%s at structure level is shared mutable state; Locality requires \
            step functions to own no state between calls"
           what)
    | None -> ());
    (* Value-shaped sub-expressions only.  The head of an application was
       already judged through [call] — descending into it would report the
       same allocator twice. *)
    (match desc with
    | Pexp_apply (_, args) -> List.map snd args
    | Pexp_tuple es | Pexp_array es -> es
    | Pexp_record (fields, base) -> List.map snd fields @ Option.to_list base
    | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> Option.to_list arg
    | Pexp_let (_, vbs, body) -> List.map (fun vb -> vb.pvb_expr) vbs @ [ body ]
    | Pexp_sequence (a, b) -> [ a; b ]
    | Pexp_constraint (x, _) | Pexp_coerce (x, _, _) | Pexp_open (_, x) -> [ x ]
    | Pexp_ifthenelse (c, t, e') -> c :: t :: Option.to_list e'
    | _ -> [])
