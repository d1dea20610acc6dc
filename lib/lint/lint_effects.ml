(* The effect taxonomy and the interprocedural fixpoint.  The Locality
   axiom is a statement about whole executions, not single frames: a
   protocol step that calls a helper that calls [Random.int] is exactly as
   nondeterministic as one that draws directly.  This module classifies
   the primitive effect sources, folds them over the call graph one SCC at
   a time (callees first, iterating each cycle to a fixpoint), and
   re-checks the scope table against the *transitive* summaries, attaching
   the witness path — every hop from the flagged definition down to the
   primitive — to each finding. *)

type effect_ = Rand | Time | SharedMem | IO | Mutates

let effect_to_string = function
  | Rand -> "rand"
  | Time -> "time"
  | SharedMem -> "shared-mem"
  | IO -> "io"
  | Mutates -> "mutates"

let effect_of_string = function
  | "rand" -> Some Rand
  | "time" -> Some Time
  | "shared-mem" -> Some SharedMem
  | "io" -> Some IO
  | "mutates" -> Some Mutates
  | _ -> None

let deep_rule = function
  | Rand -> Lint_rule.Deep_random
  | Time -> Lint_rule.Deep_time
  | SharedMem -> Lint_rule.Deep_domain
  | IO -> Lint_rule.Deep_io
  | Mutates -> Lint_rule.Deep_state

(* The shallow rule that governs this effect at its origin site.  I/O has
   no shallow reporter of its own; it shares [locality/time]'s scope (both
   are ambient-world reads) for allow-list purposes only. *)
let analog = function
  | Rand -> Lint_rule.Locality_random
  | Time -> Lint_rule.Locality_time
  | SharedMem -> Lint_rule.Locality_domain
  | IO -> Lint_rule.Locality_time
  | Mutates -> Lint_rule.Locality_mutable_state

let shallow_reports = function IO -> false | _ -> true

type intrinsic = { eff : effect_; what : string; iline : int; icol : int }

(* --- primitive classification ---------------------------------------------- *)

(* One [match] on string literals: an identifier costs a few string
   compares, and the printed name is built only on a hit. *)
let intrinsic_of_path parts =
  let parts = match parts with "Stdlib" :: (_ :: _ as rest) -> rest | p -> p in
  let eff =
    match parts with
    | "Random" :: _ :: _ -> Some Rand
    | "Unix" :: _ :: _
    | [ "Sys"; ("time" | "getenv" | "getenv_opt" | "unsafe_getenv" | "argv") ]
      ->
      Some Time
    | ("Domain" | "Atomic" | "Mutex" | "Condition" | "Thread" | "Effect")
      :: _ :: _ ->
      Some SharedMem
    | [ "Sys";
        ( "command" | "remove" | "rename" | "mkdir" | "rmdir" | "readdir"
        | "chdir" | "getcwd" | "file_exists" | "is_directory" ) ]
    | [ "Filename"; ("temp_file" | "open_temp_file") ]
    | ("In_channel" | "Out_channel") :: _ :: _
    | [ "Printf"; ("printf" | "eprintf") ]
    | [ "Format";
        ( "printf" | "eprintf" | "print_string" | "print_newline"
        | "print_flush" | "std_formatter" | "err_formatter" ) ]
    | [ ( "print_char" | "print_string" | "print_bytes" | "print_int"
        | "print_float" | "print_endline" | "print_newline" | "prerr_char"
        | "prerr_string" | "prerr_bytes" | "prerr_int" | "prerr_float"
        | "prerr_endline" | "prerr_newline" | "read_line" | "read_int"
        | "read_int_opt" | "read_float" | "read_float_opt" | "open_in"
        | "open_in_bin" | "open_in_gen" | "open_out" | "open_out_bin"
        | "open_out_gen" | "stdin" | "stdout" | "stderr" ) ] ->
      Some IO
    | _ -> None
  in
  match eff with Some eff -> Some (eff, String.concat "." parts) | None -> None

(* --- the fixpoint ----------------------------------------------------------- *)

(* Where a definition's effect came from: its own primitive reference, or
   one of its callees.  One origin per (definition, effect) — enough to
   reconstruct a witness path, cheap enough to keep for every node. *)
type origin = Site of intrinsic | Via of int

type summary = (effect_ * origin) list

let infer ~n ~adj ~sccs ~intrinsics =
  let summ : summary array = Array.make n [] in
  let add d eff origin =
    if List.mem_assoc eff summ.(d) then false
    else begin
      summ.(d) <- summ.(d) @ [ (eff, origin) ];
      true
    end
  in
  (* SCCs arrive callees-first, so every out-of-component callee summary is
     final; within a component, iterate to a fixpoint (monotone over at
     most five effects per node, so this converges in a handful of
     rounds). *)
  List.iter
    (fun scc ->
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun d ->
            List.iter
              (fun i -> if add d i.eff (Site i) then changed := true)
              (intrinsics d);
            List.iter
              (fun c ->
                List.iter
                  (fun (e, _) -> if add d e (Via c) then changed := true)
                  summ.(c))
              (adj d))
          scc
      done)
    sccs;
  summ

let terminal_frame ~file d (i : intrinsic) =
  Printf.sprintf "%s (%s:%d)" i.what (file d) i.iline

let witness ~name ~file (summ : summary array) d eff =
  let rec go d seen acc =
    match List.assoc_opt eff summ.(d) with
    | None -> List.rev acc
    | Some (Site i) -> List.rev (terminal_frame ~file d i :: acc)
    | Some (Via c) ->
      if List.mem c seen then List.rev acc
      else go c (c :: seen) (name c :: acc)
  in
  go d [ d ] [ name d ]

(* --- the transitive Locality re-check --------------------------------------- *)

type def_site = { dfile : string; dname : string; dline : int; dcol : int }

(* An intrinsic is blocked at its origin — it never propagates — when the
   origin is already governed there: the shallow analog is active in that
   file (the origin itself gets the shallow finding, and repeating it at
   every transitive caller is noise), an inline suppression covers the
   site (for the analog or the deep rule), or the origin's directory
   allow-lists the analog. *)
let blocked ~site ~supps d (i : intrinsic) =
  let { dfile; _ } = site d in
  let a = analog i.eff in
  (shallow_reports i.eff && List.mem a (Lint_scope.rules_for dfile))
  || Lint_suppress.covers (supps dfile) a ~line:i.iline
  || Lint_suppress.covers (supps dfile) (deep_rule i.eff) ~line:i.iline
  ||
  match Lint_scope.dir_of dfile with
  | Some dir -> Lint_scope.allow_reason ~dir a <> None
  | None -> false

let check ~n ~site ~adj ~sccs ~intrinsics ~supps =
  let kept d =
    List.filter (fun i -> not (blocked ~site ~supps d i)) (intrinsics d)
  in
  let summ = infer ~n ~adj ~sccs ~intrinsics:kept in
  let name d = (site d).dname in
  let file d = (site d).dfile in
  let findings = ref [] in
  let suppressed = ref 0 in
  let seen = Hashtbl.create 64 in
  for d = 0 to n - 1 do
    let { dfile; dname; dline; dcol } = site d in
    let active = Lint_scope.deep_rules_for dfile in
    List.iter
      (fun (eff, _) ->
        let rule = deep_rule eff in
        if List.mem rule active then
          if Lint_suppress.covers (supps dfile) rule ~line:dline then
            incr suppressed
          else begin
            let w = witness ~name ~file summ d eff in
            let term = List.nth w (List.length w - 1) in
            (* One finding per (file, rule, primitive): the lowest
               definition is the report site; its witness names the rest of
               the chain.  [site] iterates files sorted and definitions in
               line order, so "first seen" is "lowest line". *)
            let key = (dfile, Lint_rule.to_string rule, term) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              findings :=
                Lint_rule.finding ~witness:w ~rule ~file:dfile ~line:dline
                  ~col:dcol
                  (Printf.sprintf "%s transitively reaches %s" dname term)
                :: !findings
            end
          end)
      summ.(d)
  done;
  List.rev !findings, !suppressed
