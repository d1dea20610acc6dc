(* A committed findings baseline: CI fails only on *new* findings.  The
   matching key is (rule, file, line) — message text and witness paths may
   legitimately drift as the analysis sharpens, but a finding that moves
   to a different line has been edited and deserves a fresh look. *)

type key = string * string * int  (* rule id, file, line *)

let key_of (f : Lint_rule.finding) =
  (Lint_rule.to_string f.rule, f.file, f.line)

let schema_version = 1

open Bench_json

let to_json findings =
  Obj
    [ ("tool", String "flm-lint-baseline");
      ("schema_version", Int schema_version);
      ( "findings",
        List
          (List.map
             (fun (f : Lint_rule.finding) ->
               Obj
                 [ ("rule", String (Lint_rule.to_string f.rule));
                   ("file", String f.file); ("line", Int f.line) ])
             findings) ) ]

let write ~path findings = write_file ~path (to_json findings)

(* Unlike the cache, a baseline that fails to load is an error, not a cold
   start: silently ignoring it — or any one malformed entry in it — would
   resurface baselined findings and fail CI for the wrong reason. *)
let load path =
  let ( let* ) = Result.bind in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error detail -> Error detail
  | raw ->
    let* j = Result.map_error (Printf.sprintf "%s: %s" path) (parse raw) in
    let* o = Read.obj ~fail:(Printf.sprintf "%s: %s" path) j in
    let* v = Read.int o "schema_version" in
    if v <> schema_version then
      Read.fail o
        (Printf.sprintf "schema_version %d, expected %d" v schema_version)
    else
      let* items = Read.list o "findings" in
      Read.all
        (List.mapi
           (fun i item ->
             let* e =
               Read.obj ~fail:(Printf.sprintf "%s: findings[%d]: %s" path i) item
             in
             let* rule = Read.string e "rule" in
             let* file = Read.string e "file" in
             let* line = Read.int e "line" in
             Ok ((rule, file, line) : key))
           items)

let filter ~baseline findings =
  let kept, matched =
    List.partition (fun f -> not (List.mem (key_of f) baseline)) findings
  in
  kept, List.length matched
