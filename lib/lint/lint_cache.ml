(* The deep pass parses every source in the repo, and almost none of them
   change between runs — so summaries are content-addressed: one JSON file
   keyed by (path, MD5 of the source), holding everything the global
   passes need (shallow findings, suppressions, definitions with their
   candidate callees, intrinsics, and lock events).  A warm run reads
   sources, hashes them, and skips the compiler front end entirely for
   every hit; only the cheap global fixpoints rerun.  The cache is pure
   optimization: any read problem, schema drift, or digest mismatch just
   means cold. *)

type entry = {
  digest : string;
  summary : Lint_callgraph.summary;
  shallow : Lint_rule.finding list;
  supp_count : int;
  supps : Lint_suppress.t list;
}

let schema_version = 1

let digest source = Digest.to_hex (Digest.string source)

(* Build products belong next to build products; fall back to a dot-dir
   when the repo has never been built. *)
let default_dir () =
  if Sys.file_exists "_build" && Sys.is_directory "_build" then
    Filename.concat "_build" "flm-lint-cache"
  else ".flm-lint-cache"

let cache_file dir = Filename.concat dir "summaries.json"

(* --- encoding ---------------------------------------------------------------- *)

open Bench_json

let finding_to_json (f : Lint_rule.finding) =
  Obj
    [ ("rule", String (Lint_rule.to_string f.rule)); ("file", String f.file);
      ("line", Int f.line); ("col", Int f.col);
      ("message", String f.message);
      ("witness", List (List.map (fun w -> String w) f.witness)) ]

let supp_to_json s =
  let first, last = Lint_suppress.lines s in
  Obj
    [ ("rule", String (Lint_rule.to_string (Lint_suppress.rule s)));
      ("first", Int first); ("last", Int last);
      ("reason", String (Lint_suppress.reason s)) ]

let intrinsic_to_json (i : Lint_effects.intrinsic) =
  Obj
    [ ("eff", String (Lint_effects.effect_to_string i.eff));
      ("what", String i.what); ("line", Int i.iline); ("col", Int i.icol) ]

let event_to_json (ev : Lint_callgraph.event) =
  let okind, o =
    match ev.outer with
    | Lint_callgraph.Hmutex m -> "mutex", m
    | Hcall r -> "call", r
  in
  let ikind, i =
    match ev.inner with
    | Lint_callgraph.Ilock m -> "lock", m
    | Icall r -> "call", r
  in
  Obj
    [ ("ok", String okind); ("o", String o); ("oline", Int ev.oline);
      ("ik", String ikind); ("i", String i); ("iline", Int ev.iline) ]

let def_to_json (d : Lint_callgraph.def) =
  Obj
    [ ("name", String d.name); ("ctx", String d.ctx); ("line", Int d.line);
      ("col", Int d.col);
      ("refs", List (List.map (fun (r, l) -> List [ String r; Int l ]) d.refs));
      ("intrinsics", List (List.map intrinsic_to_json d.intrinsics));
      ( "locks",
        List (List.map (fun (m, l) -> List [ String m; Int l ]) d.locks) );
      ("events", List (List.map event_to_json d.events)) ]

let entry_to_json (e : entry) =
  Obj
    [ ("path", String e.summary.path); ("digest", String e.digest);
      ("modname", String e.summary.modname);
      ("shallow", List (List.map finding_to_json e.shallow));
      ("suppressed", Int e.supp_count);
      ("supps", List (List.map supp_to_json e.supps));
      ("defs", List (List.map def_to_json e.summary.defs)) ]

(* --- decoding ---------------------------------------------------------------- *)

(* Decoding is as strict about types as every other reader, but lenient
   about extra fields; a failure only drops the entry (a miss). *)

let ( let* ) = Result.bind

let open_obj = Read.obj ~fail:Fun.id

let finding_of_json j =
  let* o = open_obj j in
  let* rule = Read.enum o "rule" Lint_rule.of_string in
  let* file = Read.string o "file" in
  let* line = Read.int o "line" in
  let* col = Read.int o "col" in
  let* message = Read.string o "message" in
  let* witness = Read.strings o "witness" in
  Ok (Lint_rule.finding ~witness ~rule ~file ~line ~col message)

let supp_of_json j =
  let* o = open_obj j in
  let* rule = Read.enum o "rule" Lint_rule.of_string in
  let* first = Read.int o "first" in
  let* last = Read.int o "last" in
  let* reason = Read.string o "reason" in
  Ok (Lint_suppress.make ~rule ~first ~last ~reason)

let intrinsic_of_json j =
  let* o = open_obj j in
  let* eff = Read.enum o "eff" Lint_effects.effect_of_string in
  let* what = Read.string o "what" in
  let* iline = Read.int o "line" in
  let* icol = Read.int o "col" in
  Ok { Lint_effects.eff; what; iline; icol }

let pair_of_json = function
  | List [ String s; Int l ] -> Ok (s, l)
  | _ -> Error "expected a [string, int] pair"

let event_of_json j =
  let* o = open_obj j in
  let* ok = Read.string o "ok" in
  let* outer = Read.string o "o" in
  let* oline = Read.int o "oline" in
  let* ik = Read.string o "ik" in
  let* inner = Read.string o "i" in
  let* iline = Read.int o "iline" in
  let* outer =
    match ok with
    | "mutex" -> Ok (Lint_callgraph.Hmutex outer)
    | "call" -> Ok (Lint_callgraph.Hcall outer)
    | _ -> Read.fail o "field \"ok\": unknown kind"
  in
  let* inner =
    match ik with
    | "lock" -> Ok (Lint_callgraph.Ilock inner)
    | "call" -> Ok (Lint_callgraph.Icall inner)
    | _ -> Read.fail o "field \"ik\": unknown kind"
  in
  Ok { Lint_callgraph.outer; oline; inner; iline }

let def_of_json j =
  let* o = open_obj j in
  let* name = Read.string o "name" in
  let* ctx = Read.string o "ctx" in
  let* line = Read.int o "line" in
  let* col = Read.int o "col" in
  let* refs = Read.list o "refs" in
  let* refs = Read.all (List.map pair_of_json refs) in
  let* intrinsics = Read.list o "intrinsics" in
  let* intrinsics = Read.all (List.map intrinsic_of_json intrinsics) in
  let* locks = Read.list o "locks" in
  let* locks = Read.all (List.map pair_of_json locks) in
  let* events = Read.list o "events" in
  let* events = Read.all (List.map event_of_json events) in
  Ok { Lint_callgraph.name; ctx; line; col; refs; intrinsics; locks; events }

let entry_of_json j =
  let* o = open_obj j in
  let* path = Read.string o "path" in
  let* digest = Read.string o "digest" in
  let* modname = Read.string o "modname" in
  let* shallow = Read.list o "shallow" in
  let* shallow = Read.all (List.map finding_of_json shallow) in
  let* supp_count = Read.int o "suppressed" in
  let* supps = Read.list o "supps" in
  let* supps = Read.all (List.map supp_of_json supps) in
  let* defs = Read.list o "defs" in
  let* defs = Read.all (List.map def_of_json defs) in
  Ok
    { digest;
      summary = { Lint_callgraph.path; modname; defs };
      shallow;
      supp_count;
      supps }

(* --- load/save --------------------------------------------------------------- *)

let load ~dir =
  let table : (string, entry) Hashtbl.t = Hashtbl.create 64 in
  let entries =
    match In_channel.with_open_bin (cache_file dir) In_channel.input_all with
    | exception Sys_error detail -> Error detail
    | raw ->
      let* j = parse raw in
      let* o = open_obj j in
      let* v = Read.int o "schema_version" in
      if v <> schema_version then Read.fail o "stale schema"
      else Read.list o "entries"
  in
  List.iter
    (fun ej ->
      match entry_of_json ej with
      | Ok e -> Hashtbl.replace table e.summary.path e
      | Error _ -> ())
    (Result.value entries ~default:[]);
  table

let save ~dir entries =
  (* Best-effort and atomic: a torn write must never poison the next run. *)
  match
    (if not (Sys.file_exists dir) then Unix.mkdir dir 0o755);
    let j =
      Obj
        [ ("tool", String "flm-lint-cache");
          ("schema_version", Int schema_version);
          ("entries", List (List.map entry_to_json entries)) ]
    in
    let tmp =
      Filename.concat dir (Printf.sprintf "summaries.%d.tmp" (Unix.getpid ()))
    in
    write_file ~path:tmp j;
    Sys.rename tmp (cache_file dir)
  with
  | () -> ()
  | exception (Unix.Unix_error _ | Sys_error _) -> ()
