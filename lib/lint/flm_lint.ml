(* The driver: parse one file with the compiler's own front end
   (compiler-libs), run the rule families the scoping table puts in force
   for its directory, then subtract inline suppressions.  One parse and
   one walk per file serve both tiers: Lint_walk runs the shallow rules
   and summarizes the same tree for the deep (interprocedural) pass, whose
   summaries are content-addressed and cached so a warm deep run never
   parses an unchanged file. *)

let parse ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  Parse.implementation lexbuf

(* Everything a single parse yields: the shallow verdict and the deep
   summary, in the exact shape the cache stores. *)
let process ~path source : Lint_cache.entry =
  let digest = Lint_cache.digest source in
  let supps, supp_errors = Lint_suppress.scan ~file:path source in
  match parse ~path source with
  | exception _ ->
    { digest;
      summary =
        { Lint_callgraph.path;
          modname = Lint_callgraph.modname_of path;
          defs = [] };
      shallow =
        [ Lint_rule.finding ~rule:Lint_rule.Lint_parse ~file:path ~line:1
            ~col:0 "file does not parse as an OCaml implementation" ];
      supp_count = 0;
      supps = [] }
  | str ->
    let raw, summary =
      Lint_walk.file ~path ~active:(Lint_scope.rules_for path) str
    in
    let active_findings, suppressed =
      List.partition
        (fun (f : Lint_rule.finding) ->
          not (Lint_suppress.covers supps f.rule ~line:f.line))
        raw
    in
    { digest;
      summary;
      shallow =
        List.sort Lint_rule.compare_finding (supp_errors @ active_findings);
      supp_count = List.length suppressed;
      supps }

let summarize = process

let check_source ~path source =
  let e = process ~path source in
  e.Lint_cache.shallow, e.Lint_cache.supp_count

(* --- filesystem walk -------------------------------------------------------- *)

let skip_dir name =
  name = "_build" || name = "_opam"
  || (String.length name > 0 && name.[0] = '.')

let rec ml_files path =
  match (Unix.stat path).Unix.st_kind with
  | Unix.S_DIR ->
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun name ->
           if skip_dir name then []
           else ml_files (Filename.concat path name))
  | Unix.S_REG when Filename.check_suffix path ".ml" -> [ path ]
  | _ -> []
  | exception Unix.Unix_error _ -> []

let check_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | source -> check_source ~path source
  | exception Sys_error detail ->
    ( [ Lint_rule.finding ~rule:Lint_rule.Lint_parse ~file:path ~line:1 ~col:0
          ("unreadable: " ^ detail) ],
      0 )

let run ~paths =
  let files = List.concat_map ml_files paths in
  let findings, suppressed =
    List.fold_left
      (fun (fs, n) path ->
        let f, k = check_file path in
        fs @ f, n + k)
      ([], 0) files
  in
  Lint_report.make ~findings ~suppressed ~files:(List.length files) ()

(* --- the deep pass ----------------------------------------------------------- *)

type deep_stats = { hits : int; misses : int }

(* The global half: build one call graph over every summary, run the
   transitive-effect re-check and the lock-order cycle check, and fold the
   per-file shallow results in. *)
let deep_of_entries (entries : Lint_cache.entry list) =
  let g =
    Lint_callgraph.build
      (List.map (fun e -> e.Lint_cache.summary) entries)
  in
  let supp_tbl = Hashtbl.create 64 in
  List.iter
    (fun (e : Lint_cache.entry) ->
      Hashtbl.replace supp_tbl e.summary.Lint_callgraph.path e.supps)
    entries;
  let supps file =
    Option.value ~default:[] (Hashtbl.find_opt supp_tbl file)
  in
  let n = Array.length g.Lint_callgraph.defs in
  let site d =
    let def = g.Lint_callgraph.defs.(d) in
    { Lint_effects.dfile =
        g.Lint_callgraph.files.(g.Lint_callgraph.owner.(d))
          .Lint_callgraph.path;
      dname = Lint_callgraph.fqn def;
      dline = def.Lint_callgraph.line;
      dcol = def.Lint_callgraph.col }
  in
  let eff_findings, eff_sup =
    Lint_effects.check ~n ~site
      ~adj:(fun d -> g.Lint_callgraph.adj.(d))
      ~sccs:g.Lint_callgraph.sccs
      ~intrinsics:(fun d -> g.Lint_callgraph.defs.(d).Lint_callgraph.intrinsics)
      ~supps
  in
  let lock_findings, lock_sup = Lint_lockorder.check g ~supps in
  let shallow = List.concat_map (fun e -> e.Lint_cache.shallow) entries in
  let suppressed =
    List.fold_left (fun n e -> n + e.Lint_cache.supp_count) 0 entries
    + eff_sup + lock_sup
  in
  Lint_report.make
    ~findings:(shallow @ eff_findings @ lock_findings)
    ~suppressed ~files:(List.length entries) ()

let check_sources_deep ~sources =
  deep_of_entries
    (List.map (fun (path, source) -> process ~path source) sources)

let unreadable_entry path detail : Lint_cache.entry =
  { digest = "";
    summary =
      { Lint_callgraph.path;
        modname = Lint_callgraph.modname_of path;
        defs = [] };
    shallow =
      [ Lint_rule.finding ~rule:Lint_rule.Lint_parse ~file:path ~line:1 ~col:0
          ("unreadable: " ^ detail) ];
    supp_count = 0;
    supps = [] }

let run_deep ?(use_cache = true) ?cache_dir ?baseline ?write_baseline ~paths
    () =
  let dir =
    match cache_dir with Some d -> d | None -> Lint_cache.default_dir ()
  in
  let cached = if use_cache then Lint_cache.load ~dir else Hashtbl.create 0 in
  let files = List.concat_map ml_files paths in
  let hits = ref 0 in
  let misses = ref 0 in
  let entries =
    List.map
      (fun path ->
        match In_channel.with_open_bin path In_channel.input_all with
        | exception Sys_error detail ->
          incr misses;
          unreadable_entry path detail
        | source -> (
          let dg = Lint_cache.digest source in
          match Hashtbl.find_opt cached path with
          | Some (e : Lint_cache.entry) when e.digest = dg ->
            incr hits;
            e
          | _ ->
            incr misses;
            process ~path source))
      files
  in
  (* A fully warm run with no dropped files would rewrite the identical
     cache; skipping the save keeps the warm path read-only. *)
  let unchanged = !misses = 0 && Hashtbl.length cached = List.length entries in
  if use_cache && not unchanged then Lint_cache.save ~dir entries;
  let report = deep_of_entries entries in
  let stats = { hits = !hits; misses = !misses } in
  match write_baseline, baseline with
  | Some path, _ ->
    (* Record the current findings and hold them all back: the written
       baseline is by construction the one that makes this run clean. *)
    Lint_baseline.write ~path report.Lint_report.findings;
    Ok
      ( { report with
          Lint_report.findings = [];
          baselined = List.length report.Lint_report.findings },
        stats )
  | None, Some path -> (
    match Lint_baseline.load path with
    | Error e -> Error e
    | Ok keys ->
      let kept, baselined =
        Lint_baseline.filter ~baseline:keys report.Lint_report.findings
      in
      Ok ({ report with Lint_report.findings = kept; baselined }, stats))
  | None, None -> Ok (report, stats)
