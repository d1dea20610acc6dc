(* lint_deep: one op is Flm_lint.check_sources_deep over the frozen,
   seed-generated corpus (Pb_corpus).  The correctness gate is that the
   findings are exactly the planted set. *)

(* Corpus load as a user pays it: the files are written under the run
   directory and read back from disk. *)
let load ~dir (corpus : Pb_corpus.t) =
  List.map
    (fun (path, src) ->
      let file = Filename.concat dir path in
      Pb_stats.mkdir_p (Filename.dirname file);
      Out_channel.with_open_bin file (fun oc -> output_string oc src);
      path, In_channel.with_open_bin file In_channel.input_all)
    corpus.Pb_corpus.sources

let ok_report (corpus : Pb_corpus.t) report =
  Pb_corpus.findings_of report = corpus.Pb_corpus.planted

let op (corpus : Pb_corpus.t) sources =
  let t0 = Pb_stats.now () in
  let report = Flm_lint.check_sources_deep ~sources in
  let dt = Pb_stats.now () -. t0 in
  dt, ok_report corpus report

(* The deep pass composed from its layers' public functions (the global
   half is a hand copy of Flm_lint.check_sources_deep's composition and
   must track it; the planted-set gate catches a copy that has drifted).  Lint_effects.check runs
   its [infer] fixpoint internally, so inference is folded into the
   effects span. *)
let traced_op sp (corpus : Pb_corpus.t) sources =
  let t0 = Pb_stats.now () in
  let entries =
    Pb_span.span sp "lint.summarize" (fun () ->
        List.map (fun (path, src) -> Flm_lint.summarize ~path src) sources)
  in
  let g =
    Pb_span.span sp "lint.callgraph" (fun () ->
        Lint_callgraph.build (List.map (fun e -> e.Lint_cache.summary) entries))
  in
  let supp_tbl = Hashtbl.create 64 in
  List.iter
    (fun (e : Lint_cache.entry) ->
      Hashtbl.replace supp_tbl e.summary.Lint_callgraph.path e.supps)
    entries;
  let supps file = Option.value ~default:[] (Hashtbl.find_opt supp_tbl file) in
  let site d =
    let def = g.Lint_callgraph.defs.(d) in
    { Lint_effects.dfile =
        g.Lint_callgraph.files.(g.Lint_callgraph.owner.(d)).Lint_callgraph.path;
      dname = Lint_callgraph.fqn def;
      dline = def.Lint_callgraph.line;
      dcol = def.Lint_callgraph.col }
  in
  let n = Array.length g.Lint_callgraph.defs in
  let eff, eff_sup =
    Pb_span.span sp "lint.effects" (fun () ->
        Lint_effects.check ~n ~site
          ~adj:(fun d -> g.Lint_callgraph.adj.(d))
          ~sccs:g.Lint_callgraph.sccs
          ~intrinsics:(fun d -> g.Lint_callgraph.defs.(d).Lint_callgraph.intrinsics)
          ~supps)
  in
  let locks, lock_sup =
    Pb_span.span sp "lint.lockorder" (fun () -> Lint_lockorder.check g ~supps)
  in
  let shallow = List.concat_map (fun e -> e.Lint_cache.shallow) entries in
  let suppressed =
    List.fold_left (fun k e -> k + e.Lint_cache.supp_count) 0 entries + eff_sup + lock_sup
  in
  let report =
    Lint_report.make ~findings:(shallow @ eff @ locks) ~suppressed
      ~files:(List.length entries) ()
  in
  let dt = Pb_stats.now () -. t0 in
  Pb_span.incr ~by:(List.length entries) sp "lint.files";
  Pb_span.incr ~by:n sp "lint.defs";
  Pb_span.incr ~by:(List.length report.Lint_report.findings) sp "lint.findings";
  dt, ok_report corpus report

(* Set-up: generate the corpus, write and re-read it, and run one
   untimed warm-up pass (gated like a timed op).  An untraced run sets up
   once before its window and again at each of [marks] marks through it
   (Pb_stats.marks); setup_s is the median. *)
let marks = 8

let run ~dir ~toy ~seed ~seconds ~trace =
  let reps = ref 0 in
  let setup () =
    let t0 = Pb_stats.now () in
    let corpus = Pb_corpus.generate ~toy ~seed in
    let copy = Filename.concat dir (Printf.sprintf "corpus%d" !reps) in
    incr reps;
    let sources = load ~dir:copy corpus in
    let _, ok = op corpus sources in
    let dt = Pb_stats.now () -. t0 in
    Pb_stats.rm_rf copy;
    (dt, ok), (corpus, sources)
  in
  let first, (corpus, sources) = setup () in
  Pb_stats.reset_peak_rss 0;
  let notes =
    [ "corpus",
      Printf.sprintf "%d files, %d bytes, planted: %s" (List.length sources)
        (List.fold_left (fun k (_, s) -> k + String.length s) 0 sources)
        (Pb_corpus.show corpus.Pb_corpus.planted) ]
  in
  let fails ops = List.length (List.filter (fun (_, ok) -> not ok) ops) in
  if not trace then begin
    let ops, more =
      Pb_stats.timed_loop ~seconds
        ~extra:(marks, fun () -> fst (setup ()))
        (fun () -> op corpus sources)
    in
    let setups = first :: more in
    let metrics, tail_note =
      Pb_result.end_to_end ~tail_q:0.9 ~setups:(List.map fst setups)
        ~op_seconds:(List.map fst ops) ~peak_rss_mb:(Pb_stats.peak_rss_mb 0)
    in
    { Pb_result.attempted = List.length ops;
      failed = fails ops + fails setups;
      metrics;
      notes = notes @ tail_note }
  end
  else begin
    (* The composition with spans off and on in turn, for the overhead
       ratio; every op, either way, is gated on the planted set. *)
    let sp = Pb_span.create () and off = Pb_span.create ~on:false () in
    let plain, traced =
      Pb_stats.alternate ~seconds
        (fun () -> traced_op off corpus sources)
        (fun () -> traced_op sp corpus sources)
    in
    let n_traced = List.length traced in
    let attempted = List.length plain + n_traced in
    let failed = fails plain + fails traced + fails [ first ] in
    let ms, _, count = Pb_result.per_op ~ops:n_traced sp in
    let wall = List.fold_left (fun k (dt, _) -> k +. dt) 0.0 traced in
    let values =
      [ "lint.summarize_ms", ms "lint.summarize";
        "lint.callgraph_ms", ms "lint.callgraph";
        "lint.effects_ms", ms "lint.effects";
        "lint.lockorder_ms", ms "lint.lockorder";
        "lint.files", count "lint.files";
        "lint.defs", count "lint.defs";
        "lint.findings", count "lint.findings";
        "unattributed_ms", 1000.0 *. (wall -. Pb_span.attributed sp) /. float_of_int n_traced;
        ( "trace.overhead_ratio",
          Pb_stats.median (List.map fst traced) /. Pb_stats.median (List.map fst plain) -. 1.0 );
        "fail_ratio", Pb_result.ratio (float_of_int failed) (float_of_int attempted) ]
    in
    { Pb_result.attempted;
      failed;
      metrics = Pb_result.layers values;
      notes =
        notes
        @ [ ( "ops",
              Printf.sprintf "%d composed with spans off, %d with spans on"
                (List.length plain) n_traced ) ] }
  end
