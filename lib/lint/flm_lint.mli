(** [flm_lint] — a compiler-libs static analyzer that enforces the
    Locality axiom and the engine's concurrency/hygiene invariants at
    build time.

    The engine's load-bearing guarantees — memoized verdicts
    ([Exec_cache]), hash-consed fingerprints, byte-identical crash-safe
    resume ([Store]) — are sound only if every protocol/device step is a
    deterministic, local function of its inputs.  This analyzer makes that
    a checked property instead of a convention: see {!Lint_rule} for the
    catalog, {!Lint_scope} for which directory is bound by which family,
    and {!Lint_suppress} for the inline escape hatch (reason required).

    Parsing uses the compiler's own front end ([Parse] +
    [Ast_iterator]), so anything the build accepts, the linter sees. *)

val parse : path:string -> string -> Parsetree.structure
(** The compiler front end as the linter runs it, alone; raises on a
    syntax error.  The floor every summary pays. *)

val check_source :
  path:string -> string -> Lint_rule.finding list * int
(** Lint one compilation unit given as a string; [path] determines scope.
    Returns (sorted active findings, suppressed count).  An unparseable
    source yields a single [Lint_parse] finding. *)

val check_file : string -> Lint_rule.finding list * int

val run : paths:string list -> Lint_report.t
(** Walk files and directories (recursively; [_build], [.git] and other
    dot-directories skipped), linting every [.ml]. *)

type deep_stats = { hits : int; misses : int }
(** Summary-cache accounting for one deep run. *)

val run_deep :
  ?use_cache:bool ->
  ?cache_dir:string ->
  ?baseline:string ->
  ?write_baseline:string ->
  paths:string list ->
  unit ->
  (Lint_report.t * deep_stats, string) result
(** The interprocedural pass: per-file shallow lint plus the
    transitive-effect re-check ({!Lint_effects}) and the global lock-order
    cycle check ({!Lint_lockorder}) over one whole-repo call graph
    ({!Lint_callgraph}).  Summaries are content-addressed and cached
    ({!Lint_cache}; [use_cache] defaults to [true], [cache_dir] to
    {!Lint_cache.default_dir}).  [baseline] subtracts a committed
    baseline's findings (an unreadable baseline is the [Error]);
    [write_baseline] records the current findings and holds them all
    back, so the run that writes a baseline exits clean. *)

val summarize : path:string -> string -> Lint_cache.entry
(** One parse, both tiers: the shallow verdict plus the deep summary, in
    the exact shape the cache stores. *)

val check_sources_deep :
  sources:(string * string) list -> Lint_report.t
(** The deep pass over in-memory (path, source) pairs — fixture testing
    without touching the filesystem or the cache. *)
