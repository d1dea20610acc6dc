(** E22: the flat execution core — cold boundary sweep throughput and jobs
    scaling.

    [run] executes the experiment and returns its {!Bench_json} record
    (writing it to [out] when given): one [sweep_cold_jN] run per entry of
    [jobs_list], which must start with 1 ([Invalid_argument] otherwise).
    Derived figures: executions/sec at jobs = 1, whether wall time is
    monotone non-increasing in jobs (within [tolerance], default 0.15), and
    the multicore criterion [best speedup >= cores x 0.6] — auto-relaxed to
    a printed warning when [Domain.recommended_domain_count () = 1], where
    it cannot hold.

    [baseline_execs_per_sec], when given, is the cold j1 throughput of the
    pre-flat-core binary measured offline (see EXPERIMENTS.md E22 for the
    method and provenance); it is recorded verbatim together with the
    resulting [flat_vs_baseline_speedup].

    Deterministic modulo wall-clock.  Shared by [bench/main.exe] (full
    config) and the [@bench-smoke] test (tiny config). *)

val run :
  ?out:string ->
  ?baseline_execs_per_sec:float ->
  ?tolerance:float ->
  n_max:int ->
  f_max:int ->
  jobs_list:int list ->
  unit ->
  Bench_json.t
