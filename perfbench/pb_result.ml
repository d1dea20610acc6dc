(* What one benchmark run reports: counts of attempted and failed
   operations, named metrics with units, and free-form notes. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : (string * string) list;
}

(* The metric names and units, in BENCHMARK.json order: that file, read
   from the working directory (the repository root), is their one source. *)
let spec_metrics section =
  let doc =
    match Bench_json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  match Bench_json.member section doc with
  | Some (Bench_json.List ms) ->
    List.map
      (fun m ->
        match Bench_json.member "name" m, Bench_json.member "unit" m with
        | Some (Bench_json.String name), Some (Bench_json.String unit_) -> name, unit_
        | _ -> failwith ("BENCHMARK.json: bad metric in " ^ section))
      ms
  | _ -> failwith ("BENCHMARK.json: no " ^ section)

(* A traced run reports every per-layer metric; a layer the workload does
   not cross reads 0. *)
let layers values =
  let layer_units = spec_metrics "per_layer" in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name layer_units) then
        invalid_arg ("unknown layer metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      { name;
        unit_;
        value = Option.value ~default:0.0 (List.assoc_opt name values) })
    layer_units

(* Per-operation layer figures from a span table: span seconds scaled to
   the named unit and divided by the op count. *)
let per_op ~ops sp =
  let per x = if ops = 0 then 0.0 else x /. float_of_int ops in
  let ms name = per (1000.0 *. Pb_span.seconds sp name) in
  let us name = per (1e6 *. Pb_span.seconds sp name) in
  let count name = per (float_of_int (Pb_span.count sp name)) in
  ms, us, count

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* The interquartile mean: the mean of the middle half of the samples,
   so a few stalled ops (an fsync behind a neighbour's writes) do not move
   the throughput figure. *)
let iq_mean samples =
  let a = Pb_stats.sorted samples in
  let n = Array.length a in
  let lo = n / 4 in
  let hi = max (lo + 1) (n - (n / 4)) in
  if n = 0 then 0.0 else Pb_stats.mean (Array.to_list (Array.sub a lo (hi - lo)))

(* The end-to-end metrics of an untraced run, from its set-up and op
   seconds. *)
let end_to_end ~tail_q ~setups ~op_seconds ~peak_rss_mb =
  let n = List.length op_seconds in
  let ms = List.map (fun s -> 1000.0 *. s) op_seconds in
  let values =
    [ "setup_s", Pb_stats.median setups;
      "op_p50_ms", Pb_stats.median ms;
      "op_tail_ms", Pb_stats.tail ~q:tail_q ms;
      "ops_per_s", ratio 1.0 (iq_mean op_seconds);
      "peak_rss_mb", peak_rss_mb ]
  in
  ( List.map
      (fun (name, unit_) ->
        match List.assoc_opt name values with
        | Some value -> { name; value; unit_ }
        | None -> invalid_arg ("no value for end-to-end metric " ^ name))
      (spec_metrics "end_to_end"),
    [ "op_tail_ms", Pb_stats.tail_label ~q:tail_q n;
      ( "op_ms deciles",
        String.concat " "
          (List.map
             (fun q -> Printf.sprintf "%.4g" (Pb_stats.tail ~q ms))
             [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]) );
      ( "setup_ms",
        String.concat " " (List.map (fun s -> Printf.sprintf "%.0f" (1000.0 *. s)) setups) ) ] )

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let print t =
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) t.notes;
  List.iter
    (fun m -> Printf.printf "%-28s %18.6f %s\n" m.name m.value m.unit_)
    t.metrics;
  Printf.printf "%-28s %18.6f ratio (%d failed of %d attempted)\n" "fail_ratio"
    (ratio (float_of_int t.failed) (float_of_int t.attempted))
    t.failed t.attempted;
  let metrics =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_float m.value) m.unit_)
         t.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (t.failed = 0) t.attempted t.failed metrics
