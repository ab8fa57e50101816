(* What a run prints: every metric by name with its unit, then, as the
   last line, one JSON object carrying the metrics BENCHMARK.json lists
   for the run's mode. *)

(* Reported by untraced runs. *)
let end_to_end = [ "wall_s"; "setup_s"; "peak_heap_mb"; "kfp_sum"; "jfp_sum" ]

(* Reported by traced runs. *)
let per_layer =
  [
    "sat.self_s"; "sat.calls"; "sat.conflicts"; "sat.decisions"; "sat.propagations";
    "sat.restarts"; "sat.db_reduces"; "sat.learnt"; "sat.learnt_deleted"; "sat.props_per_s";
    "proof.steps_max"; "proof.bytes_max"; "incl.self_s"; "incl.calls"; "bmc.self_s";
    "seq_family.self_s"; "itpseq.self_s"; "cba.refinements"; "cba.abstract_latches";
    "engine.bounds"; "itp.self_s"; "itp.calls"; "itp.nodes"; "analyze.ands_removed";
    "analyze.latches_removed"; "analyze.trivial"; "certify.s"; "gc.minor_mw";
    "gc.major_collections"; "other.self_s"; "traced.wall_s"; "machine.ref_s";
  ]

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let json ~correct ~attempted ~failed metrics names =
  let field name =
    match List.find_opt (fun (n, _, _) -> n = name) metrics with
    | Some (_, unit, v) ->
      Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Isr_obs.Json.quote name) (number v)
        (Isr_obs.Json.quote unit)
    | None -> invalid_arg ("Report.json: no metric " ^ name)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field names))

let print ~workload ~seed (r : Harness.result) =
  let metrics = Harness.metrics r in
  Printf.printf "workload %s, seed %d, %s run: %d cells, %d executions\n" workload seed
    (if r.traced then "traced" else "untraced")
    (Array.length r.cells) r.attempted;
  List.iter (fun (n, unit, v) -> Printf.printf "  %-24s %18s %s\n" n (number v) unit) metrics;
  if r.traced then begin
    let value name = List.fold_left (fun acc (n, _, v) -> if n = name then v else acc) 0.0 metrics in
    let total = Float.max (value "traced.wall_s") 1e-9 in
    Printf.printf "layer split, share of traced.wall_s:\n";
    List.iter (fun l -> Printf.printf "  %-24s %5.1f%%\n" l (100.0 *. value l /. total)) Layers.names
  end;
  print_endline
    (json ~correct:(r.wrong = 0) ~attempted:r.attempted ~failed:r.failed metrics
       (if r.traced then per_layer else end_to_end))
