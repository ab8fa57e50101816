(* Tests of the benchmark harness itself: the layer fold, the metric
   names against BENCHMARK.json, the seeded cell orders, and a smoke run
   of three table1 cells. *)

open Perfbench
module Trace = Isr_obs.Trace

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* bench.cell [0, 1.2]
     engine [0.1, 1.1]
       sat.solve [0.2, 0.5]
       incl.check [0.5, 0.9] > sat.call [0.6, 0.8] > sat.solve [0.6, 0.8]
       mystery.span [0.9, 1.0] *)
let cell_events =
  let b name ts = Trace.Begin { name; ts; tid = 0; args = [] } in
  let e ts = Trace.End { ts; tid = 0; args = [] } in
  [
    b "bench.cell" 0.0; b "engine" 0.1; b "sat.solve" 0.2; e 0.5; b "incl.check" 0.5;
    b "sat.call" 0.6; b "sat.solve" 0.6; e 0.8; e 0.8; e 0.9; b "mystery.span" 0.9; e 1.0;
    e 1.1; e 1.2;
  ]

let test_fold_buckets () =
  let split = Layers.fold (Isr_obs.Profile.of_events cell_events) in
  let s = Layers.seconds split in
  Alcotest.(check bool) "sat" true (close (s "sat.self_s") 0.5);
  Alcotest.(check bool) "incl" true (close (s "incl.self_s") 0.2);
  (* engine self 0.2 + bench.cell self 0.2 + the unknown span's 0.1 *)
  Alcotest.(check bool) "other" true (close (s "other.self_s") 0.5);
  Alcotest.(check bool) "itp" true (close (s "itp.self_s") 0.0);
  Alcotest.(check int) "incl calls" 1 (Layers.calls split "incl.check");
  Alcotest.(check int) "sat.solve calls" 2 (Layers.calls split "sat.solve")

let test_fold_sums_to_root () =
  let root = Isr_obs.Profile.of_events cell_events in
  let split = Layers.fold root in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 split.self in
  Alcotest.(check bool) "layers sum to the root total" true
    (close total (Isr_obs.Profile.root_total root))

let test_fold_skips_certify () =
  let b name ts = Trace.Begin { name; ts; tid = 0; args = [] } in
  let e ts = Trace.End { ts; tid = 0; args = [] } in
  let events = cell_events @ [ b "bench.certify" 1.2; b "sat.solve" 1.3; e 1.9; e 2.0 ] in
  let split = Layers.fold (Isr_obs.Profile.of_events events) in
  Alcotest.(check bool) "certification SAT time stays out" true
    (close (Layers.seconds split "sat.self_s") 0.5)

(* --- BENCHMARK.json ------------------------------------------------------ *)

let benchmark_json =
  lazy
    (let ic = open_in_bin "../../BENCHMARK.json" in
     let s = really_input_string ic (in_channel_length ic) in
     close_in ic;
     Isr_obs.Json.parse s)

let entries_of key field =
  match Isr_obs.Json.field key (Lazy.force benchmark_json) with
  | Some (Isr_obs.Json.Arr items) -> List.map (Isr_obs.Json.str_field field) items
  | _ -> Alcotest.failf "BENCHMARK.json: no %s list" key

let names_of key = entries_of key "name"
let units_of key = List.combine (names_of key) (entries_of key "unit")

let test_json_names () =
  Alcotest.(check (list string)) "end_to_end" Report.end_to_end (names_of "end_to_end");
  Alcotest.(check (list string)) "per_layer" Report.per_layer (names_of "per_layer");
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Workload.t) -> w.name) Workload.all)
    (names_of "workloads")

(* --- seeded cell orders ---------------------------------------------------- *)

let names w ~seed = List.map Workload.cell_name (Workload.cells w ~seed)

let test_seeds () =
  List.iter
    (fun (w : Workload.t) ->
      let base = names w ~seed:1 in
      Alcotest.(check int)
        (w.name ^ ": distinct cells")
        (List.length base)
        (List.length (List.sort_uniq compare base));
      List.iter
        (fun seed ->
          let order = names w ~seed in
          Alcotest.(check (list string)) (w.name ^ ": same seed, same order") order (names w ~seed);
          Alcotest.(check (list string))
            (w.name ^ ": a permutation of seed 1")
            (List.sort compare base) (List.sort compare order))
        [ 0; 2; 3; 17; -4; max_int ])
    Workload.all;
  let t = Option.get (Workload.find "table1") in
  Alcotest.(check bool) "seeds differ" true (names t ~seed:1 <> names t ~seed:2)

(* The cell counts are part of the benchmark's definition. *)
let test_cell_counts () =
  Alcotest.(check (list (pair string int)))
    "cells per workload"
    [ ("table1", 123); ("frontier", 2); ("industrial", 25); ("portfolio", 122) ]
    (List.map (fun (w : Workload.t) -> (w.name, List.length w.all_cells)) Workload.all)

(* --- smoke run ---------------------------------------------------------------- *)

let test_smoke () =
  let table1 = Option.get (Workload.find "table1") in
  let pick = [ "eijkring8/itpseq-assume"; "peterson/itp"; "vending7bug/itp" ] in
  let smoke =
    {
      table1 with
      all_cells =
        List.filter (fun c -> List.mem (Workload.cell_name c) pick) table1.all_cells;
    }
  in
  let r = Harness.run ~seed:1 ~seconds:0.0 ~traced:true smoke in
  Alcotest.(check int) "attempted" 3 r.attempted;
  Alcotest.(check int) "failed" 0 r.failed;
  Alcotest.(check int) "wrong" 0 r.wrong;
  let metrics = Harness.metrics r in
  let find name =
    match List.find_opt (fun (n, _, _) -> n = name) metrics with
    | Some (_, unit, v) -> (unit, v)
    | None -> Alcotest.failf "no metric %s" name
  in
  let value name = snd (find name) in
  List.iter
    (fun (name, unit) -> Alcotest.(check string) (name ^ " unit") unit (fst (find name)))
    (units_of "end_to_end" @ units_of "per_layer");
  let layers = List.fold_left (fun acc l -> acc +. value l) 0.0 Layers.names in
  let traced = value "traced.wall_s" in
  Alcotest.(check bool)
    (Printf.sprintf "layers %.4f s sum to traced.wall_s %.4f s" layers traced)
    true
    (Float.abs (layers -. traced) <= 0.05 *. traced);
  Alcotest.(check bool) "sat time measured" true (value "sat.self_s" > 0.0);
  let json = Report.json ~correct:true ~attempted:3 ~failed:0 metrics Report.per_layer in
  match Isr_obs.Json.parse json with
  | Isr_obs.Json.Obj fields ->
    Alcotest.(check (list string))
      "result keys" [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst fields)
  | _ -> Alcotest.fail "result is not an object"

let () =
  Alcotest.run "perfbench"
    [
      ( "layers",
        [
          Alcotest.test_case "fold buckets" `Quick test_fold_buckets;
          Alcotest.test_case "fold sums to root" `Quick test_fold_sums_to_root;
          Alcotest.test_case "fold skips certification" `Quick test_fold_skips_certify;
        ] );
      ( "definition",
        [
          Alcotest.test_case "names match BENCHMARK.json" `Quick test_json_names;
          Alcotest.test_case "seeded orders" `Quick test_seeds;
          Alcotest.test_case "cell counts" `Quick test_cell_counts;
        ] );
      ("harness", [ Alcotest.test_case "smoke run of 3 table1 cells" `Quick test_smoke ]);
    ]
