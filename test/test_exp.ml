(* Tests for the experiment harness: each reproduction renders sensible
   output on a small entry subset and never contradicts ground truth. *)

open Isr_core
open Isr_suite

let limits =
  { Budget.time_limit = 20.0; conflict_limit = 1_000_000; bound_limit = 50; reduce = Isr_sat.Solver.default_reduce }

let small_entries names = List.filter_map Registry.find names

let render f =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_table1 () =
  let entries = small_entries [ "amba2g3"; "tcas12"; "vending11" ] in
  let out = render (fun fmt -> Isr_exp.Table1.run ~limits ~entries ~out:fmt ()) in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " in table") true (contains out n))
    [ "amba2g3"; "tcas12"; "vending11" ];
  (* No ground-truth contradictions: the only '!' is the one in the
     explanatory header. *)
  let bangs = String.fold_left (fun n c -> if c = '!' then n + 1 else n) 0 out in
  Alcotest.(check int) "no contradictions" 1 bangs

let test_fig6 () =
  let entries = small_entries [ "amba2g3"; "traffic6"; "coherence3bug" ] in
  let out = render (fun fmt -> Isr_exp.Fig6.run ~limits ~entries ~out:fmt ()) in
  Alcotest.(check bool) "has ranks" true (contains out "rank");
  Alcotest.(check bool) "reports solved counts" true (contains out "solved instances");
  (* All three instances are easy: every engine must solve all 3. *)
  Alcotest.(check bool) "all solved" true (contains out "3")

let test_fig7 () =
  let entries = small_entries [ "amba2g3"; "traffic6"; "vending11"; "eijkring8" ] in
  let out = render (fun fmt -> Isr_exp.Fig7.run ~limits ~entries ~out:fmt ()) in
  Alcotest.(check bool) "summarizes" true (contains out "assume-k faster on")

let test_ablation_checks () =
  let entries = small_entries [ "vending11"; "coherence3" ] in
  let out =
    render (fun fmt -> Isr_exp.Ablation.checks ~limits ~entries ~depths:[ 4; 8 ] ~out:fmt ())
  in
  (* Safe instances: every depth must be unsat — the "SAT?!" cell must
     never appear. *)
  Alcotest.(check bool) "all unsat" false (contains out "SAT?!");
  Alcotest.(check bool) "instances present" true (contains out "vending11")

let test_ablation_alpha () =
  let entries = small_entries [ "amba2g3"; "traffic6" ] in
  let out =
    render (fun fmt ->
        Isr_exp.Ablation.alpha ~limits ~entries ~alphas:[ 0.0; 0.5; 1.0 ] ~out:fmt ())
  in
  Alcotest.(check bool) "alpha columns" true (contains out "alpha=0.50");
  Alcotest.(check bool) "no unknowns" false (contains out "ovf")

let test_runner_cells () =
  let stats = Verdict.mk_stats () in
  Verdict.note_bound stats 7;
  Alcotest.(check string) "ovf cell" "ovf(7)"
    (Isr_exp.Runner.time_cell (Verdict.Unknown Verdict.Time_limit) stats);
  Alcotest.(check string) "kfp" "4" (Isr_exp.Runner.kfp_cell (Verdict.Proved { kfp = 4; jfp = 2; invariant = None }));
  Alcotest.(check string) "jfp of fail" "0"
    (Isr_exp.Runner.jfp_cell (Verdict.Falsified { depth = 3; trace = { Isr_model.Trace.inputs = [||] } }))

(* --- bench store ----------------------------------------------------------- *)

module B = Isr_exp.Bench_store

let mk_brun ?(verdict = "proved") ?(spread = 0.0) ?(kfp = Some 4) ?(jfp = Some 2) bench
    engine t =
  {
    B.bench;
    engine;
    verdict;
    time_median = t;
    time_spread = spread;
    conflicts = 100;
    sat_calls = 7;
    kfp;
    jfp;
  }

let test_bench_median_spread () =
  Alcotest.(check (float 0.0)) "median empty" 0.0 (B.median []);
  Alcotest.(check (float 0.0)) "median single" 2.5 (B.median [ 2.5 ]);
  Alcotest.(check (float 0.0)) "median odd" 2.0 (B.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "median even" 2.5 (B.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "spread empty" 0.0 (B.spread []);
  Alcotest.(check (float 0.0)) "spread" 2.0 (B.spread [ 3.0; 1.0; 2.0 ])

let test_bench_mk_run () =
  let sample t =
    let s = Verdict.mk_stats () in
    Verdict.set_time s t;
    Isr_obs.Metrics.add s.Verdict.c_conflicts 11;
    Isr_obs.Metrics.incr s.Verdict.c_sat_calls;
    (Verdict.Proved { kfp = 4; jfp = 2; invariant = None }, s)
  in
  let r =
    B.mk_run ~bench:"vending11" ~engine:"itpseq-exact" [ sample 3.0; sample 1.0; sample 2.0 ]
  in
  Alcotest.(check string) "verdict" "proved" r.B.verdict;
  Alcotest.(check (float 1e-9)) "median of repeats" 2.0 r.B.time_median;
  Alcotest.(check (float 1e-9)) "spread of repeats" 2.0 r.B.time_spread;
  Alcotest.(check int) "conflicts from first sample" 11 r.B.conflicts;
  Alcotest.(check int) "sat calls" 1 r.B.sat_calls;
  Alcotest.(check (option int)) "kfp" (Some 4) r.B.kfp;
  Alcotest.(check (option int)) "jfp" (Some 2) r.B.jfp

let test_bench_roundtrip () =
  let runs =
    [
      mk_brun "amba2g3" "itp" 0.512345;
      mk_brun ~verdict:"unknown" ~spread:0.25 ~kfp:None ~jfp:None "tcas12" "pdr" 12.75;
      mk_brun ~verdict:"falsified" ~jfp:(Some 0) "vending7\"bug" "bmc" 0.003906;
    ]
  in
  let t = B.make ~suite:"mid" ~repeat:3 ~time_limit:60.0 runs in
  let path = Filename.temp_file "isr_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      B.save path t;
      let t' = B.load path in
      Alcotest.(check int) "schema" B.schema_version t'.B.schema;
      Alcotest.(check string) "suite" "mid" t'.B.suite;
      Alcotest.(check int) "repeat" 3 t'.B.repeat;
      Alcotest.(check (float 1e-9)) "time limit" 60.0 t'.B.time_limit;
      Alcotest.(check bool) "runs identical" true (t'.B.runs = t.B.runs))

let test_bench_load_errors () =
  let write_tmp contents =
    let path = Filename.temp_file "isr_bench" ".json" in
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents);
    path
  in
  let expect_failure label path =
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () ->
        match B.load path with
        | _ -> Alcotest.failf "%s: load should have failed" label
        | exception B.Corrupt _ -> ())
  in
  expect_failure "future schema rejected" (write_tmp "{\"schema\": 99, \"runs\": []}");
  expect_failure "missing schema rejected" (write_tmp "{\"runs\": []}");
  expect_failure "malformed json rejected" (write_tmp "{\"schema\": 1, \"runs\": [");
  expect_failure "missing file rejected" "/nonexistent/isr_bench.json";
  (* Timing summaries the regression gate would mis-compare must be
     rejected typed, not waved through: NaN makes every [<] false. *)
  let run_with median spread =
    Printf.sprintf
      "{\"schema\": 1, \"runs\": [{\"bench\":\"a\",\"engine\":\"e\",\"verdict\":\"proved\",\"time_median_s\":%s,\"time_spread_s\":%s,\"conflicts\":1,\"sat_calls\":1}]}"
      median spread
  in
  expect_failure "infinite median rejected" (write_tmp (run_with "1e400" "0.0"));
  expect_failure "negative median rejected" (write_tmp (run_with "-0.5" "0.0"));
  expect_failure "negative spread rejected" (write_tmp (run_with "0.5" "-1.0"));
  expect_failure "negative conflicts rejected"
    (write_tmp
       "{\"schema\": 1, \"runs\": [{\"bench\":\"a\",\"engine\":\"e\",\"verdict\":\"proved\",\"time_median_s\":1.0,\"time_spread_s\":0.0,\"conflicts\":-3,\"sat_calls\":1}]}");
  (* A well-formed file may omit the optional header fields. *)
  let path = write_tmp "{\"schema\": 1, \"runs\": []}" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t = B.load path in
      Alcotest.(check int) "tolerant repeat default" 1 t.B.repeat;
      Alcotest.(check bool) "empty runs" true (t.B.runs = []))

let test_bench_regressions () =
  let base =
    B.make ~suite:"mid" ~repeat:3 ~time_limit:60.0
      [
        mk_brun "a" "e" 1.0;
        mk_brun "b" "e" 1.0;
        mk_brun "c" "e" 0.010;
        mk_brun ~spread:0.3 "d" "e" 1.0;
        mk_brun "f" "e" 1.0;
        mk_brun "g" "e" 1.0;
      ]
  in
  (* A snapshot compared against itself is clean. *)
  Alcotest.(check int) "self-compare clean" 0
    (List.length (B.compare_to_baseline ~baseline:base base));
  let current =
    B.make ~suite:"mid" ~repeat:3 ~time_limit:60.0
      [
        mk_brun "a" "e" 2.0 (* 2x: a real regression *);
        mk_brun "b" "e" 1.2 (* +20%: below the relative threshold *);
        mk_brun "c" "e" 0.018 (* +80% of nearly nothing: below the absolute floor *);
        mk_brun ~spread:0.4 "d" "e" 1.6 (* within the recorded spreads *);
        mk_brun ~verdict:"unknown" "f" "e" 1.0 (* verdict flip *);
        (* "g" is missing from the current snapshot *)
        mk_brun "new" "e" 9.0 (* additions are not regressions *);
      ]
  in
  let regs = B.compare_to_baseline ~baseline:base current in
  Alcotest.(check int) "exactly three regressions" 3 (List.length regs);
  let has label pred = Alcotest.(check bool) label true (List.exists pred regs) in
  has "a slower" (function B.Slower { bench = "a"; _ } -> true | _ -> false);
  has "f verdict changed" (function
    | B.Verdict_changed { bench = "f"; cur = "unknown"; _ } -> true
    | _ -> false);
  has "g missing" (function B.Missing { bench = "g"; _ } -> true | _ -> false);
  (* The textual form drives the gate's log. *)
  let line r = render (fun fmt -> B.pp_regression fmt r) in
  Alcotest.(check bool) "slower line shows the ratio" true
    (contains (line (B.Slower { bench = "a"; engine = "e"; base = 1.0; cur = 2.0 })) "+100%");
  Alcotest.(check bool) "missing line names the pair" true
    (contains (line (B.Missing { bench = "g"; engine = "e" })) "g/e")

(* --- verdict-agreement gate ------------------------------------------------- *)

let proved = Verdict.Proved { kfp = 4; jfp = 2; invariant = None }
let unknown = Verdict.Unknown Verdict.Time_limit
let falsified = Verdict.Falsified { depth = 3; trace = { Isr_model.Trace.inputs = [||] } }

let gate ?(same_model = true) ?(replays = true) a b =
  B.disagreements ~same_model ~replays:(fun _ -> replays) a b

let test_gate_unknown () =
  Alcotest.(check bool) "proved vs unknown on one model disagrees" true
    (gate proved unknown = [ B.Flip { a = "proved"; b = "unknown" } ]);
  Alcotest.(check bool) "unknown vs falsified on one model disagrees" true
    (gate unknown falsified <> []);
  Alcotest.(check bool) "proved vs unknown across a rewrite agrees" true
    (gate ~same_model:false proved unknown = []);
  Alcotest.(check bool) "unknown vs proved across a rewrite agrees" true
    (gate ~same_model:false unknown proved = [])

let test_gate_flip () =
  List.iter
    (fun same_model ->
      Alcotest.(check bool) "proved vs falsified disagrees" true
        (gate ~same_model proved falsified = [ B.Flip { a = "proved"; b = "falsified" } ]))
    [ true; false ]

let test_gate_replay () =
  Alcotest.(check bool) "side A trace must replay" true
    (gate ~replays:false falsified proved
    = [ B.Flip { a = "falsified"; b = "proved" }; B.No_replay `A ]);
  Alcotest.(check bool) "side B trace must replay, even across a rewrite" true
    (gate ~same_model:false ~replays:false unknown falsified = [ B.No_replay `B ]);
  Alcotest.(check bool) "both traces checked" true
    (gate ~replays:false falsified falsified = [ B.No_replay `A; B.No_replay `B ])

let test_gate_agree () =
  List.iter
    (fun v ->
      Alcotest.(check bool) "equal verdicts agree" true (gate v v = []);
      Alcotest.(check bool) "equal verdicts agree across a rewrite" true
        (gate ~same_model:false v v = []))
    [ proved; unknown; falsified ]

(* --- the command-line session ---------------------------------------- *)

let quiet =
  { Isr_cli.check = Isr_check.Off; trace = None; metrics = None; ledger = None;
    profile = false; progress = None; flight = None }

let temp_path suffix = Filename.temp_file "isr_cli" suffix

(* A body that raises still ends the session: nobody is left reading the
   channel, and the trace it wrote is a complete JSON document. *)
let test_session_raise () =
  let trace = temp_path ".json" in
  (match
     Isr_cli.run ~tool:"test" { quiet with trace = Some trace } (fun _ ->
         Alcotest.(check bool) "records read inside" true (Isr_obs.Event.enabled ());
         Isr_obs.Trace.span "outer" (fun () -> failwith "boom"))
   with
  | () -> Alcotest.fail "the body's exception was swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "Event.enabled after" false (Isr_obs.Event.enabled ());
  Alcotest.(check bool) "Trace.enabled after" false (Isr_obs.Trace.enabled ());
  match Isr_obs.Json.parse (In_channel.with_open_bin trace In_channel.input_all) with
  | Isr_obs.Json.Arr events ->
    Alcotest.(check bool) "the span is in the trace" true
      (List.exists (fun e -> Isr_obs.Json.opt_str_field "name" e = Some "outer") events)
  | _ -> Alcotest.fail "the trace is not a JSON array"

(* Each --metrics line and the ledger entry of the same run come from one
   projection, so they agree field by field. *)
let test_session_record () =
  let metrics = temp_path ".jsonl" in
  let ledger = Filename.temp_dir "isr_cli" "ledger" in
  Isr_cli.run ~tool:"test" { quiet with metrics = Some metrics; ledger = Some ledger }
    (fun s ->
      ignore
        (Isr_exp.Runner.run_suite ~record:(fun r -> ignore (Isr_cli.record s r)) ~limits
           ~engines:[ Engine.Itp; Engine.Bmc_only Bmc.Assume ]
           (small_entries [ "vending11"; "vending7bug" ])));
  let lines =
    In_channel.with_open_bin metrics In_channel.input_lines
    |> List.filter (fun l -> l <> "")
    |> List.map Isr_obs.Json.parse
  in
  let entries = Isr_obs.Ledger.load (Isr_obs.Ledger.open_ ledger) in
  Alcotest.(check int) "one line per entry" (List.length entries) (List.length lines);
  Alcotest.(check int) "four runs" 4 (List.length lines);
  List.iter2
    (fun j (e : Isr_obs.Ledger.entry) ->
      let str k = Isr_obs.Json.opt_str_field k j and int k = Isr_obs.Json.opt_int_field k j in
      Alcotest.(check (option string)) "bench" (Some e.instance) (str "bench");
      Alcotest.(check (option string)) "engine" (Some e.engine) (str "engine");
      Alcotest.(check (option string)) "verdict" (Some e.verdict) (str "verdict");
      Alcotest.(check (option int)) "kfp" e.kfp (int "kfp");
      Alcotest.(check (option int)) "jfp" e.jfp (int "jfp");
      Alcotest.(check (option string)) "hash" (Some e.instance_hash) (str "hash"))
    lines entries

(* A budget below 0 is refused when the command line is read, with the
   flag named, in every front end that takes the budget flags; 0 is a
   budget like any other. *)
let test_budget_flags () =
  let parse argv =
    let buf = Buffer.create 80 in
    let err = Format.formatter_of_buffer buf in
    let cmd =
      Cmdliner.Cmd.v (Cmdliner.Cmd.info "t") (Isr_cli.budget ~time:1.0 ~bound:10 ~conflicts:100)
    in
    let r = Cmdliner.Cmd.eval_value ~err ~argv:(Array.of_list ("t" :: argv)) cmd in
    Format.pp_print_flush err ();
    (r, Buffer.contents buf)
  in
  List.iter
    (fun (arg, flag) ->
      match parse [ arg ] with
      | Error `Parse, msg ->
        let named =
          let n = String.length flag in
          let rec at i =
            i + n <= String.length msg && (String.sub msg i n = flag || at (i + 1))
          in
          at 0
        in
        Alcotest.(check bool) (Printf.sprintf "%s: %S names %s" arg msg flag) true named
      | _ -> Alcotest.failf "%s accepted" arg)
    [ ("--bound=-1", "--bound"); ("--time=-1", "--time"); ("--conflicts=-5", "--conflicts") ];
  match parse [ "--bound=0"; "--time=0"; "--conflicts=0" ] with
  | Ok (`Ok b), _ ->
    Alcotest.(check (list string)) "zero budgets" [ "0"; "0"; "0" ]
      (List.map snd (Isr_cli.config b))
  | _, msg -> Alcotest.failf "zero budgets refused: %s" msg

let () =
  Alcotest.run "isr_exp"
    [
      ( "reproductions",
        [
          Alcotest.test_case "table1" `Slow test_table1;
          Alcotest.test_case "fig6" `Slow test_fig6;
          Alcotest.test_case "fig7" `Slow test_fig7;
          Alcotest.test_case "ablation checks" `Slow test_ablation_checks;
          Alcotest.test_case "ablation alpha" `Slow test_ablation_alpha;
        ] );
      ("runner", [ Alcotest.test_case "cells" `Quick test_runner_cells ]);
      ( "session",
        [
          Alcotest.test_case "a raising body closes the session" `Quick test_session_raise;
          Alcotest.test_case "metrics lines match ledger entries" `Quick test_session_record;
          Alcotest.test_case "negative budgets are refused" `Quick test_budget_flags;
        ] );
      ( "bench_store",
        [
          Alcotest.test_case "median and spread" `Quick test_bench_median_spread;
          Alcotest.test_case "mk_run summarises repeats" `Quick test_bench_mk_run;
          Alcotest.test_case "save/load round trip" `Quick test_bench_roundtrip;
          Alcotest.test_case "load rejects bad files" `Quick test_bench_load_errors;
          Alcotest.test_case "regression gate" `Quick test_bench_regressions;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "unknown flips on one model only" `Quick test_gate_unknown;
          Alcotest.test_case "pass/fail flips always" `Quick test_gate_flip;
          Alcotest.test_case "traces replay on either side" `Quick test_gate_replay;
          Alcotest.test_case "equal verdicts agree" `Quick test_gate_agree;
        ] );
    ]
