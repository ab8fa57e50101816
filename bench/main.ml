(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table I, Figures 6 and 7), the ablations DESIGN.md calls
   out, and Bechamel micro-benchmarks of the computational kernels.

   Run `dune exec bench/main.exe -- --help` for the command list; with no
   command, the full evaluation runs with moderate limits. *)

open Cmdliner
open Isr_core
open Isr_model
open Isr_suite

let out = Format.std_formatter

let limits_of ~time ~bound ~conflicts =
  { Budget.time_limit = time; conflict_limit = conflicts; bound_limit = bound;
    reduce = Isr_sat.Solver.default_reduce }

let time_arg default =
  Arg.(value & opt float default & info [ "time" ] ~doc:"Per-run time limit [s].")

let bound_arg = Arg.(value & opt int 120 & info [ "bound" ] ~doc:"BMC bound limit.")

let conflicts_arg =
  Arg.(value & opt int 2_000_000 & info [ "conflicts" ] ~doc:"Conflict budget per run.")

let mid_only_arg =
  Arg.(value & flag & info [ "mid-only" ] ~doc:"Skip the industrial-size instances.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file covering every run; open it in \
           Perfetto (ui.perfetto.dev) or chrome://tracing.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write one JSON line per engine run (benchmark, engine, verdict, full \
           metrics-registry snapshot).")

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"DIR"
        ~doc:
          "Append every engine run to the persistent run ledger rooted at $(docv): \
           instance fingerprint, engine, config, verdict, depths and the metrics \
           snapshot.  Inspect with $(b,isr_obs) ls/show/diff.")

(* The run-configuration fingerprint stored with each ledger entry, so
   cross-run diffs can tell apart budget changes from engine changes. *)
let config_of ~time ~bound ~conflicts =
  Isr_obs.Ledger.fingerprint
    [
      ("time", Printf.sprintf "%g" time);
      ("bound", string_of_int bound);
      ("conflicts", string_of_int conflicts);
    ]

let check_arg =
  let level_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Isr_check.Level.of_string s)),
        fun fmt l -> Format.pp_print_string fmt (Isr_check.Level.to_string l) )
  in
  Arg.(
    value
    & opt level_conv Isr_check.Off
    & info [ "check" ] ~docv:"LEVEL"
        ~doc:
          "Sanitizer level for every run: $(b,off) (the default — no overhead), \
           $(b,fast) (metered invariant probes) or $(b,paranoid) (additionally \
           replays proofs and lints interpolants).")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print a call-tree span profile after the command: per span path the \
           call count, total and self wall time, plus the hottest spans by self \
           time.")

let progress_arg =
  let modes = [ ("auto", `Auto); ("tty", `Tty); ("plain", `Plain); ("jsonl", `Jsonl) ] in
  Arg.(
    value
    & opt ~vopt:(Some `Auto) (some (enum modes)) None
    & info [ "progress" ] ~docv:"MODE"
        ~doc:
          "Live heartbeats on stderr (suite position, bound/frame advanced, solver \
           restarts with conflict rates), at most one per second.  $(docv) is \
           $(b,auto) (TTY single-line rewrite, plain lines when piped), $(b,tty), \
           $(b,plain) or $(b,jsonl).")

let progress_mode = function
  | `Auto -> Isr_obs.Progress.auto_mode ()
  | `Tty -> Isr_obs.Progress.Tty
  | `Plain -> Isr_obs.Progress.Plain
  | `Jsonl -> Isr_obs.Progress.Jsonl

(* Observability plumbing shared by every command: installs the span sink
   (Chrome channel, profile collector, or a tee of both) and the progress
   reporter for the command's whole duration, and hands the body a
   [record] callback streaming per-run JSON lines to the metrics file.
   Every finalizer runs even when an earlier one raises, so a broken
   trace file cannot leave the metrics channel unflushed. *)
let open_out_or_die path =
  try open_out path
  with Sys_error msg ->
    prerr_endline ("isr-bench: " ^ msg);
    exit 2

let with_obs ?(check = Isr_check.Off) ?(profile = false) ?(progress = None)
    ?(ledger = None) ?(config = "") ~trace ~metrics f =
  Isr_check.Level.set check;
  let prof = if profile then Some (Isr_obs.Profile.collector ()) else None in
  let chrome = Option.map open_out_or_die trace in
  let sink =
    match (Option.map Isr_obs.Trace.chrome_channel chrome, prof) with
    | None, None -> None
    | Some s, None -> Some s
    | None, Some (s, _) -> Some s
    | Some a, Some (b, _) -> Some (Isr_obs.Trace.tee a b)
  in
  Option.iter Isr_obs.Trace.set_sink sink;
  let record, finish_metrics =
    match metrics with
    | None -> ((fun _ -> ()), fun () -> ())
    | Some path ->
      let oc = open_out_or_die path in
      ( (fun r ->
          output_string oc (Isr_exp.Runner.json_of_record r);
          output_char oc '\n';
          flush oc),
        fun () -> close_out oc )
  in
  let record =
    match ledger with
    | None -> record
    | Some dir ->
      let lg =
        try Isr_obs.Ledger.open_ dir
        with Sys_error msg ->
          prerr_endline ("isr-bench: " ^ msg);
          exit 2
      in
      fun r ->
        record r;
        ignore (Isr_exp.Runner.ledger_record ~config lg r)
  in
  let safe g = try g () with e -> prerr_endline ("isr-bench: " ^ Printexc.to_string e) in
  Fun.protect
    ~finally:(fun () ->
      if sink <> None then begin
        safe Isr_obs.Trace.flush;
        safe Isr_obs.Trace.clear_sink
      end;
      (match chrome with Some oc -> safe (fun () -> close_out oc) | None -> ());
      safe finish_metrics)
    (fun () ->
      let body () = f ~record in
      let result =
        match progress with
        | None -> body ()
        | Some m -> Isr_obs.Progress.with_stderr (progress_mode m) body
      in
      (match prof with
      | Some (_, snapshot) ->
        Isr_obs.Trace.flush ();
        Format.fprintf out "@.%a@." (fun f n -> Isr_obs.Profile.pp f n) (snapshot ())
      | None -> ());
      result)

let entries_for mid_only lst =
  if mid_only then List.filter (fun e -> e.Registry.category = Registry.Mid) lst
  else lst

(* --- table1 ------------------------------------------------------------- *)

let table1_cmd =
  let run time bound conflicts mid_only check trace metrics ledger profile progress =
    with_obs ~check ~profile ~progress ~ledger
      ~config:(config_of ~time ~bound ~conflicts) ~trace ~metrics (fun ~record ->
        Isr_exp.Table1.run
          ~limits:(limits_of ~time ~bound ~conflicts)
          ~entries:(entries_for mid_only Registry.table1)
          ~record ~out ())
  in
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce Table I")
    Term.(
      const run $ time_arg 20.0 $ bound_arg $ conflicts_arg $ mid_only_arg $ check_arg
      $ trace_arg $ metrics_arg $ ledger_arg $ profile_arg $ progress_arg)

(* --- fig6 ----------------------------------------------------------------- *)

let fig6_cmd =
  let run time bound conflicts mid_only check trace metrics ledger profile progress =
    with_obs ~check ~profile ~progress ~ledger
      ~config:(config_of ~time ~bound ~conflicts) ~trace ~metrics (fun ~record ->
        Isr_exp.Fig6.run
          ~limits:(limits_of ~time ~bound ~conflicts)
          ~entries:(entries_for mid_only Registry.fig6)
          ~record ~out ())
  in
  Cmd.v (Cmd.info "fig6" ~doc:"Reproduce Figure 6 (cactus plot data)")
    Term.(
      const run $ time_arg 10.0 $ bound_arg $ conflicts_arg $ mid_only_arg $ check_arg
      $ trace_arg $ metrics_arg $ ledger_arg $ profile_arg $ progress_arg)

(* --- fig7 ------------------------------------------------------------------ *)

let fig7_cmd =
  let run time bound conflicts mid_only check trace metrics ledger profile progress =
    with_obs ~check ~profile ~progress ~ledger
      ~config:(config_of ~time ~bound ~conflicts) ~trace ~metrics (fun ~record ->
        Isr_exp.Fig7.run
          ~limits:(limits_of ~time ~bound ~conflicts)
          ~entries:(entries_for mid_only Registry.fig6)
          ~record ~out ())
  in
  Cmd.v (Cmd.info "fig7" ~doc:"Reproduce Figure 7 (exact-k vs assume-k scatter)")
    Term.(
      const run $ time_arg 10.0 $ bound_arg $ conflicts_arg $ mid_only_arg $ check_arg
      $ trace_arg $ metrics_arg $ ledger_arg $ profile_arg $ progress_arg)

(* --- ablations --------------------------------------------------------------- *)

let ablation_checks_cmd =
  let run time bound conflicts check trace =
    with_obs ~check ~trace ~metrics:None (fun ~record:_ ->
        Isr_exp.Ablation.checks ~limits:(limits_of ~time ~bound ~conflicts) ~out ())
  in
  Cmd.v
    (Cmd.info "ablation-checks" ~doc:"A1: bound-k vs exact-k vs assume-k SAT effort")
    Term.(const run $ time_arg 20.0 $ bound_arg $ conflicts_arg $ check_arg $ trace_arg)

let ablation_alpha_cmd =
  let run time bound conflicts check trace =
    with_obs ~check ~trace ~metrics:None (fun ~record:_ ->
        Isr_exp.Ablation.alpha ~limits:(limits_of ~time ~bound ~conflicts) ~out ())
  in
  Cmd.v (Cmd.info "ablation-alpha" ~doc:"A2: serial fraction sweep for SITPSEQ")
    Term.(const run $ time_arg 20.0 $ bound_arg $ conflicts_arg $ check_arg $ trace_arg)

let ablation_systems_cmd =
  let run time bound conflicts check trace =
    with_obs ~check ~trace ~metrics:None (fun ~record:_ ->
        Isr_exp.Ablation.systems ~limits:(limits_of ~time ~bound ~conflicts) ~out ())
  in
  Cmd.v
    (Cmd.info "ablation-systems" ~doc:"A3: labeled interpolation systems in ITPSEQ")
    Term.(const run $ time_arg 20.0 $ bound_arg $ conflicts_arg $ check_arg $ trace_arg)

(* --- bechamel kernels ----------------------------------------------------------- *)

let kernels () =
  let open Bechamel in
  let model = Circuits.vending ~price:11 ~buggy:false in
  (* Pre-solved refutation for the extraction kernel. *)
  let proof =
    let u = Bmc.build_instance model ~check:Bmc.Assume ~k:10 in
    match Isr_sat.Solver.solve (Unroll.solver u) with
    | Isr_sat.Solver.Unsat -> (u, Isr_sat.Solver.proof (Unroll.solver u))
    | _ -> assert false
  in
  let t_solve =
    Test.make ~name:"sat-solve bmc(vending11,k=10)"
      (Staged.stage (fun () ->
           let u = Bmc.build_instance model ~check:Bmc.Assume ~k:10 in
           ignore (Isr_sat.Solver.solve (Unroll.solver u))))
  in
  let t_unroll =
    Test.make ~name:"unroll encode k=10"
      (Staged.stage (fun () ->
           ignore (Bmc.build_instance model ~check:Bmc.Assume ~k:10)))
  in
  let t_itpseq =
    Test.make ~name:"itpseq extraction (10 cuts)"
      (Staged.stage (fun () ->
           let u, p = proof in
           let info = Isr_itp.Itp.analyze p in
           for cut = 1 to 10 do
             ignore
               (Isr_itp.Itp.interpolant ~info p ~cut ~man:model.Model.man
                  ~var_map:(Unroll.any_state_map u))
           done))
  in
  let t_bdd =
    Test.make ~name:"bdd forward reach (vending11)"
      (Staged.stage (fun () -> ignore (Isr_bdd.Reach.forward model)))
  in
  let tests =
    Test.make_grouped ~name:"kernels" [ t_solve; t_unroll; t_itpseq; t_bdd ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  Format.fprintf out "Bechamel kernels (ns per run, OLS on monotonic clock):@.";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> Format.fprintf out "  %-40s %12.0f ns@." name est
      | _ -> Format.fprintf out "  %-40s (no estimate)@." name)
    results;
  Format.pp_print_flush out ()

let extended_cmd =
  let run time bound conflicts check trace metrics ledger profile progress =
    with_obs ~check ~profile ~progress ~ledger
      ~config:(config_of ~time ~bound ~conflicts) ~trace ~metrics (fun ~record ->
        Isr_exp.Extended.run ~limits:(limits_of ~time ~bound ~conflicts) ~record ~out ())
  in
  Cmd.v
    (Cmd.info "extended" ~doc:"Beyond the paper: all engines incl. PBA/k-induction/PDR/portfolio")
    Term.(
      const run $ time_arg 20.0 $ bound_arg $ conflicts_arg $ check_arg $ trace_arg
      $ metrics_arg $ ledger_arg $ profile_arg $ progress_arg)

let abstraction_cmd =
  let run time bound conflicts check trace metrics ledger profile progress =
    with_obs ~check ~profile ~progress ~ledger
      ~config:(config_of ~time ~bound ~conflicts) ~trace ~metrics (fun ~record ->
        Isr_exp.Abstraction.run ~limits:(limits_of ~time ~bound ~conflicts) ~record ~out ())
  in
  Cmd.v (Cmd.info "abstraction" ~doc:"Section V: CBA vs PBA on industrial designs")
    Term.(
      const run $ time_arg 30.0 $ bound_arg $ conflicts_arg $ check_arg $ trace_arg
      $ metrics_arg $ ledger_arg $ profile_arg $ progress_arg)

let kernels_cmd =
  Cmd.v (Cmd.info "kernels" ~doc:"Bechamel micro-benchmarks") Term.(const kernels $ const ())

(* --- snapshot / regress -------------------------------------------------------- *)

(* The suite a baseline covers: the mid-size Table I instances under the
   four paper engines — small enough for CI, representative enough to
   catch solver or engine slowdowns. *)
let snapshot_entries () =
  List.filter (fun e -> e.Registry.category = Registry.Mid) Registry.table1

let snapshot_cmd =
  let run time bound conflicts check trace metrics ledger repeat out_path progress flight =
    if flight then begin
      (* Same dump triggers as itpseq_mc --flight; the CI overhead guard
         runs the suite with this on and gates the slowdown. *)
      Isr_obs.Flight.arm ~dir:"." ();
      Isr_obs.Flight.install_signals ()
    end;
    Fun.protect ~finally:Isr_obs.Flight.disarm @@ fun () ->
    with_obs ~check ~progress ~ledger
      ~config:(config_of ~time ~bound ~conflicts) ~trace ~metrics (fun ~record ->
        let limits = limits_of ~time ~bound ~conflicts in
        let entries = snapshot_entries () in
        let engines = Isr_exp.Table1.engines in
        let n = List.length entries in
        let runs =
          List.concat
            (List.mapi
               (fun i entry ->
                 let rows =
                   List.init repeat (fun _ ->
                       Isr_exp.Runner.run_entry
                         ~progress:
                           (Isr_exp.Runner.globalize ~index:i ~total:n
                              Isr_exp.Runner.obs_progress)
                         ~record ~limits ~engines entry)
                 in
                 let first = List.hd rows in
                 List.mapi
                   (fun j (er : Isr_exp.Runner.engine_result) ->
                     let samples =
                       List.map
                         (fun row ->
                           let r = List.nth row.Isr_exp.Runner.results j in
                           (r.Isr_exp.Runner.verdict, r.Isr_exp.Runner.stats))
                         rows
                     in
                     Isr_exp.Bench_store.mk_run ~bench:entry.Registry.name
                       ~engine:(Engine.name er.Isr_exp.Runner.engine) samples)
                   first.Isr_exp.Runner.results)
               entries)
        in
        let store =
          Isr_exp.Bench_store.make ~suite:"mid" ~repeat ~time_limit:time runs
        in
        Isr_exp.Bench_store.save out_path store;
        Format.fprintf out "wrote %s: %d runs (%d instances x %d engines, repeat %d)@."
          out_path (List.length runs) n (List.length engines) repeat)
  in
  let repeat_arg =
    Arg.(
      value & opt int 3
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Samples per (instance, engine) cell; the snapshot keeps the median \
                and the spread.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_new.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the snapshot.")
  in
  let flight_arg =
    Arg.(
      value & flag
      & info [ "flight" ]
          ~doc:"Arm the flight recorder for the whole suite (the CI overhead \
                guard measures this configuration against the plain one).")
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Run the benchmark suite and persist a versioned result snapshot \
             (median-of-N wall times with spread) for later regression checks")
    Term.(
      const run $ time_arg 10.0 $ bound_arg $ conflicts_arg $ check_arg $ trace_arg
      $ metrics_arg $ ledger_arg $ repeat_arg $ out_arg $ progress_arg $ flight_arg)

let regress_cmd =
  let run baseline current threshold min_delta =
    let load path =
      try Isr_exp.Bench_store.load path
      with Isr_exp.Bench_store.Corrupt { path; what } ->
        prerr_endline (Printf.sprintf "isr-bench: %s: %s" path what);
        exit 2
    in
    let b = load baseline in
    let c = load current in
    Format.fprintf out "baseline %s: %d runs; current %s: %d runs@." baseline
      (List.length b.Isr_exp.Bench_store.runs)
      current
      (List.length c.Isr_exp.Bench_store.runs);
    match Isr_exp.Bench_store.compare_to_baseline ~threshold ~min_delta ~baseline:b c with
    | [] -> Format.fprintf out "no regressions (threshold %+.0f%%, floor %.3fs)@."
              (100.0 *. threshold) min_delta
    | regs ->
      List.iter
        (fun r -> Format.fprintf out "%a@." Isr_exp.Bench_store.pp_regression r)
        regs;
      Format.fprintf out "%d regression(s)@." (List.length regs);
      Format.pp_print_flush out ();
      exit 1
  in
  let baseline_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"The reference snapshot (e.g. the committed BENCH_seed.json).")
  in
  let current_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"The snapshot to gate.")
  in
  let threshold_arg =
    Arg.(
      value & opt float 0.25
      & info [ "threshold" ]
          ~doc:"Relative slowdown that counts as a regression (0.25 = 25%).")
  in
  let min_delta_arg =
    Arg.(
      value & opt float 0.05
      & info [ "min-delta" ]
          ~doc:"Absolute slowdown floor [s]; smaller deltas are noise regardless \
                of the relative threshold.")
  in
  Cmd.v
    (Cmd.info "regress"
       ~doc:"Compare a snapshot against a baseline and exit non-zero when a run \
             got slower beyond the noise threshold, changed verdict, or vanished")
    Term.(const run $ baseline_arg $ current_arg $ threshold_arg $ min_delta_arg)

(* --- compare (a fixed A-vs-B row) ------------------------------------------------ *)

(* One side of a comparison.  A side that [rewrites_model] solves a
   simplified model, so it may decide within the budget what the original
   could not; the gate then holds it to pass/fail agreement only. *)
type side = {
  label : string;  (* the snapshot's engine name *)
  run : jobs:int -> Budget.limits -> Model.t -> Verdict.t * Verdict.stats;
  rewrites_model : bool;
}

let sequential label =
  let run ~jobs:_ limits m = Portfolio.verify ~limits m in
  { label; run; rewrites_model = false }

let racing ?share label =
  let run ~jobs limits m = Isr_par.portfolio ~jobs ?share ~limits m in
  { label; run; rewrites_model = false }

(* The analysis runs inside the timed region, so the snapshot charges its
   cost; a trivial verdict skips the portfolio, and counterexamples are
   lifted back onto the original model. *)
let analyzed =
  let run ~jobs:_ limits model =
    let t0 = Isr_obs.Clock.now () in
    let registry = Isr_obs.Metrics.create () in
    let r = Isr_analyze.run ~mode:Isr_analyze.Full ~registry model in
    let verdict, stats =
      match r.Isr_analyze.verdict with
      | Some (Isr_analyze.Safe { invariant }) ->
        ( Verdict.Proved { kfp = 0; jfp = 0; invariant = Some invariant },
          Verdict.mk_stats () )
      | Some (Isr_analyze.Unsafe { trace }) ->
        (Verdict.Falsified { depth = Trace.depth trace; trace }, Verdict.mk_stats ())
      | None -> (
        match Portfolio.verify ~limits r.Isr_analyze.model with
        | Verdict.Falsified { depth; trace }, s ->
          (Verdict.Falsified { depth; trace = r.Isr_analyze.lift trace }, s)
        | out -> out)
    in
    Isr_obs.Metrics.merge ~into:(Verdict.registry stats) registry;
    Verdict.set_time stats (Isr_obs.Clock.now () -. t0);
    (verdict, stats)
  in
  { label = "portfolio-analyzed"; run; rewrites_model = true }

(* Incremental assume-k keeps one solver across all depths, so its learnt
   database grows past the reduction trigger; the per-depth solvers of
   plain BMC are discarded too young to reach it. *)
let bmc_assume_inc ~reduce label =
  let run ~jobs:_ (limits : Budget.limits) model =
    let limits = { limits with reduce = { limits.reduce with enabled = reduce } } in
    Bmc.run ~check:Bmc.Assume ~incremental:true ~limits model
  in
  { label; run; rewrites_model = false }

(* A registry metric printed for both sides, times [scale]. *)
type column = { head : string; metric : string; scale : float }

type row = {
  a : side;
  b : side;
  benches : string list;  (* default instances, before --mid-only *)
  time : float;  (* default --time *)
  out_file : string;  (* default -o *)
  suite : string;  (* the snapshot's suite label *)
  columns : column list;
}

let col ?(scale = 1.0) head metric = { head; metric; scale }

(* The parallel rows share one instance set, so BENCH_par.json and
   BENCH_share.json compare cell by cell. *)
let par_benches = [ "eijkring12"; "hamming8"; "peterson"; "vending11" ]

let rows =
  let seq = sequential "portfolio-seq" in
  [
    ( "par",
      { a = seq; b = racing "portfolio-par"; benches = par_benches; time = 10.0;
        out_file = "BENCH_par.json"; suite = "par"; columns = [] } );
    ( "share",
      { a = seq; b = racing ~share:Isr_par.Share.default_filter "portfolio-share";
        benches = par_benches; time = 10.0; out_file = "BENCH_share.json";
        suite = "share";
        columns = [ col "import" "share.imported"; col "export" "share.exported" ] } );
    ( "preprocess",
      { a = sequential "portfolio-raw"; b = analyzed;
        benches = List.map (fun (e : Registry.entry) -> e.name) Registry.fig6;
        time = 10.0; out_file = "BENCH_analyze.json"; suite = "preprocess";
        columns =
          [ col "ands" "analyze.ands_before"; col "ands'" "analyze.ands_after";
            col "lat" "analyze.latches_before"; col "lat'" "analyze.latches_after" ] } );
    (* Long BMC refutations: thousands of learnt clauses accumulate over a
       deep unrolling, where reduction either pays or doesn't.  Deadline-
       bounded runs tie on time, so the bound reached is the progress
       measure. *)
    ( "reduce",
      { a = bmc_assume_inc ~reduce:false "bmc-assume-inc-noreduce";
        b = bmc_assume_inc ~reduce:true "bmc-assume-inc-reduce";
        benches = [ "eijkring12"; "hamming8" ]; time = 30.0;
        out_file = "BENCH_reduce.json"; suite = "reduce";
        columns =
          [ col "k" "bmc.last_bound";
            col ~scale:(float_of_int (Sys.word_size / 8) /. 1048576.0) "MB"
              "gc.peak_heap_words";
            col "reduces" "sat.db.reduce" ] } );
  ]

(* A counter's or gauge's value in one run's registry; [None] when the run
   never registered it (a raw run has no analyze.* gauges). *)
let metric_value stats name =
  let reg = Verdict.registry stats in
  if not (List.mem name (Isr_obs.Metrics.names reg)) then None
  else
    Some
      (let open Isr_obs.Metrics in
       try float_of_int (value (counter reg name))
       with Invalid_argument _ -> gauge_value (gauge reg name))

let compare_cmd =
  let run row time bound conflicts jobs names mid_only repeat out_path check trace metrics
      progress =
    let time = Option.value time ~default:row.time in
    let out_path = Option.value out_path ~default:row.out_file in
    let find n =
      match Registry.find n with
      | Some e -> e
      | None ->
        prerr_endline (Printf.sprintf "isr-bench: no benchmark named %S" n);
        exit 2
    in
    let entries =
      match names with
      | [] -> entries_for mid_only (List.map find row.benches)
      | names -> List.map find names
    in
    let limits = limits_of ~time ~bound ~conflicts in
    let same_model = not (row.a.rewrites_model || row.b.rewrites_model) in
    let module B = Isr_exp.Bench_store in
    let pp_disagreement fmt = function
      | B.Flip { a; b } ->
        Format.fprintf fmt "VERDICT FLIP: %s %s vs %s %s" row.a.label a row.b.label b
      | B.No_replay side ->
        Format.fprintf fmt "%s trace does NOT replay on the original"
          (if side = `A then row.a.label else row.b.label)
    in
    let cell c samples =
      match List.filter_map (fun (_, s) -> metric_value s c.metric) samples with
      | [] -> "-"
      | vs ->
        let v = c.scale *. B.median vs in
        if c.scale = 1.0 then Printf.sprintf "%.0f" v else Printf.sprintf "%.1f" v
    in
    let print_columns f =
      List.iter (fun c -> Format.fprintf out " %9s %9s" (f `A c) (f `B c)) row.columns;
      Format.fprintf out "@."
    in
    let disagreements =
      with_obs ~check ~progress ~trace ~metrics @@ fun ~record ->
      Format.fprintf out "A = %s, B = %s@.%-16s %-9s %-9s %8s %8s %8s" row.a.label
        row.b.label "bench" "A" "B" "A[s]" "B[s]" "speedup";
      print_columns (fun side c -> (if side = `A then "A:" else "B:") ^ c.head);
      let count = ref 0 in
      let runs =
        List.concat_map
          (fun (entry : Registry.entry) ->
            let model = Registry.build_validated entry in
            let instance_hash = Isr_fraig.Fraig.property_hash model in
            (* Compact before each sample, outside the timed region: the
               major heap keeps its words between runs of one process, so
               a later sample would otherwise inherit an earlier peak. *)
            let samples side =
              List.init repeat (fun _ ->
                  Gc.compact ();
                  let verdict, stats = side.run ~jobs limits model in
                  record
                    { Isr_exp.Runner.bench = entry.name; engine_name = side.label;
                      instance_hash; verdict; stats };
                  (verdict, stats))
            in
            let sa = samples row.a in
            let sb = samples row.b in
            List.iter2
              (fun (va, _) (vb, _) ->
                List.iter
                  (fun d ->
                    incr count;
                    Format.fprintf out "%-16s %a@." entry.name pp_disagreement d)
                  (B.disagreements ~same_model ~replays:(Sim.check_trace model) va vb))
              sa sb;
            let ra = B.mk_run ~bench:entry.name ~engine:row.a.label sa in
            let rb = B.mk_run ~bench:entry.name ~engine:row.b.label sb in
            let ta = ra.time_median and tb = rb.time_median in
            Format.fprintf out "%-16s %-9s %-9s %8.3f %8.3f %7.2fx" entry.name ra.verdict
              rb.verdict ta tb
              (if tb > 0.0 then ta /. tb else Float.nan);
            print_columns (fun side c -> cell c (if side = `A then sa else sb));
            [ ra; rb ])
          entries
      in
      B.save out_path (B.make ~suite:row.suite ~repeat ~time_limit:time runs);
      Format.fprintf out "wrote %s: %d runs (%d instances, repeat %d)@." out_path
        (List.length runs) (List.length entries) repeat;
      !count
    in
    if disagreements > 0 then begin
      Format.fprintf out "%d verdict disagreement(s) between modes@." disagreements;
      exit 3
    end
  in
  let row_arg =
    let doc =
      String.concat "; "
        (List.map
           (fun (n, r) -> Printf.sprintf "$(b,%s): %s vs %s" n r.a.label r.b.label)
           rows)
    in
    Arg.(required & pos 0 (some (enum rows)) None & info [] ~docv:"ROW" ~doc)
  in
  let time_arg =
    Arg.(
      value & opt (some float) None
      & info [ "time" ] ~doc:"Per-run time limit [s]; default 10, 30 for $(b,reduce).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Domains a racing side uses ($(b,0) = the machine's recommended count).")
  in
  let names_arg =
    Arg.(
      value & opt_all string []
      & info [ "name" ] ~docv:"BENCH"
          ~doc:"Benchmark to include (repeatable); default: the row's instances.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 3
      & info [ "repeat" ] ~docv:"N" ~doc:"Samples per (instance, side) cell.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Where to write the snapshot; default: the row's committed BENCH_*.json.")
  in
  Cmd.v
    (Cmd.info "compare"
       ~exits:
         (Cmd.Exit.info 2 ~doc:"on an unknown benchmark name."
         :: Cmd.Exit.info 3 ~doc:"on a verdict disagreement."
         :: Cmd.Exit.defaults)
       ~doc:"Run both sides of a comparison row on the same instances, print their \
             times and metrics, persist both as a snapshot, and exit 3 when any pair \
             of verdicts disagrees or a counterexample fails to replay")
    Term.(
      const run $ row_arg $ time_arg $ bound_arg $ conflicts_arg $ jobs_arg $ names_arg
      $ mid_only_arg $ repeat_arg $ out_arg $ check_arg $ trace_arg $ metrics_arg
      $ progress_arg)
(* --- all (default) ------------------------------------------------------------------ *)

let all time bound conflicts mid_only check trace metrics ledger profile progress =
  with_obs ~check ~profile ~progress ~ledger
    ~config:(config_of ~time ~bound ~conflicts) ~trace ~metrics
  @@ fun ~record ->
  let limits = limits_of ~time ~bound ~conflicts in
  let entries6 = entries_for mid_only Registry.fig6 in
  let entries1 = entries_for mid_only Registry.table1 in
  Format.fprintf out "=== Table I ===@.";
  Isr_exp.Table1.run ~limits ~entries:entries1 ~record ~out ();
  Format.fprintf out "@.=== Figure 6 ===@.";
  Isr_exp.Fig6.run ~limits ~entries:entries6 ~record ~out ();
  Format.fprintf out "@.=== Figure 7 ===@.";
  Isr_exp.Fig7.run ~limits ~entries:entries6 ~record ~out ();
  Format.fprintf out "@.=== Ablation A1 (BMC checks) ===@.";
  Isr_exp.Ablation.checks ~limits ~out ();
  Format.fprintf out "@.=== Ablation A2 (alpha sweep) ===@.";
  Isr_exp.Ablation.alpha ~limits ~out ();
  Format.fprintf out "@.=== Ablation A3 (interpolation systems) ===@.";
  Isr_exp.Ablation.systems ~limits ~out ();
  if not mid_only then begin
    Format.fprintf out "@.=== Abstraction: CBA vs PBA (Section V) ===@.";
    Isr_exp.Abstraction.run ~limits ~record ~out ()
  end;
  Format.fprintf out "@.=== Extended engines (beyond the paper) ===@.";
  Isr_exp.Extended.run ~limits ~record ~out ();
  Format.fprintf out "@.=== Kernels ===@.";
  kernels ()

let all_term =
  Term.(
    const all $ time_arg 5.0 $ bound_arg $ conflicts_arg $ mid_only_arg $ check_arg
    $ trace_arg $ metrics_arg $ ledger_arg $ profile_arg $ progress_arg)

let () =
  let info =
    Cmd.info "isr-bench" ~doc:"Experiment harness for Interpolation Sequences Revisited"
  in
  let group =
    Cmd.group ~default:all_term info
      [
        table1_cmd; fig6_cmd; fig7_cmd; ablation_checks_cmd; ablation_alpha_cmd;
        ablation_systems_cmd; abstraction_cmd; extended_cmd; kernels_cmd;
        snapshot_cmd; regress_cmd; compare_cmd;
      ]
  in
  exit (Cmd.eval group)
