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

let tool = "isr-bench"

let mid_only_arg =
  Arg.(value & flag & info [ "mid-only" ] ~doc:"Skip the industrial-size instances.")

let entries_for mid_only lst =
  if mid_only then List.filter (fun e -> e.Registry.category = Registry.Mid) lst
  else lst

(* The term every engine-running command shares: its budget (bound 120,
   2M conflicts, the command's [time]), --mid-only where taken, and the
   observability flags [obs] (all of them but --flight by default), with
   [body] run inside one session.  [body] gets the budget, the
   mid-only switch and the session's run sink; the profile, when asked
   for, is printed after it. *)
let session_cmd ?(mid_only = false)
    ?(obs = Isr_cli.obs ~metrics:true ~ledger:true ~profile:true ~progress:true ())
    ~time body =
  let run budget mid_only obs body =
    Isr_cli.run ~tool ~config:(Isr_cli.config budget) obs @@ fun s ->
    let result = body budget ~mid_only ~record:(fun r -> ignore (Isr_cli.record s r)) in
    Option.iter
      (Format.fprintf out "@.%a@." (fun f n -> Isr_obs.Profile.pp f n))
      (Isr_cli.finish s);
    result
  in
  Term.(
    const run
    $ Isr_cli.budget ~time ~bound:120 ~conflicts:2_000_000
    $ (if mid_only then mid_only_arg else const false)
    $ obs $ body)

(* A reproduction that runs [f] with the limits, and the entries of
   [suite] (narrowed by --mid-only when [suite] is given). *)
let experiment ?suite ~time name doc f =
  Cmd.v (Cmd.info name ~doc)
    (session_cmd ~mid_only:(suite <> None) ~time
       (Term.const (fun budget ~mid_only ~record ->
            let entries = entries_for mid_only (Option.value suite ~default:[]) in
            f ~limits:(Isr_cli.limits budget) ~entries ~record)))

let table1_cmd =
  experiment ~suite:Registry.table1 ~time:20.0 "table1" "Reproduce Table I"
    (fun ~limits ~entries ~record -> Isr_exp.Table1.run ~limits ~entries ~record ~out ())

let fig6_cmd =
  experiment ~suite:Registry.fig6 ~time:10.0 "fig6" "Reproduce Figure 6 (cactus plot data)"
    (fun ~limits ~entries ~record -> Isr_exp.Fig6.run ~limits ~entries ~record ~out ())

let fig7_cmd =
  experiment ~suite:Registry.fig6 ~time:10.0 "fig7"
    "Reproduce Figure 7 (exact-k vs assume-k scatter)"
    (fun ~limits ~entries ~record -> Isr_exp.Fig7.run ~limits ~entries ~record ~out ())

let extended_cmd =
  experiment ~time:20.0 "extended"
    "Beyond the paper: all engines incl. PBA/k-induction/PDR/portfolio"
    (fun ~limits ~entries:_ ~record -> Isr_exp.Extended.run ~limits ~record ~out ())

let abstraction_cmd =
  experiment ~time:30.0 "abstraction" "Section V: CBA vs PBA on industrial designs"
    (fun ~limits ~entries:_ ~record -> Isr_exp.Abstraction.run ~limits ~record ~out ())

(* The ablations take the budget, --check and --trace only. *)
let ablation name doc f =
  Cmd.v (Cmd.info name ~doc)
    (session_cmd ~obs:(Isr_cli.obs ()) ~time:20.0
       (Term.const (fun budget ~mid_only:_ ~record:_ ->
            f (Isr_cli.limits budget))))

let ablation_checks_cmd =
  ablation "ablation-checks" "A1: bound-k vs exact-k vs assume-k SAT effort"
    (fun limits -> Isr_exp.Ablation.checks ~limits ~out ())

let ablation_alpha_cmd =
  ablation "ablation-alpha" "A2: serial fraction sweep for SITPSEQ"
    (fun limits -> Isr_exp.Ablation.alpha ~limits ~out ())

let ablation_systems_cmd =
  ablation "ablation-systems" "A3: labeled interpolation systems in ITPSEQ"
    (fun limits -> Isr_exp.Ablation.systems ~limits ~out ())

(* --- bechamel kernels ----------------------------------------------------------- *)

let kernels () =
  let open Bechamel in
  let model = Circuits.vending ~price:11 ~buggy:false in
  (* Pre-solved refutation for the extraction kernel. *)
  let proof =
    let u = Bmc.build_instance ~proof:true model ~check:Bmc.Assume ~k:10 in
    match Isr_sat.Solver.solve (Unroll.solver u) with
    | Isr_sat.Solver.Unsat -> (u, Isr_sat.Solver.proof (Unroll.solver u))
    | _ -> assert false
  in
  let t_solve =
    Test.make ~name:"sat-solve bmc(vending11,k=10)"
      (Staged.stage (fun () ->
           let u = Bmc.build_instance ~proof:true model ~check:Bmc.Assume ~k:10 in
           ignore (Isr_sat.Solver.solve (Unroll.solver u))))
  in
  let t_unroll =
    Test.make ~name:"unroll encode k=10"
      (Staged.stage (fun () ->
           ignore (Bmc.build_instance ~proof:true model ~check:Bmc.Assume ~k:10)))
  in
  (* Intake-bound encoding: 760 padding latches around a small cone,
     about 59k variables and 160k clauses at k=8. *)
  let padded =
    match Registry.find "industrialB3" with
    | Some e -> Registry.build_validated e
    | None -> assert false
  in
  let t_unroll_padded =
    Test.make ~name:"unroll encode industrialB3 exact k=8"
      (Staged.stage (fun () ->
           ignore (Bmc.build_instance ~proof:true padded ~check:Bmc.Exact ~k:8)))
  in
  (* The industrial workload's largest frame: each bound instantiates
     the model's compiled transition CNF once per frame. *)
  let padded_f2 =
    match Registry.find "industrialF2" with
    | Some e -> Registry.build_validated e
    | None -> assert false
  in
  let t_unroll_f2 =
    Test.make ~name:"unroll encode industrialF2 exact k=8"
      (Staged.stage (fun () ->
           ignore (Bmc.build_instance ~proof:true padded_f2 ~check:Bmc.Exact ~k:8)))
  in
  (* Conflict analysis under proof logging: thousands of conflicts, each
     writing its learnt clause and resolution chain into the log. *)
  let tcas =
    match Registry.find "tcas25" with Some e -> Registry.build_validated e | None -> assert false
  in
  let t_solve_proof =
    Test.make ~name:"sat-solve proof-logging tcas25 assume k=20"
      (Staged.stage (fun () ->
           let u = Bmc.build_instance ~proof:true tcas ~check:Bmc.Assume ~k:20 in
           ignore (Isr_sat.Solver.solve (Unroll.solver u))))
  in
  (* Clause intake alone: the Tseitin shape (two binary clauses and one
     ternary per AND gate) over random fanins, 10k gates. *)
  let gates = 10_000 in
  let stream =
    let state = ref 7 in
    let next bound =
      state := ((!state * 1103515245) + 12345) land 0x7fffffff;
      (!state lsr 8) mod bound
    in
    List.init gates (fun g ->
        let v = Isr_sat.Lit.pos (1000 + g) in
        let a = Isr_sat.Lit.of_var ~neg:(next 2 = 1) (next (1000 + g)) in
        let b = Isr_sat.Lit.of_var ~neg:(next 2 = 1) (next (1000 + g)) in
        let nv = Isr_sat.Lit.neg v in
        [ [ nv; a ]; [ nv; b ]; [ v; Isr_sat.Lit.neg a; Isr_sat.Lit.neg b ] ])
    |> List.concat
  in
  let t_add_clause =
    Test.make ~name:"add_clause stream (30k clauses)"
      (Staged.stage (fun () ->
           let s = Isr_sat.Solver.create () in
           ignore (Isr_sat.Solver.new_vars s (1000 + gates));
           List.iter (fun c -> Isr_sat.Solver.add_clause s c) stream))
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
  (* The same padded design refuted at k=8: about 160k steps, of which
     a few dozen are used, so the cost is in reading the log, not in
     building interpolants. *)
  let padded_u =
    let u = Bmc.build_instance ~proof:true padded ~check:Bmc.Exact ~k:8 in
    match Isr_sat.Solver.solve (Unroll.solver u) with
    | Isr_sat.Solver.Unsat -> u
    | _ -> assert false
  in
  let t_itpseq_padded =
    Test.make ~name:"family extraction industrialB3 exact k=8 (8 cuts)"
      (Staged.stage (fun () ->
           let p = Isr_sat.Solver.proof (Unroll.solver padded_u) in
           let info = Isr_itp.Itp.analyze p in
           for cut = 1 to 8 do
             ignore
               (Isr_itp.Itp.interpolant ~info p ~cut ~man:padded.Model.man
                  ~var_map:(Unroll.any_state_map padded_u))
           done))
  in
  let t_bdd =
    Test.make ~name:"bdd forward reach (vending11)"
      (Staged.stage (fun () -> ignore (Isr_bdd.Reach.forward model)))
  in
  (* Simulation kernels.  ring16safe is safe, so random simulation runs
     all 16 rounds of 65 frames, and its FRAIG sweep fails hundreds of
     miters; industrialF2's ternary fixpoint runs over 17k ANDs. *)
  let fig6 name =
    match Registry.find name with Some e -> Registry.build_validated e | None -> assert false
  in
  let ring = fig6 "ring16safe" and f2 = fig6 "industrialF2" in
  let t_randsim =
    Test.make ~name:"randsim falsify (safe fig6 model)"
      (Staged.stage (fun () -> ignore (Rand_sim.falsify ring)))
  in
  let t_lfp =
    Test.make ~name:"ternary lfp industrialF2"
      (Staged.stage (fun () -> ignore (Isr_analyze.Ternary.lfp f2)))
  in
  let t_fraig =
    Test.make ~name:"fraig sweep ring16safe"
      (Staged.stage (fun () -> ignore (Isr_fraig.Fraig.sweep ring)))
  in
  let tests =
    Test.make_grouped ~name:"kernels"
      [
        t_solve; t_solve_proof; t_unroll; t_unroll_padded; t_unroll_f2; t_add_clause; t_itpseq;
        t_itpseq_padded; t_bdd; t_randsim; t_lfp; t_fraig;
      ]
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

let kernels_cmd =
  Cmd.v (Cmd.info "kernels" ~doc:"Bechamel micro-benchmarks") Term.(const kernels $ const ())

(* --- snapshot / regress -------------------------------------------------------- *)

(* The suite a baseline covers: the mid-size Table I instances under the
   four paper engines — small enough for CI, representative enough to
   catch solver or engine slowdowns. *)
let snapshot_entries () =
  List.filter (fun e -> e.Registry.category = Registry.Mid) Registry.table1

let snapshot_cmd =
  let run repeat out_path budget ~mid_only:_ ~record =
    let limits = Isr_cli.limits budget in
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
      Isr_exp.Bench_store.make ~suite:"mid" ~repeat ~time_limit:budget.Isr_cli.time runs
    in
    Isr_exp.Bench_store.save out_path store;
    Format.fprintf out "wrote %s: %d runs (%d instances x %d engines, repeat %d)@."
      out_path (List.length runs) n (List.length engines) repeat
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
  (* --flight: the CI overhead guard runs the suite with the recorder
     armed and gates the slowdown against the plain run. *)
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Run the benchmark suite and persist a versioned result snapshot \
             (median-of-N wall times with spread) for later regression checks")
    (session_cmd ~time:10.0
       ~obs:(Isr_cli.obs ~metrics:true ~ledger:true ~progress:true ~flight:true ())
       Term.(const run $ repeat_arg $ out_arg))

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

(* A portfolio side, run through the verify pipeline: [analyze] before
   it, and the domain race instead of the sequential interleaver when
   [race].  The clock runs around the whole call, so an analyzing side is
   charged for its analysis. *)
let portfolio ~analyze ~race label =
  let run ~jobs limits model =
    let t0 = Isr_obs.Clock.now () in
    let jobs = if race then Some jobs else None in
    let o = Isr_par.verify ~analyze ?jobs ~limits Engine.Portfolio model in
    Verdict.set_time o.stats (Isr_obs.Clock.now () -. t0);
    (o.verdict, o.stats)
  in
  { label; run; rewrites_model = analyze <> Isr_analyze.Off }

let sequential = portfolio ~analyze:Isr_analyze.Off ~race:false

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

let rows =
  [
    ( "par",
      { a = sequential "portfolio-seq";
        b = portfolio ~analyze:Isr_analyze.Off ~race:true "portfolio-par";
        benches = [ "eijkring12"; "hamming8"; "peterson"; "vending11" ]; time = 10.0;
        out_file = "BENCH_par.json"; suite = "par"; columns = [] } );
    ( "preprocess",
      { a = sequential "portfolio-raw";
        b = portfolio ~analyze:Isr_analyze.Full ~race:false "portfolio-analyzed";
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
  let run row time bound conflicts jobs names mid_only repeat out_path obs =
    let time = Option.value time ~default:row.time in
    let out_path = Option.value out_path ~default:row.out_file in
    let find n =
      match Registry.find n with
      | Some e -> e
      | None ->
        Isr_cli.fail ~tool (Printf.sprintf "no benchmark named %S" n)
    in
    let entries =
      match names with
      | [] -> entries_for mid_only (List.map find row.benches)
      | names -> List.map find names
    in
    let limits = Isr_cli.limits { time; bound; conflicts } in
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
      Isr_cli.run ~tool obs @@ fun s ->
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
                  ignore
                    (Isr_cli.record s
                       { Isr_exp.Runner.bench = entry.name; engine_name = side.label;
                         instance_hash; verdict; stats });
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
      const run $ row_arg $ time_arg $ Isr_cli.bound 120 $ Isr_cli.conflicts 2_000_000
      $ jobs_arg $ names_arg $ mid_only_arg $ repeat_arg $ out_arg
      $ Isr_cli.obs ~metrics:true ~progress:true ())
(* --- all (default) ------------------------------------------------------------------ *)

let all_term =
  session_cmd ~mid_only:true ~time:5.0
    (Term.const (fun budget ~mid_only ~record ->
         let limits = Isr_cli.limits budget in
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
         kernels ()))

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
