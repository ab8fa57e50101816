(* Command-line model checker: verify an AIGER file or a named benchmark
   with any of the engines of the paper.

     itpseq_mc verify --engine itpseq counter.aag
     itpseq_mc verify --engine itpseqcba --name industrialA1 --time 60
     itpseq_mc bdd --name traffic6
     itpseq_mc list *)

open Cmdliner
open Isr_core
open Isr_model

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let load_model ?(property = 0) file name =
  match (file, name) with
  | Some path, None -> (
    let text =
      try Ok (In_channel.with_open_bin path In_channel.input_all)
      with Sys_error msg -> Error msg
    in
    let base = Filename.remove_extension (Filename.basename path) in
    match
      Result.bind text (fun t ->
          match Filename.extension path with
          | ".btor" | ".btor2" -> Isr_btor.Btor2.parse_string ~name:base t
          | ".isl" -> Isr_isl.Isl.parse_string ~name:base t
          | _ -> Aiger.parse_string_multi ~name:base t)
    with
    | Ok models -> (
      match List.nth_opt models property with
      | Some m -> Ok m
      | None ->
        Error
          (Printf.sprintf "%s: property index %d out of range (%d available)" path
             property (List.length models)))
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | None, Some n -> (
    match Isr_suite.Registry.find n with
    | Some entry -> Ok (Isr_suite.Registry.build_validated entry)
    | None -> Error (Printf.sprintf "no benchmark named %S (see `itpseq_mc list`)" n))
  | Some _, Some _ -> Error "give either FILE or --name, not both"
  | None, None -> Error "give an AIGER FILE or --name BENCH"

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"AIGER (aag/aig), BTOR2 (.btor/.btor2) or ISL (.isl) input.")

let name_arg =
  Arg.(value & opt (some string) None & info [ "name" ] ~doc:"Benchmark name from the registry.")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.")

let engine_arg =
  Arg.(
    value
    & opt string "itpseq"
    & info [ "engine" ]
        ~doc:
          "Engine: bmc[-exact|-bound], itp, itpseq[-exact], \
           sitpseq[ALPHA][-exact], itpseqcba[ALPHA][-assume|-exact], \
           itpseqpba[ALPHA][-assume|-exact], kind, pdr, portfolio.  The \
           parameterized families accept an inline alpha, e.g. \
           sitpseq0.25-exact.")

let witness_arg =
  Arg.(value & flag & info [ "witness" ] ~doc:"Print the counterexample trace on FAIL.")

let property_arg =
  Arg.(
    value & opt int 0
    & info [ "property" ] ~doc:"Which output of a multi-output AIGER file to verify.")

let witness_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "witness-file" ] ~doc:"Write the counterexample in HWMCC witness format.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the result as a JSON object on stdout (for tooling).")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Record the structured search-event stream (restarts, clause-database \
           reductions, interpolant cuts, phase transitions, parallel-race \
           lifecycle) and write it as JSON lines to $(docv).  Analyse with \
           $(b,isr_obs) tail/explain-race/export.")

let profile_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-json" ] ~docv:"FILE"
        ~doc:"Write the call-tree span profile as nested JSON.")

(* Minimal JSON rendering; all of our strings are identifier-like. *)
let json_of_verdict ~model_name ~engine_name verdict (stats : Verdict.stats) certified =
  let b = Buffer.create 256 in
  let field ?(last = false) k v =
    Buffer.add_string b (Printf.sprintf "  %S: %s%s\n" k v (if last then "" else ","))
  in
  Buffer.add_string b "{\n";
  field "model" (Printf.sprintf "%S" model_name);
  field "engine" (Printf.sprintf "%S" engine_name);
  (match verdict with
  | Verdict.Proved { kfp; jfp; invariant } ->
    field "verdict" "\"proved\"";
    field "kfp" (string_of_int kfp);
    field "jfp" (string_of_int jfp);
    field "has_certificate" (if invariant <> None then "true" else "false");
    (match certified with
    | Some ok -> field "certificate_checked" (if ok then "true" else "false")
    | None -> ())
  | Verdict.Falsified { depth; trace } ->
    field "verdict" "\"falsified\"";
    field "depth" (string_of_int depth);
    let frames =
      Array.to_list trace.Trace.inputs
      |> List.map (fun fr ->
             "["
             ^ String.concat ","
                 (Array.to_list (Array.map (fun x -> if x then "1" else "0") fr))
             ^ "]")
    in
    field "trace" ("[" ^ String.concat "," frames ^ "]")
  | Verdict.Unknown r ->
    field "verdict" "\"unknown\"";
    field "reason"
      (match r with
      | Verdict.Time_limit -> "\"time\""
      | Verdict.Conflict_limit -> "\"conflicts\""
      | Verdict.Bound_limit k -> Printf.sprintf "\"bound %d\"" k));
  field "time_s" (Printf.sprintf "%.4f" (Verdict.time stats));
  field "sat_calls" (string_of_int (Verdict.sat_calls stats));
  field "conflicts" (string_of_int (Verdict.conflicts stats));
  field "decisions" (string_of_int (Verdict.decisions stats));
  field "propagations" (string_of_int (Verdict.propagations stats));
  field "restarts" (string_of_int (Verdict.restarts stats));
  field ~last:true "bound" (string_of_int (Verdict.last_bound stats));
  Buffer.add_string b "}";
  Buffer.contents b

let analyze_arg =
  let mode_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Isr_analyze.mode_of_string s)),
        fun fmt m -> Format.pp_print_string fmt (Isr_analyze.mode_to_string m) )
  in
  Arg.(
    value
    & opt ~vopt:(Some Isr_analyze.Fast) (some mode_conv) None
    & info [ "analyze" ] ~docv:"MODE"
        ~doc:
          "Run the certified static analyzer before the engine: ternary-fixpoint \
           constant propagation and stuck-at latch elimination, dangling-logic \
           removal and cone-of-influence reduction ($(b,fast), the default when \
           the flag is given), plus SAT sweeping ($(b,full)).  Trivial verdicts \
           short-circuit the engine; counterexamples found on the simplified \
           model are lifted back to the original inputs.  Certification \
           intensity follows $(b,--check).")

let compact_arg =
  Arg.(
    value & flag
    & info [ "compact" ]
        ~doc:"On PASS, compact the invariant through BDD canonicalization first.")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:"On PASS, re-check the inductive invariant with independent SAT calls.")

let par_arg =
  Arg.(
    value
    & opt ~vopt:(Some 0) (some int) None
    & info [ "par"; "j" ] ~docv:"N"
        ~doc:
          "Race the work across $(docv) OCaml domains (default: the machine's \
           recommended domain count). With the portfolio engine, members race and \
           the first definitive verdict cancels the rest; with the bmc engines, \
           bounds are probed in parallel. Other engines ignore the flag and run \
           sequentially.")

let no_reduce_arg =
  Arg.(
    value & flag
    & info [ "no-reduce" ]
        ~doc:
          "Disable learnt-clause database reduction: keep every learned clause in \
           memory for the whole run (the pre-reduction behaviour).")

let reduce_base_arg =
  Arg.(
    value
    & opt int Isr_sat.Solver.default_reduce.base
    & info [ "reduce-base" ] ~docv:"N"
        ~doc:
          "First live-learnt-clause threshold of the database reduction schedule \
           (grows geometrically afterwards).")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Write a resumable engine checkpoint to $(docv) when the run is \
           interrupted (SIGTERM) or exhausts its budget without a verdict.  \
           Sequential single-engine runs only (not portfolio, not --par).  \
           Resume with $(b,--resume); inspect with $(b,isr_obs ckpt).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume a run from a checkpoint written by $(b,--checkpoint).  The \
           engine spelling is taken from the checkpoint (overriding \
           $(b,--engine)); the model must be structurally identical to the \
           one the checkpoint was taken on.  The interrupted bound is redone \
           from its entry, so the final verdict, convergence depths and \
           certificate match an uninterrupted run.")

let tool = "itpseq_mc"

(* The ledger reads a relative path against its own directory, so a
   path given on the command line is stored as an absolute one. *)
let absolute path =
  if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

let verify_term =
  let run verbose file name engine budget witness analyze compact certify property
      witness_file json events (obs : Isr_cli.obs) profile_json par no_reduce reduce_base
      checkpoint resume =
    setup_logs verbose;
    match load_model ~property file name with
    | Error e ->
      prerr_endline e;
      2
    | Ok original -> (
      match Engine.of_name engine with
      | Error e ->
        prerr_endline e;
        2
      | Ok eng ->
        (* Resume: the checkpoint decides the engine; --engine is only a
           cross-check. *)
        let resume_ck =
          Option.map
            (fun path -> try Checkpoint.read path with Failure msg -> Isr_cli.fail ~tool msg)
            resume
        in
        let eng =
          match resume_ck with
          | None -> eng
          | Some ck -> (
            match Engine.of_name ck.Checkpoint.engine with
            | Ok e ->
              if Engine.name e <> Engine.name eng then
                Logs.info (fun m ->
                    m "resuming engine %s from the checkpoint" ck.Checkpoint.engine);
              e
            | Error msg -> Isr_cli.fail ~tool msg)
        in
        let stepwise = checkpoint <> None || resume_ck <> None in
        if stepwise then begin
          (match eng with
          | Engine.Portfolio ->
            Isr_cli.fail ~tool
              "--checkpoint/--resume apply to single engines, not the portfolio"
          | _ -> ());
          if par <> None then
            Isr_cli.fail ~tool "--checkpoint/--resume do not combine with --par"
        end;
        if not json then Format.printf "model: %a@." Model.pp_stats original;
        (* The event recorder feeds --events and --ledger.  The --events
           file is opened now and written when the session closes, which
           includes a SIGTERM checkpoint exit: the interrupted half is
           exactly what isr_obs steps inspects before a resume. *)
        let recorder =
          if events <> None || obs.ledger <> None then Some (Isr_obs.Event.recorder ())
          else None
        in
        let open_out path = try open_out path with Sys_error msg -> Isr_cli.fail ~tool msg in
        let write_events r oc =
          Isr_obs.Event.write_jsonl r oc;
          close_out oc
        in
        let events_oc = Option.map open_out events in
        let consumers =
          Option.to_list
            (Option.map
               (fun r ->
                 (Isr_obs.Event.recording r, fun () -> Option.iter (write_events r) events_oc))
               recorder)
        in
        let config =
          Isr_cli.config budget
          @ [
              ("par", match par with None -> "seq" | Some 0 -> "auto" | Some j -> string_of_int j);
              ("analyze",
               match analyze with None -> "off" | Some m -> Isr_analyze.mode_to_string m);
            ]
        in
        Isr_cli.run ~tool ~config ~collect_profile:(profile_json <> None) ~consumers obs
        @@ fun session ->
        (* With --checkpoint, SIGTERM must reach a safe-point instead of
           killing the process outright (which is what the flight
           recorder's own handler, installed by the session, would do):
           the handler requests a checkpoint and trips the cancel token,
           an in-flight SAT call unwinds with [Budget.Cancelled], and
           [Step.drive] writes the checkpoint, dumps the flight ring and
           exits 143. *)
        let ckpt_cancel = Atomic.make false in
        if checkpoint <> None then
          Sys.set_signal Sys.sigterm
            (Sys.Signal_handle
               (fun _ ->
                 Step.request_checkpoint ();
                 Atomic.set ckpt_cancel true));
        let limits =
          Isr_cli.limits
            ~reduce:
              { Isr_sat.Solver.default_reduce with enabled = not no_reduce; base = reduce_base }
            budget
        in
        (* The explicit kernel path: start (or restore) the instance under
           the SIGTERM token and drive it with the checkpoint plumbing
           armed. *)
        let drive model =
          match Engine.stepper eng with
          | None -> assert false (* portfolio rejected above *)
          | Some p -> (
            match resume_ck with
            | Some ck -> (
              match Step.restore ~limits ~cancel:ckpt_cancel p model ck with
              | inst -> Step.drive ?checkpoint inst
              | exception Invalid_argument msg -> Isr_cli.fail ~tool msg)
            | None -> Step.drive ?checkpoint (Step.start ~limits ~cancel:ckpt_cancel p model))
        in
        let report r =
          if not json then begin
            Format.printf "%a@." Isr_analyze.pp_summary r;
            if r.Isr_analyze.verdict = None then
              Format.printf "analyze: %a@." Model.pp_stats r.Isr_analyze.model
          end
        in
        let outcome =
          try
            Isr_par.verify
              ~analyze:(Option.value analyze ~default:Isr_analyze.Off)
              ?jobs:par ~report
              ?drive:(if stepwise then Some drive else None)
              ~limits eng original
          with Isr_check.Level.Violation { check; detail } ->
            ignore (Isr_obs.Flight.dump ~reason:"violation" ());
            Format.eprintf "sanitizer violation [%s]: %s@." check detail;
            exit 5
        in
        (* The engine region is over; later SIGUSR1s find nothing to
           dump, which is the honest answer once the rings stop filling. *)
        let profile = Isr_cli.finish session in
        let stats = outcome.Isr_par.stats in
        Option.iter
          (fun root ->
            Option.iter
              (fun path ->
                let oc = open_out path in
                output_string oc (Isr_obs.Profile.to_json root);
                output_char oc '\n';
                close_out oc)
              profile_json;
            if obs.profile then begin
              (* Keep stdout machine-readable under --json. *)
              let fmt = if json then Format.err_formatter else Format.std_formatter in
              Format.fprintf fmt "%a@." (fun f n -> Isr_obs.Profile.pp f n) root
            end)
          profile;
        if Isr_check.Level.on () && not json then
          Format.printf "%a@." Isr_check.Level.pp_summary ();
        (* Without --events the ledger keeps the stream in its events/
           directory, keyed by instance and wall clock. *)
        let events_path =
          match (recorder, Isr_cli.ledger session) with
          | Some r, Some lg when events = None ->
            let rel =
              Printf.sprintf "events/%s-%d.jsonl" original.Model.name
                (int_of_float (Unix.gettimeofday () *. 1000.0))
            in
            write_events r (open_out (Isr_obs.Ledger.resolve lg rel));
            Some rel
          | _ -> Option.map absolute events
        in
        if obs.metrics <> None || obs.ledger <> None then begin
          (* A run is named by the instance the user asked to verify, not
             by the analyzer's rewrite of it — otherwise analyzed and
             plain runs of one design would never diff as the same
             property cone. *)
          let run =
            { Isr_exp.Runner.bench = original.Model.name; engine_name = Engine.name eng;
              instance_hash = Isr_fraig.Fraig.property_hash original;
              verdict = outcome.verdict; stats }
          in
          match
            (Isr_cli.record session ?events_path
               ?profile_path:(Option.map absolute profile_json) run,
             Isr_cli.ledger session)
          with
          | Some stored, Some lg when not json ->
            Format.printf "ledger: %s @@ %s@." stored.Isr_obs.Ledger.id (Isr_obs.Ledger.dir lg)
          | _ -> ()
        end;
        (* Under --json stdout holds the JSON object alone; every other
           line goes to stderr. *)
        let out = if json then Format.err_formatter else Format.std_formatter in
        if not json then begin
          Format.printf "%s: %a@.stats: %a@." (Engine.name eng) Verdict.pp outcome.verdict
            Verdict.pp_stats stats;
          match (outcome.verdict, checkpoint) with
          | Verdict.Unknown _, Some path -> Format.printf "checkpoint: written to %s@." path
          | _ -> ()
        end;
        (* --compact rewrites the invariant before it is checked. *)
        let outcome =
          match outcome.verdict with
          | Verdict.Proved ({ invariant = Some inv; _ } as p) when compact ->
            let model = outcome.model in
            let inv' = Isr_bdd.Compact.state_predicate model inv in
            Format.fprintf out "compact: invariant %d -> %d AND nodes@."
              (Isr_aig.Aig.cone_size model.Model.man inv)
              (Isr_aig.Aig.cone_size model.Model.man inv');
            { outcome with verdict = Verdict.Proved { p with invariant = Some inv' } }
          | _ -> outcome
        in
        let code, note = Isr_par.check ~certify outcome in
        let verdict = outcome.verdict in
        if json then begin
          let certified =
            match verdict with
            | Verdict.Proved { invariant = Some _; _ } when certify -> Some (code = 0)
            | _ -> None
          in
          print_endline
            (json_of_verdict ~model_name:original.Model.name
               ~engine_name:(Engine.name eng) verdict stats certified)
        end;
        (match verdict with
        | Verdict.Falsified { trace; _ } ->
          if witness then Format.fprintf out "%a@." Trace.pp trace;
          Option.iter
            (fun path ->
              (try
                 Out_channel.with_open_text path (fun oc ->
                     Out_channel.output_string oc (Aiger.witness_to_string outcome.model trace))
               with Sys_error msg -> Isr_cli.fail ~tool msg);
              Format.fprintf out "witness written to %s@." path)
            witness_file
        | _ -> ());
        Option.iter (Format.fprintf out "%s@.") note;
        code)
  in
  Term.(
    const run $ verbose_arg $ file_arg $ name_arg $ engine_arg
    $ Isr_cli.budget ~time:60.0 ~bound:200 ~conflicts:5_000_000
    $ witness_arg $ analyze_arg $ compact_arg $ certify_arg $ property_arg
    $ witness_file_arg $ json_arg $ events_arg
    $ Isr_cli.obs ~metrics:true ~ledger:true ~profile:true ~progress:true ~flight:true ()
    $ profile_json_arg $ par_arg $ no_reduce_arg $ reduce_base_arg $ checkpoint_arg
    $ resume_arg)

let verify_cmd = Cmd.v (Cmd.info "verify" ~doc:"Verify a model with one engine") verify_term

let bdd_cmd =
  let run verbose file name nodes =
    setup_logs verbose;
    match load_model file name with
    | Error e ->
      prerr_endline e;
      2
    | Ok model ->
      let open Isr_bdd in
      Format.printf "model: %a@." Model.pp_stats model;
      let report dir (r : Reach.result) =
        Format.printf "%s: %s, diameter %s, %.3fs, %d nodes@." dir
          (match r.Reach.verdict with
          | Reach.Proved -> "proved"
          | Reach.Falsified d -> Printf.sprintf "falsified at depth %d" d
          | Reach.Overflow -> "overflow")
          (match r.Reach.diameter with Some d -> string_of_int d | None -> "-")
          r.Reach.time r.Reach.peak_nodes
      in
      report "forward" (Reach.forward ~max_nodes:nodes model);
      report "backward" (Reach.backward ~max_nodes:nodes model);
      0
  in
  let nodes_arg =
    Arg.(value & opt int 4_000_000 & info [ "nodes" ] ~doc:"BDD node budget.")
  in
  Cmd.v (Cmd.info "bdd" ~doc:"Exact BDD reachability and diameters")
    Term.(const run $ verbose_arg $ file_arg $ name_arg $ nodes_arg)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Format.printf "%-20s %-10s %a@." e.Isr_suite.Registry.name
          (match e.Isr_suite.Registry.category with
          | Isr_suite.Registry.Mid -> "mid"
          | Isr_suite.Registry.Industrial -> "industrial")
          Isr_suite.Registry.pp_expected e.Isr_suite.Registry.expected)
      Isr_suite.Registry.fig6;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in benchmarks") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "itpseq_mc" ~version:"1.0.0"
      ~doc:"SAT-based unbounded model checking with interpolation sequences"
  in
  (* [verify] is also the default, so `itpseq_mc --engine itpseq FILE` works. *)
  exit (Cmd.eval' (Cmd.group ~default:verify_term info [ verify_cmd; bdd_cmd; list_cmd ]))
