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

let time_arg = Arg.(value & opt float 60.0 & info [ "time" ] ~doc:"Time limit [s].")
let bound_arg = Arg.(value & opt int 200 & info [ "bound" ] ~doc:"Bound limit.")

let conflicts_arg =
  Arg.(value & opt int 5_000_000 & info [ "conflicts" ] ~doc:"Conflict budget.")

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

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file of the run; open it in Perfetto \
           (ui.perfetto.dev) or chrome://tracing.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write a JSON snapshot of the run's metrics registry.")

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

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"DIR"
        ~doc:
          "Append this run to the persistent run ledger rooted at $(docv) \
           (instance fingerprint, engine, config, verdict, depths, metrics \
           snapshot and the event stream).  Inspect with $(b,isr_obs) \
           ls/show/diff.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print a call-tree span profile after the run: per span path the call \
           count, total and self wall time, plus the hottest spans by self time.")

let profile_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-json" ] ~docv:"FILE"
        ~doc:"Write the call-tree span profile as nested JSON.")

let progress_mode_enum =
  [ ("auto", `Auto); ("tty", `Tty); ("plain", `Plain); ("jsonl", `Jsonl) ]

let progress_arg =
  Arg.(
    value
    & opt ~vopt:(Some `Auto) (some (enum progress_mode_enum)) None
    & info [ "progress" ] ~docv:"MODE"
        ~doc:
          "Live heartbeats on stderr (bound/frame advanced, refinements, solver \
           restarts, with conflict/propagation rates), at most one per second. \
           $(docv) is $(b,auto) (TTY single-line rewrite, plain lines when piped), \
           $(b,tty), $(b,plain) or $(b,jsonl).")

let progress_mode = function
  | `Auto -> Isr_obs.Progress.auto_mode ()
  | `Tty -> Isr_obs.Progress.Tty
  | `Plain -> Isr_obs.Progress.Plain
  | `Jsonl -> Isr_obs.Progress.Jsonl

let open_out_or_die path =
  try open_out path
  with Sys_error msg ->
    prerr_endline ("itpseq_mc: " ^ msg);
    exit 2

let write_metrics metrics_file stats =
  match metrics_file with
  | None -> ()
  | Some path ->
    let oc = open_out_or_die path in
    Out_channel.output_string oc (Isr_obs.Metrics.to_json (Verdict.registry stats));
    Out_channel.output_char oc '\n';
    close_out oc

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

let flight_arg =
  Arg.(
    value
    & opt ~vopt:(Some 0) (some int) None
    & info [ "flight" ] ~docv:"N"
        ~doc:
          "Arm the flight recorder: a constant-memory per-domain ring of the last \
           $(docv) search events (default 256) plus periodic GC snapshots. On \
           budget expiry, a sanitizer violation, an uncaught exception, SIGUSR1 \
           or SIGTERM the merged rings are dumped as flight.jsonl (next to the \
           ledger's event streams when --ledger is given, else the working \
           directory). Inspect with $(b,isr_obs) top / tail.")

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
          "Sanitizer level: off (default), fast (metered invariant probes at phase \
           boundaries) or paranoid (additionally replay every refutation proof and \
           lint every emitted interpolant).")

let verify_term =
  let run verbose file name engine time bound conflicts witness analyze compact certify property witness_file json trace metrics events ledger check profile profile_json progress par no_reduce reduce_base flight checkpoint resume =
    setup_logs verbose;
    Isr_check.Level.set check;
    match load_model ~property file name with
    | Error e ->
      prerr_endline e;
      2
    | Ok original -> (
      match Engine.of_name engine with
      | Error e ->
        prerr_endline e;
        2
      | Ok eng -> (
        (* Resume: the checkpoint decides the engine; --engine is only a
           cross-check. *)
        let resume_ck =
          match resume with
          | None -> None
          | Some path -> (
            match Checkpoint.read path with
            | ck -> Some ck
            | exception Failure msg ->
              prerr_endline ("itpseq_mc: " ^ msg);
              exit 2)
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
            | Error msg ->
              prerr_endline ("itpseq_mc: " ^ msg);
              exit 2)
        in
        let stepwise = checkpoint <> None || resume_ck <> None in
        if stepwise then begin
          (match eng with
          | Engine.Portfolio ->
            prerr_endline
              "itpseq_mc: --checkpoint/--resume apply to single engines, not the \
               portfolio";
            exit 2
          | _ -> ());
          if par <> None then begin
            prerr_endline "itpseq_mc: --checkpoint/--resume do not combine with --par";
            exit 2
          end
        end;
        if not json then Format.printf "model: %a@." Model.pp_stats original;
        (* Every consumer of the run's observability channel is
           subscribed here and covers the static analyzer and the engine
           run: the event recorder (for --events and --ledger), the
           Chrome writer (--trace), the profile collector (--profile,
           --profile-json) and the heartbeat reporter (--progress). *)
        let recorder =
          if events <> None || ledger <> None then Some (Isr_obs.Event.recorder ())
          else None
        in
        let chrome = Option.map (fun f -> Isr_obs.Chrome.writer (open_out_or_die f)) trace in
        let prof =
          if profile || profile_json <> None then Some (Isr_obs.Profile.collector ()) else None
        in
        let reporter =
          Option.map (fun m -> Isr_obs.Progress.to_stderr (progress_mode m)) progress
        in
        let consumers =
          List.filter_map Fun.id
            [
              Option.map Isr_obs.Event.recording recorder;
              Option.map fst chrome;
              Option.map fst prof;
              Option.map Isr_obs.Progress.consumer reporter;
            ]
        in
        List.iter Isr_obs.Event.subscribe consumers;
        let unsubscribe () =
          List.iter Isr_obs.Event.unsubscribe consumers;
          Option.iter Isr_obs.Progress.finish reporter
        in
        (* One exit path closes every consumer that writes a file.  A
           SIGTERM checkpoint exit (exit 143 inside Step.drive) runs
           [at_exit] handlers but no finaliser, and must not lose the
           trace or the stream recorded so far — the interrupted half is
           exactly what isr_obs steps inspects before a resume.  The
           normal post-run export writes the stream itself. *)
        let events_flushed = ref false in
        at_exit (fun () ->
            Option.iter (fun (_, close) -> try close () with Sys_error _ -> ()) chrome;
            match (recorder, events) with
            | Some r, Some f when not !events_flushed -> (
              match open_out f with
              | oc ->
                Isr_obs.Event.write_jsonl r oc;
                close_out oc
              | exception Sys_error _ -> ())
            | _ -> ());
        (* The flight recorder covers the same region (and the signal
           handlers stay live until process exit); its rings also flip
           [Event.enabled] on, so --flight works without --events. *)
        (match flight with
        | None -> ()
        | Some cap ->
          let dir =
            match ledger with
            | Some d ->
              (try if not (Sys.file_exists d) then Unix.mkdir d 0o755
               with Unix.Unix_error _ -> ());
              Filename.concat d "events"
            | None -> "."
          in
          Isr_obs.Flight.arm ?capacity:(if cap > 0 then Some cap else None) ~dir ();
          Isr_obs.Flight.install_signals ());
        (* With --checkpoint, SIGTERM must reach a safe-point instead of
           killing the process outright (which is what the flight
           recorder's own handler, installed just above, would do): the
           handler requests a checkpoint and trips the cancel token, an
           in-flight SAT call unwinds with [Budget.Cancelled], and
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
          { Budget.time_limit = time;
            conflict_limit = conflicts;
            bound_limit = bound;
            reduce =
              { Isr_sat.Solver.default_reduce with
                enabled = not no_reduce;
                base = reduce_base;
              };
          }
        in
        (* The explicit kernel path: start (or restore) the instance and
           drive it with the checkpoint plumbing armed.  The cancel token
           must be ambient before [Step.start] so the engine's budget
           captures it. *)
        let drive model =
          Budget.with_cancel ckpt_cancel @@ fun () ->
          match Engine.stepper eng with
          | None -> assert false (* portfolio rejected above *)
          | Some p -> (
            match resume_ck with
            | Some ck -> (
              match Step.restore ~limits p model ck with
              | inst -> Step.drive ?checkpoint inst
              | exception Invalid_argument msg ->
                prerr_endline ("itpseq_mc: " ^ msg);
                exit 2)
            | None -> Step.drive ?checkpoint (Step.start ~limits p model))
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
            Fun.protect ~finally:unsubscribe @@ fun () ->
            Isr_obs.Flight.guard @@ fun () ->
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
        Isr_obs.Flight.disarm ();
        let stats = outcome.Isr_par.stats in
        write_metrics metrics stats;
        (match prof with
        | None -> ()
        | Some (_, snapshot) ->
          let root = snapshot () in
          (match profile_json with
          | Some path ->
            let oc = open_out_or_die path in
            output_string oc (Isr_obs.Profile.to_json root);
            output_char oc '\n';
            close_out oc
          | None -> ());
          if profile then begin
            (* Keep stdout machine-readable under --json. *)
            let fmt = if json then Format.err_formatter else Format.std_formatter in
            Format.fprintf fmt "%a@." (fun f n -> Isr_obs.Profile.pp f n) root
          end);
        if Isr_check.Level.on () && not json then
          Format.printf "%a@." Isr_check.Level.pp_summary ();
        (* Export the event stream and/or the ledger entry pointing at it. *)
        let write_events path r =
          let oc = open_out_or_die path in
          Isr_obs.Event.write_jsonl r oc;
          close_out oc
        in
        let open_ledger dir =
          try Isr_obs.Ledger.open_ dir
          with Sys_error msg ->
            prerr_endline ("itpseq_mc: " ^ msg);
            exit 2
        in
        let ledger_t = Option.map open_ledger ledger in
        let stored_events =
          match recorder with
          | None -> None
          | Some r -> (
            match (events, ledger_t) with
            | Some f, _ ->
              write_events f r;
              events_flushed := true;
              Some f
            | None, Some lg ->
              (* No explicit file: park the stream inside the ledger's
                 events/ directory, keyed by instance and wall clock. *)
              let rel =
                Printf.sprintf "events/%s-%d.jsonl" original.Model.name
                  (int_of_float (Unix.gettimeofday () *. 1000.0))
              in
              write_events (Isr_obs.Ledger.resolve lg rel) r;
              Some rel
            | None, None -> None)
        in
        (match ledger_t with
        | None -> ()
        | Some lg ->
          (* The ledger identifies the run by the instance the user asked
             to verify, not by the analyzer's rewrite of it — otherwise
             analyzed and plain runs of one design would never diff as
             the same property cone. *)
          let config =
            Isr_obs.Ledger.fingerprint
              [
                ("time", Printf.sprintf "%g" time);
                ("bound", string_of_int bound);
                ("conflicts", string_of_int conflicts);
                ("par",
                 match par with None -> "seq" | Some 0 -> "auto" | Some j -> string_of_int j);
                ("analyze",
                 match analyze with
                 | None -> "off"
                 | Some m -> Isr_analyze.mode_to_string m);
              ]
          in
          let stored =
            Isr_exp.Runner.ledger_record ~config ?events_path:stored_events
              ?profile_path:profile_json lg
              {
                Isr_exp.Runner.bench = original.Model.name;
                engine_name = Engine.name eng;
                instance_hash = Isr_fraig.Fraig.property_hash original;
                verdict = outcome.verdict;
                stats;
              }
          in
          if not json then
            Format.printf "ledger: %s @@ %s@." stored.Isr_obs.Ledger.id
              (Isr_obs.Ledger.dir lg));
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
            (json_of_verdict ~model_name:outcome.model.Model.name
               ~engine_name:(Engine.name eng) verdict stats certified)
        end;
        (match verdict with
        | Verdict.Falsified { trace; _ } ->
          if witness then Format.fprintf out "%a@." Trace.pp trace;
          Option.iter
            (fun path ->
              Out_channel.with_open_text path (fun oc ->
                  Out_channel.output_string oc (Aiger.witness_to_string outcome.model trace));
              Format.fprintf out "witness written to %s@." path)
            witness_file
        | _ -> ());
        Option.iter (Format.fprintf out "%s@.") note;
        code))
  in
  Term.(
    const run $ verbose_arg $ file_arg $ name_arg $ engine_arg $ time_arg $ bound_arg
    $ conflicts_arg $ witness_arg $ analyze_arg $ compact_arg $ certify_arg $ property_arg
    $ witness_file_arg $ json_arg $ trace_arg $ metrics_arg $ events_arg $ ledger_arg
    $ check_arg $ profile_arg
    $ profile_json_arg $ progress_arg $ par_arg $ no_reduce_arg
    $ reduce_base_arg $ flight_arg $ checkpoint_arg $ resume_arg)

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
