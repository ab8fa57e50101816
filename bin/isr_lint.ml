(* isr_lint — static analysis of verification artifacts: AIGER / BTOR2 /
   ISL netlists, DIMACS CNF files, LRAT proofs (against their CNF), and
   the generated benchmark suite.  With --check fast|paranoid each model
   is additionally exercised through the sanitized unroll/solve/interpolate
   pipeline.  Exit codes: 0 clean (warnings allowed), 1 error
   diagnostics, 2 sanitizer violation. *)

open Cmdliner
open Isr_sat
open Isr_model
module Check = Isr_check.Level
module Diag = Isr_check.Diag

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* Sanitized end-to-end exercise of one model: unroll [bound] steps,
   assert Bad at the last frame, solve under a conflict budget — every
   sanitizer probe on the path fires — and when the instance is refuted,
   lint a cut-1 interpolant and round-trip the proof through the LRAT
   export and the independent checker.  A private Tseitin context of the
   bad cone is audited clause by clause either way. *)
let exercise model ~bound ~budget =
  let ds = ref [] in
  (* Deliberately aggressive learnt-database reduction: lint instances
     are tiny, so the default trigger would never fire and the
     deletion-aware LRAT path ([d] lines, strict checker semantics)
     would go unexercised. *)
  let u = Unroll.create ~reduce:{ Solver.default_reduce with base = 10 } ~proof:true model in
  Unroll.assert_init u ~tag:1;
  for _ = 1 to bound do
    Unroll.add_transition u ~tag:1
  done;
  Unroll.assert_circuit u ~frame:bound ~tag:2 model.Model.bad;
  (match Solver.solve ~conflict_budget:budget (Unroll.solver u) with
  | Solver.Sat | Solver.Undef -> ()
  | Solver.Unsat ->
    let proof = Solver.proof (Unroll.solver u) in
    let itp =
      Isr_itp.Itp.interpolant proof ~cut:1 ~man:model.Model.man
        ~var_map:(Unroll.boundary_map u ~frame:bound)
    in
    ds := Isr_check.Lint_itp.check_state_predicate model itp;
    (match
       Isr_check.Lrat_check.check_strings ~cnf:(Proof.to_dimacs proof)
         ~lrat:(Proof.to_lrat proof)
     with
    | Ok _ -> ()
    | Error d -> ds := d :: !ds));
  let solver = Solver.create () in
  let ctx =
    Isr_cnf.Tseitin.create ~man:model.Model.man ~solver ~tag:1 ~input_lit:(fun _ ->
        Lit.pos (Solver.new_var solver))
  in
  ignore (Isr_cnf.Tseitin.lit ctx model.Model.bad);
  !ds @ Isr_check.Lint_cnf.check_context ctx

(* The deeper passes shared by every parsed model: interpolant-style
   support confinement when --shared-inputs is given, and the sanitized
   exercise when a check level is on. *)
let deep ~shared_inputs ~bound ~budget model =
  let ds =
    match shared_inputs with
    | None -> []
    | Some n ->
      Isr_check.Lint_aig.lint_cone ~check:"itp.support" model.Model.man
        ~shared:(fun i -> i < n)
        model.Model.bad
  in
  if Check.on () then ds @ exercise model ~bound ~budget else ds

let lint_parsed ~shared_inputs ~bound ~budget models =
  List.concat_map
    (fun m -> Isr_check.Lint_aig.lint_model m @ deep ~shared_inputs ~bound ~budget m)
    models

let load_models path =
  if not (Sys.file_exists path) then
    Error [ Diag.error ~check:"lint.io" ~loc:path "no such file" ]
  else
    let parsed check = Result.map_error (fun msg -> [ Diag.error ~check ~loc:path msg ]) in
    match String.lowercase_ascii (Filename.extension path) with
    | ".aag" | ".aig" -> parsed "aig.parse" (Aiger.parse_string_multi ~name:path (read_file path))
    | ".isl" -> parsed "isl.parse" (Isr_isl.Isl.parse_file path)
    | ".btor" | ".btor2" -> parsed "btor.parse" (Isr_btor.Btor2.parse_file path)
    | ext ->
      Error
        [
          Diag.errorf ~check:"lint.unknown_format" ~loc:path
            ~hint:"static analysis reads netlists: .aag .aig .isl .btor .btor2"
            "unrecognized model extension %S" ext;
        ]

let lint_file ~cnf ~shared_inputs ~bound ~budget path =
  if not (Sys.file_exists path) then
    [ Diag.error ~check:"lint.io" ~loc:path "no such file" ]
  else
    match String.lowercase_ascii (Filename.extension path) with
    | ".aag" | ".aig" -> (
      let netlist = Aiger.decode (read_file path) in
      let ds = Isr_check.Lint_aig.lint_netlist netlist in
      (* The deeper passes need a clean netlist. *)
      if Diag.has_errors ds then ds
      else
        match Aiger.models ~name:path netlist with
        | Error msg -> ds @ [ Diag.error ~check:"aig.parse" ~loc:path msg ]
        | Ok models ->
          ds @ List.concat_map (deep ~shared_inputs ~bound ~budget) models)
    | ".isl" | ".btor" | ".btor2" -> (
      match load_models path with
      | Ok models -> lint_parsed ~shared_inputs ~bound ~budget models
      | Error ds -> ds)
    | ".cnf" | ".dimacs" -> Isr_check.Lrat_check.lint_dimacs (read_file path)
    | ".lrat" -> (
      match cnf with
      | None ->
        [
          Diag.error ~check:"lint.usage" ~loc:path
            ~hint:"pass --cnf FILE naming the DIMACS input"
            "an LRAT proof can only be checked against its CNF";
        ]
      | Some cnf_path -> (
        match
          Isr_check.Lrat_check.check_strings ~cnf:(read_file cnf_path)
            ~lrat:(read_file path)
        with
        | Ok r ->
          Format.printf "%s: proof verified (%d input clauses, %d additions, %d deletions)@."
            path r.Isr_check.Lrat_check.input_clauses r.additions r.deletions;
          []
        | Error d -> [ d ]))
    | ext ->
      [
        Diag.errorf ~check:"lint.unknown_format" ~loc:path
          ~hint:"recognized: .aag .aig .isl .btor .btor2 .cnf .dimacs .lrat"
          "unrecognized artifact extension %S" ext;
      ]

(* One pass of a command over FILEs and --suite entries: [file] and
   [entry] print their diagnostics through [report], under [guard], which
   counts a sanitizer violation.  Prints the totals and returns the exit
   code: 0 clean (warnings allowed), 1 error diagnostics, 2 violation. *)
let session ~title level files suite ~file ~entry =
  Check.set level;
  let errors = ref 0 and warnings = ref 0 and violations = ref 0 in
  let report label ds =
    List.iter
      (fun d ->
        if Diag.is_error d then incr errors else incr warnings;
        Format.printf "%s: %a@." label Diag.pp d)
      ds
  in
  let guard label f =
    try f ()
    with Check.Violation { check; detail } ->
      incr violations;
      Format.printf "%s: violation [%s] %s@." label check detail
  in
  List.iter (file ~report ~guard) files;
  let entries =
    match suite with
    | None -> []
    | Some "all" -> Isr_suite.Registry.fig6
    | Some name -> (
      match Isr_suite.Registry.find name with
      | Some e -> [ e ]
      | None ->
        report ("suite:" ^ name)
          [ Diag.error ~check:"lint.usage" "unknown suite entry" ];
        [])
  in
  List.iter (fun e -> entry ~report ~guard ("suite:" ^ e.Isr_suite.Registry.name) e) entries;
  Format.printf "%s: %d error%s, %d warning%s" title !errors
    (if !errors = 1 then "" else "s")
    !warnings
    (if !warnings = 1 then "" else "s");
  if Check.on () then Format.printf " (%a)" Check.pp_summary ();
  Format.printf "@.";
  if !violations > 0 then 2 else if !errors > 0 then 1 else 0

let run level files cnf suite shared_inputs bound budget =
  session ~title:"isr_lint" level files suite
    ~file:(fun ~report ~guard path ->
      guard path (fun () -> report path (lint_file ~cnf ~shared_inputs ~bound ~budget path)))
    ~entry:(fun ~report ~guard label e ->
      guard label (fun () ->
          report label
            (match Isr_suite.Registry.build_validated e with
            | model -> lint_parsed ~shared_inputs ~bound ~budget [ model ]
            | exception Invalid_argument msg -> [ Diag.error ~check:"aig.support" msg ])))

(* --- analyze: the certified preprocessing pipeline as a linter -------- *)

let analyze_run level mode files suite =
  let analyze_model ~report ~guard label model =
    guard label (fun () ->
        let r = Isr_analyze.run ~mode model in
        Format.printf "%s:@.%a@." label Isr_analyze.pp_summary r;
        report label r.Isr_analyze.diags)
  in
  session ~title:"isr_lint analyze" level files suite
    ~file:(fun ~report ~guard path ->
      match load_models path with
      | Error ds -> report path ds
      | Ok models -> List.iter (analyze_model ~report ~guard path) models)
    ~entry:(fun ~report ~guard label e ->
      match Isr_suite.Registry.build_validated e with
      | model -> analyze_model ~report ~guard label model
      | exception Invalid_argument msg -> report label [ Diag.error ~check:"aig.support" msg ])

let level_arg =
  let level_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Check.of_string s)),
        fun fmt l -> Format.pp_print_string fmt (Check.to_string l) )
  in
  Arg.(
    value
    & opt level_conv Isr_check.Fast
    & info [ "check" ] ~docv:"LEVEL"
        ~doc:"Sanitizer level for the model exercise: off, fast or paranoid.")

let files_arg = Arg.(value & pos_all string [] & info [] ~docv:"FILE")

let cnf_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cnf" ] ~docv:"FILE" ~doc:"DIMACS file the .lrat arguments are checked against.")

let suite_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "suite" ] ~docv:"NAME"
        ~doc:"Lint a generated benchmark instance by registry name, or 'all'.")

let shared_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shared-inputs" ] ~docv:"N"
        ~doc:
          "Treat each model as an interpolant artifact: its property cone may only \
           depend on the first $(docv) inputs (the shared variables).")

let bound_arg =
  Arg.(
    value & opt int 4
    & info [ "bound" ] ~docv:"K" ~doc:"Unrolling depth of the sanitized model exercise.")

let budget_arg =
  Arg.(
    value & opt int 20_000
    & info [ "conflicts" ] ~docv:"N" ~doc:"Conflict budget per exercise solve.")

let mode_arg =
  let mode_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Isr_analyze.mode_of_string s)),
        fun fmt m -> Format.pp_print_string fmt (Isr_analyze.mode_to_string m) )
  in
  Arg.(
    value
    & opt mode_conv Isr_analyze.Full
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Pass selection: $(b,fast) (constant propagation, dangling-logic \
           removal, cone-of-influence) or $(b,full) (additionally SAT sweeping; \
           the default — lint runs are offline).")

let lint_term =
  Term.(
    const run $ level_arg $ files_arg $ cnf_arg $ suite_arg $ shared_arg $ bound_arg
    $ budget_arg)

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the certified static-analysis pipeline over models and report \
          per-pass diagnostics (stuck-at latches, dropped logic, semantic \
          merges) and reduction statistics.  Exit codes follow lint: 0 clean, \
          1 error diagnostics, 2 sanitizer violation.")
    Term.(const analyze_run $ level_arg $ mode_arg $ files_arg $ suite_arg)

let () =
  let info = Cmd.info "isr_lint" ~doc:"Lint verification artifacts and check proofs" in
  exit
    (Cmd.eval'
       (Cmd.group ~default:lint_term info
          [ Cmd.v (Cmd.info "lint" ~doc:"Lint artifacts (the default)") lint_term; analyze_cmd ]))
