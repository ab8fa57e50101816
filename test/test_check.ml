(* Tests for the checking & certification subsystem: Certify failure
   paths, LRAT export round-trips through the independent checker,
   seeded-defect artifact linting, and the tiered sanitizer. *)

open Isr_sat
open Isr_aig
open Isr_model
open Isr_core
module Check = Isr_check.Level
module Diag = Isr_check.Diag

let lit v = Lit.pos v
let nlit v = Lit.of_var ~neg:true v
let checks ds = List.map (fun d -> d.Diag.check) ds
let has_check name ds = List.mem name (checks ds)

let counter_value name =
  Isr_obs.Metrics.value (Isr_obs.Metrics.counter (Check.metrics ()) name)

(* A 2-latch modulo-3 counter 00 -> 01 -> 10 -> 00; state 11 is
   unreachable and is the bad state.  No primary inputs, so the latch
   literals are AIG inputs 0 and 1. *)
let counter_model () =
  let man = Aig.create () in
  let b0 = Aig.fresh_input man in
  let b1 = Aig.fresh_input man in
  let model =
    {
      Model.name = "counter3";
      man;
      num_inputs = 0;
      num_latches = 2;
      next = [| Aig.and_ man (Aig.not_ b0) (Aig.not_ b1); Aig.and_ man b0 (Aig.not_ b1) |];
      init = [| false; false |];
      bad = Aig.and_ man b0 b1;
    }
  in
  (match Model.validate model with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "counter model invalid: %s" msg);
  (model, b0, b1)

(* --- Certify failure paths ------------------------------------------- *)

let failure =
  let pp fmt f = Certify.pp_failure fmt f in
  Alcotest.testable pp ( = )

let certify_result = Alcotest.(result unit failure)

let test_certify_ok () =
  let model, b0, b1 = counter_model () in
  let inv = Aig.not_ (Aig.and_ model.Model.man b0 b1) in
  Alcotest.check certify_result "inductive invariant certifies" (Ok ())
    (Certify.check model inv)

let test_certify_not_initial () =
  let model, b0, _ = counter_model () in
  (* b0 excludes the initial state 00. *)
  Alcotest.check certify_result "initiation fails" (Error Certify.Not_initial)
    (Certify.check model b0)

let test_certify_not_inductive () =
  let model, b0, b1 = counter_model () in
  (* Exactly the initial state: 00 steps to 01, leaving the set. *)
  let inv = Aig.and_ model.Model.man (Aig.not_ b0) (Aig.not_ b1) in
  Alcotest.check certify_result "consecution fails" (Error Certify.Not_inductive)
    (Certify.check model inv)

let test_certify_not_safe () =
  let model, _, _ = counter_model () in
  (* True is trivially initial and inductive but admits the bad state. *)
  Alcotest.check certify_result "safety fails" (Error Certify.Not_safe)
    (Certify.check model Aig.lit_true)

let test_certify_resource_out () =
  let model, b0, b1 = counter_model () in
  let inv = Aig.not_ (Aig.and_ model.Model.man b0 b1) in
  let limits = { Budget.time_limit = -1.0; conflict_limit = max_int; bound_limit = 1; reduce = Isr_sat.Solver.default_reduce } in
  Alcotest.check certify_result "expired budget reports Resource_out"
    (Error Certify.Resource_out)
    (Certify.check ~limits model inv)

(* --- LRAT export round-trips ------------------------------------------ *)

(* n+1 pigeons into n holes: variable i*n + j means pigeon i sits in
   hole j.  Unsatisfiable for every n >= 1. *)
let pigeonhole n =
  let v i j = (i * n) + j in
  let clauses = ref [] in
  for i = 0 to n do
    clauses := List.init n (fun j -> lit (v i j)) :: !clauses
  done;
  for j = 0 to n - 1 do
    for i = 0 to n do
      for i' = i + 1 to n do
        clauses := [ nlit (v i j); nlit (v i' j) ] :: !clauses
      done
    done
  done;
  ((n + 1) * n, !clauses)

let solve_clauses nvars clauses =
  let s = Solver.create () in
  for _ = 1 to nvars do
    ignore (Solver.new_var s)
  done;
  List.iter (fun c -> Solver.add_clause s c) clauses;
  (s, Solver.solve s)

let refuted_proof nvars clauses =
  let s, r = solve_clauses nvars clauses in
  Alcotest.(check bool) "instance is unsat" true (r = Solver.Unsat);
  Solver.proof s

let roundtrip proof =
  Isr_check.Lrat_check.check_strings ~cnf:(Proof.to_dimacs proof)
    ~lrat:(Proof.to_lrat proof)

let test_lrat_pigeonhole () =
  let nvars, clauses = pigeonhole 3 in
  match roundtrip (refuted_proof nvars clauses) with
  | Error d -> Alcotest.failf "LRAT rejected: %a" Diag.pp d
  | Ok r ->
    Alcotest.(check bool) "derived steps present" true (r.Isr_check.Lrat_check.additions > 0)

let test_lrat_unit_conflict () =
  match roundtrip (refuted_proof 1 [ [ lit 0 ]; [ nlit 0 ] ]) with
  | Error d -> Alcotest.failf "LRAT rejected: %a" Diag.pp d
  | Ok r -> Alcotest.(check int) "one input pair" 2 r.Isr_check.Lrat_check.input_clauses

let test_lrat_unroll () =
  (* A refuted BMC instance exercises tagged (interpolation-partitioned)
     input clauses in the export. *)
  let model, _, _ = counter_model () in
  let u = Unroll.create model in
  Unroll.assert_init u ~tag:1;
  Unroll.add_transition u ~tag:1;
  Unroll.add_transition u ~tag:2;
  Unroll.assert_circuit u ~frame:2 ~tag:2 model.Model.bad;
  let s = Unroll.solver u in
  Alcotest.(check bool) "bad unreachable at depth 2" true (Solver.solve s = Solver.Unsat);
  match roundtrip (Solver.proof s) with
  | Error d -> Alcotest.failf "LRAT rejected: %a" Diag.pp d
  | Ok _ -> ()

let test_lrat_truncated () =
  let nvars, clauses = pigeonhole 3 in
  let proof = refuted_proof nvars clauses in
  let cnf = Proof.to_dimacs proof in
  let lines =
    Proof.to_lrat proof |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check bool) "proof has steps" true (List.length lines > 1);
  (* Drop the final step (the empty clause): the checker must notice the
     refutation never completes. *)
  let truncated =
    String.concat "\n" (List.filteri (fun i _ -> i < List.length lines - 1) lines)
  in
  match Isr_check.Lrat_check.check_strings ~cnf ~lrat:truncated with
  | Ok _ -> Alcotest.fail "truncated proof accepted"
  | Error d -> Alcotest.(check string) "check name" "lrat.truncated" d.Diag.check

let test_lrat_bogus_hint () =
  let proof = refuted_proof 1 [ [ lit 0 ]; [ nlit 0 ] ] in
  match
    Isr_check.Lrat_check.check_strings ~cnf:(Proof.to_dimacs proof) ~lrat:"3 0 99 0\n"
  with
  | Ok _ -> Alcotest.fail "bogus hint accepted"
  | Error d -> Alcotest.(check string) "check name" "lrat.unknown_hint" d.Diag.check

(* A reducing solver interleaves [d] lines into the export; the checker
   must enforce them (drop the clauses) and still accept the proof. *)
let test_lrat_deletions_roundtrip () =
  let nvars, clauses = pigeonhole 5 in
  let s = Solver.create () in
  Solver.set_reduce s { Solver.enabled = true; base = 30; growth = 1.1; keep_lbd = 2 };
  for _ = 1 to nvars do
    ignore (Solver.new_var s)
  done;
  List.iter (fun c -> Solver.add_clause s c) clauses;
  Alcotest.(check bool) "php 5 unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "reductions fired" true (Solver.num_reduces s > 0);
  let proof = Solver.proof s in
  Alcotest.(check bool) "proof records deletions" true
    (Array.length proof.Proof.deletions > 0);
  match roundtrip proof with
  | Error d -> Alcotest.failf "LRAT with deletions rejected: %a" Diag.pp d
  | Ok r ->
    Alcotest.(check bool) "export carries d lines" true
      (r.Isr_check.Lrat_check.deletions > 0)

(* Seeded defect: a proof that deletes a clause and then cites it as a
   hint.  Strict deletion semantics must reject the later step — a
   checker that ignores [d] lines would accept it. *)
let test_lrat_deleted_hint_rejected () =
  let cnf = "p cnf 1 2\n1 0\n-1 0\n" in
  let sound = "3 0 1 2 0\n" in
  (match Isr_check.Lrat_check.check_strings ~cnf ~lrat:sound with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "control proof rejected: %a" Diag.pp d);
  let defective = "2 d 2 0\n3 0 1 2 0\n" in
  match Isr_check.Lrat_check.check_strings ~cnf ~lrat:defective with
  | Ok _ -> Alcotest.fail "deleted clause accepted as a hint"
  | Error d -> Alcotest.(check string) "check name" "lrat.unknown_hint" d.Diag.check

(* --- seeded artifact defects ------------------------------------------ *)

let test_lint_aig_cycle () =
  (* and(4) = 6 & 2 and and(6) = 4 & 2: a 2-node combinational loop. *)
  let ds =
    Isr_check.Lint_aig.lint_aiger_string ~name:"cyclic"
      "aag 3 1 0 1 2\n2\n4\n4 6 2\n6 4 2\n"
  in
  Alcotest.(check bool) "cycle detected" true (has_check "aig.cycle" (Diag.errors ds))

let test_lint_aig_truncated () =
  let ds =
    Isr_check.Lint_aig.lint_aiger_string ~name:"short" "aag 2 0 0 1 2\n2\n"
  in
  Alcotest.(check bool) "truncation detected" true
    (has_check "aig.truncated" (Diag.errors ds))

let test_lint_aig_clean () =
  (* Single input wired to the output: nothing to complain about. *)
  let ds = Isr_check.Lint_aig.lint_aiger_string ~name:"buf" "aag 1 1 0 1 0\n2\n2\n" in
  Alcotest.(check bool) "no errors" false (Diag.has_errors ds)

let test_lint_itp_support () =
  (* One primary input, one latch.  An interpolant is a state predicate:
     mentioning the primary input is the seeded defect. *)
  let man = Aig.create () in
  let pi = Aig.fresh_input man in
  let latch = Aig.fresh_input man in
  let model =
    {
      Model.name = "io";
      man;
      num_inputs = 1;
      num_latches = 1;
      next = [| latch |];
      init = [| false |];
      bad = Aig.lit_false;
    }
  in
  Alcotest.(check bool) "latch predicate passes" false
    (Diag.has_errors (Isr_check.Lint_itp.check_state_predicate model latch));
  let leaky = Aig.and_ man pi latch in
  let ds = Isr_check.Lint_itp.check_state_predicate model leaky in
  Alcotest.(check bool) "leaked input flagged" true
    (has_check "itp.support" (Diag.errors ds))

let test_lint_itp_semantic () =
  let model, b0, b1 = counter_model () in
  let man = model.Model.man in
  let good = Aig.not_ (Aig.and_ man b0 b1) in
  Alcotest.(check bool) "correct interpolant passes" false
    (Diag.has_errors (Isr_check.Lint_itp.semantic model ~cut:1 ~k:2 good));
  (* b0 & b1 is unreachable, so Init /\ T certainly does not imply it. *)
  let ds = Isr_check.Lint_itp.semantic model ~cut:1 ~k:2 (Aig.and_ man b0 b1) in
  Alcotest.(check bool) "wrong interpolant refuted" true
    (has_check "itp.init_implication" (Diag.errors ds))

let mk_gate_context () =
  let man = Aig.create () in
  let a = Aig.fresh_input man in
  let b = Aig.fresh_input man in
  let g = Aig.and_ man a b in
  let solver = Solver.create () in
  let ctx =
    Isr_cnf.Tseitin.create ~man ~solver ~tag:1 ~input_lit:(fun _ ->
        Lit.pos (Solver.new_var solver))
  in
  ignore (Isr_cnf.Tseitin.lit ctx g);
  (solver, ctx)

let test_lint_cnf_clean () =
  let _, ctx = mk_gate_context () in
  Alcotest.(check (list string)) "clean context" []
    (checks (Isr_check.Lint_cnf.check_context ctx))

let test_lint_cnf_orphan () =
  let solver, ctx = mk_gate_context () in
  (* A clause under the audited tag over a variable no node maps to. *)
  Solver.add_clause solver ~tag:1 [ Lit.pos (Solver.new_var solver) ];
  let ds = Isr_check.Lint_cnf.check_context ctx in
  Alcotest.(check bool) "orphan variable flagged" true
    (has_check "cnf.orphan_var" (Diag.errors ds))

let test_lint_cnf_injective () =
  let man = Aig.create () in
  let a = Aig.fresh_input man in
  let b = Aig.fresh_input man in
  let g = Aig.and_ man a b in
  let solver = Solver.create () in
  let shared = Lit.pos (Solver.new_var solver) in
  (* Both inputs collapse onto one solver variable. *)
  let ctx = Isr_cnf.Tseitin.create ~man ~solver ~tag:1 ~input_lit:(fun _ -> shared) in
  ignore (Isr_cnf.Tseitin.lit ctx g);
  let ds = Isr_check.Lint_cnf.check_context ctx in
  Alcotest.(check bool) "non-injective var map flagged" true
    (has_check "cnf.var_map_injective" (Diag.errors ds))

let test_lint_dimacs () =
  Alcotest.(check (list string)) "well-formed" []
    (checks (Isr_check.Lrat_check.lint_dimacs "p cnf 2 2\n1 -2 0\n2 0\n"));
  Alcotest.(check bool) "bad header rejected" true
    (Diag.has_errors (Isr_check.Lrat_check.lint_dimacs "p cnf nope\n1 0\n"))

(* --- the tiered sanitizer --------------------------------------------- *)

(* The sanitizer level is process-global; every test here restores Off. *)
let with_level level f =
  Check.reset_metrics ();
  Check.set level;
  Fun.protect ~finally:(fun () -> Check.set Check.Off) f

let test_level_metering () =
  with_level Check.Fast @@ fun () ->
  Check.check "unit.t" true;
  Check.check "unit.t" true;
  Alcotest.(check int) "passes metered" 2 (counter_value "check.unit.t.pass");
  (match Check.check "unit.t" false ~detail:(fun () -> "boom") with
  | () -> Alcotest.fail "failing check did not raise"
  | exception Check.Violation { check; detail } ->
    Alcotest.(check string) "violation names the check" "unit.t" check;
    Alcotest.(check string) "detail forced" "boom" detail);
  Alcotest.(check int) "failure metered" 1 (counter_value "check.unit.t.fail")

let test_level_off_is_noop () =
  with_level Check.Off @@ fun () ->
  Check.check "unit.off" false ~detail:(fun () -> Alcotest.fail "detail forced at Off");
  Check.probe "unit.off" (fun () -> Alcotest.fail "probe evaluated at Off");
  Alcotest.(check int) "nothing metered" 0 (counter_value "check.unit.off.pass")

let test_level_paranoid_probe () =
  with_level Check.Fast (fun () ->
      Check.probe_paranoid "unit.p" (fun () -> Alcotest.fail "paranoid probe ran at Fast"));
  with_level Check.Paranoid (fun () ->
      Check.probe_paranoid "unit.p" (fun () -> true);
      Alcotest.(check int) "paranoid probe metered" 1 (counter_value "check.unit.p.pass"))

let test_solver_proof_replay () =
  with_level Check.Paranoid @@ fun () ->
  let nvars, clauses = pigeonhole 3 in
  let _, r = solve_clauses nvars clauses in
  Alcotest.(check bool) "unsat" true (r = Solver.Unsat);
  Alcotest.(check bool) "proof replay metered" true
    (counter_value "check.sat.proof_replay.pass" > 0)

(* The watch-list probe runs at every Paranoid solve boundary, and only
   there; a reduction-heavy solve makes it see rebuilt watch lists. *)
let test_solver_watch_probe () =
  let nvars, clauses = pigeonhole 5 in
  let solve () =
    let s = Solver.create () in
    Solver.set_reduce s { Solver.enabled = true; base = 20; growth = 1.1; keep_lbd = 0 };
    for _ = 1 to nvars do
      ignore (Solver.new_var s)
    done;
    List.iter (fun c -> Solver.add_clause s c) clauses;
    let r = Solver.solve s in
    Alcotest.(check bool) "unsat" true (r = Solver.Unsat);
    Alcotest.(check bool) "reductions fired" true (Solver.num_reduces s > 0)
  in
  with_level Check.Fast (fun () ->
      solve ();
      Alcotest.(check int) "not probed at fast" 0
        (counter_value "check.sat.watches_consistent.pass"));
  with_level Check.Paranoid (fun () ->
      solve ();
      Alcotest.(check bool) "watch invariant probed" true
        (counter_value "check.sat.watches_consistent.pass" > 0))

let test_engine_paranoid () =
  (* One safe suite instance end-to-end under Paranoid: the itpseq engine
     proves it while every emitted interpolant is linted. *)
  with_level Check.Paranoid @@ fun () ->
  let entry =
    match Isr_suite.Registry.find "vending11" with
    | Some e -> e
    | None -> Alcotest.fail "vending11 missing from registry"
  in
  let model = Isr_suite.Registry.build_validated entry in
  let engine =
    match Engine.of_name "itpseq" with
    | Ok e -> e
    | Error msg -> Alcotest.failf "no itpseq engine: %s" msg
  in
  (match Engine.run engine model with
  | Verdict.Proved _, _ -> ()
  | v, _ -> Alcotest.failf "expected Proved, got %a" Verdict.pp v);
  Alcotest.(check bool) "interpolants were linted" true
    (counter_value "check.itp.support.pass" > 0);
  Alcotest.(check bool) "proofs were replayed" true
    (counter_value "check.sat.proof_replay.pass" > 0);
  Alcotest.(check bool) "watch lists were checked" true
    (counter_value "check.sat.watches_consistent.pass" > 0);
  Alcotest.(check bool) "inclusion answers were re-decided" true
    (counter_value "check.incl.incremental_agrees.pass" > 0)

let () =
  Alcotest.run "check"
    [
      ( "certify",
        [
          Alcotest.test_case "inductive invariant" `Quick test_certify_ok;
          Alcotest.test_case "not initial" `Quick test_certify_not_initial;
          Alcotest.test_case "not inductive" `Quick test_certify_not_inductive;
          Alcotest.test_case "not safe" `Quick test_certify_not_safe;
          Alcotest.test_case "resource out" `Quick test_certify_resource_out;
        ] );
      ( "lrat",
        [
          Alcotest.test_case "pigeonhole round-trip" `Quick test_lrat_pigeonhole;
          Alcotest.test_case "unit conflict round-trip" `Quick test_lrat_unit_conflict;
          Alcotest.test_case "unroll round-trip" `Quick test_lrat_unroll;
          Alcotest.test_case "truncated proof rejected" `Quick test_lrat_truncated;
          Alcotest.test_case "bogus hint rejected" `Quick test_lrat_bogus_hint;
          Alcotest.test_case "deletions round-trip" `Quick test_lrat_deletions_roundtrip;
          Alcotest.test_case "deleted hint rejected" `Quick test_lrat_deleted_hint_rejected;
        ] );
      ( "lint",
        [
          Alcotest.test_case "aig cycle" `Quick test_lint_aig_cycle;
          Alcotest.test_case "aig truncated" `Quick test_lint_aig_truncated;
          Alcotest.test_case "aig clean" `Quick test_lint_aig_clean;
          Alcotest.test_case "itp support" `Quick test_lint_itp_support;
          Alcotest.test_case "itp semantic" `Quick test_lint_itp_semantic;
          Alcotest.test_case "cnf clean" `Quick test_lint_cnf_clean;
          Alcotest.test_case "cnf orphan var" `Quick test_lint_cnf_orphan;
          Alcotest.test_case "cnf var map" `Quick test_lint_cnf_injective;
          Alcotest.test_case "dimacs" `Quick test_lint_dimacs;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "metering" `Quick test_level_metering;
          Alcotest.test_case "off is no-op" `Quick test_level_off_is_noop;
          Alcotest.test_case "paranoid probe" `Quick test_level_paranoid_probe;
          Alcotest.test_case "solver proof replay" `Quick test_solver_proof_replay;
          Alcotest.test_case "solver watch probe" `Quick test_solver_watch_probe;
          Alcotest.test_case "engine end-to-end" `Quick test_engine_paranoid;
        ] );
    ]
