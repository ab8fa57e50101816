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
      frames = Frame_cnf.cache ();
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
  let u = Unroll.create ~proof:true model in
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

(* Seeded bad provenance: the first addition keeps its literals but cites
   input clause 1 as its only hint.  Clause 1 exists, so only replaying
   the hints (not looking them up) can reject the step — a checker that
   trusted derived clauses would accept the tampered certificate. *)
let test_lrat_tampered_hint () =
  let nvars, clauses = pigeonhole 3 in
  let proof = refuted_proof nvars clauses in
  let cnf = Proof.to_dimacs proof in
  let lines =
    Proof.to_lrat proof |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  (match Isr_check.Lrat_check.check_strings ~cnf ~lrat:(String.concat "\n" lines) with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "control proof rejected: %a" Diag.pp d);
  let is_addition line =
    match String.split_on_char ' ' line with _ :: "d" :: _ -> false | _ -> true
  in
  let first = ref true in
  let tampered =
    List.map
      (fun line ->
        if not (!first && is_addition line) then line
        else begin
          first := false;
          match String.split_on_char ' ' line with
          | id :: rest ->
            let rec lits acc = function
              | "0" :: _ | [] -> List.rev acc
              | t :: tl -> lits (t :: acc) tl
            in
            let broken = String.concat " " ((id :: lits [] rest) @ [ "0"; "1"; "0" ]) in
            Alcotest.(check bool) "hints changed" true (broken <> line);
            broken
          | [] -> line
        end)
      lines
  in
  match Isr_check.Lrat_check.check_strings ~cnf ~lrat:(String.concat "\n" tampered) with
  | Ok _ -> Alcotest.fail "tampered hints accepted"
  | Error d ->
    let check = d.Diag.check in
    Alcotest.(check bool) ("an lrat replay check fired: " ^ check) true
      (String.length check > 5
      && String.sub check 0 5 = "lrat."
      && check <> "lrat.unknown_hint")

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
    (Proof.n_deletions proof > 0);
  match roundtrip proof with
  | Error d -> Alcotest.failf "LRAT with deletions rejected: %a" Diag.pp d
  | Ok r ->
    Alcotest.(check bool) "export carries d lines" true
      (r.Isr_check.Lrat_check.deletions > 0)

(* A view fixes what it reads when it is made.  The log below refutes
   x, (not x or y), (not y) with one unused derived step and two
   deletions; afterwards it grows to several times its initial capacity
   in steps, words and deletion events, so every array it owns is
   reallocated.  Views made before the growth (one queried before it,
   one only after) must answer exactly as before, and a view of the
   grown log must read the same first steps. *)
let test_view_survives_growth () =
  let log = Proof_log.create () in
  let x = 0 and y = 1 in
  let c0 = Proof_log.add_input log ~tag:1 [| lit x |] in
  let c1 = Proof_log.add_input log ~tag:1 [| nlit x; lit y |] in
  let c2 = Proof_log.add_input log ~tag:2 [| nlit y |] in
  let chain pivot aid = Vec.of_array [| pivot; aid |] in
  let unused = Proof_log.add_derived log ~lits:[| nlit x |] ~first:c1 ~chain:(chain y c2) in
  Proof_log.delete log unused;
  let d = Proof_log.add_derived log ~lits:[| lit y |] ~first:c1 ~chain:(chain x c0) in
  Proof_log.delete log c1;
  let empty = Proof_log.add_derived log ~lits:[||] ~first:d ~chain:(chain y c2) in
  let nsteps = Proof_log.n_steps log in
  let view () = Proof_log.view log ~empty ~nvars:2 in
  let answers p =
    (Array.to_list (Proof.used p), Proof.core p, Proof.to_dimacs p, Proof.to_lrat p)
  in
  let early = view () and lazy_view = view () in
  let before = answers early in
  let accepted p =
    match Isr_check.Lrat_check.check_strings ~cnf:(Proof.to_dimacs p) ~lrat:(Proof.to_lrat p) with
    | Ok r -> r.Isr_check.Lrat_check.deletions > 0
    | Error d -> Alcotest.failf "LRAT rejected: %a" Diag.pp d
  in
  Alcotest.(check bool) "export accepted with its deletions" true (accepted early);
  for i = 0 to 499 do
    let id = Proof_log.add_input log ~tag:3 [| lit (i mod 7); nlit ((i + 1) mod 7); lit 9 |] in
    if i mod 2 = 0 then Proof_log.delete log id
  done;
  Alcotest.(check bool) "log grew" true
    (Proof_log.n_steps log > 8 * nsteps && Proof_log.n_deletions log > 200);
  let show (used, core, cnf, lrat) =
    Printf.sprintf "used=%s core=%s\n%s%s"
      (String.concat "," (List.map string_of_int used))
      (String.concat "," (List.map string_of_int core))
      cnf lrat
  in
  Alcotest.(check string) "early view unchanged" (show before) (show (answers early));
  Alcotest.(check string) "lazy view unchanged" (show before) (show (answers lazy_view));
  Alcotest.(check bool) "export still accepted" true (accepted early);
  let grown = view () in
  Alcotest.(check int) "grown view sees the appended steps" (Proof_log.n_steps log)
    (Proof.n_steps grown);
  for id = 0 to nsteps - 1 do
    Alcotest.(check bool) (Printf.sprintf "step %d reads the same" id) true
      (Proof.step early id = Proof.step grown id)
  done

(* Pages.  A small refutation is viewed while the first page is still
   small; then filler inputs fill that page to exactly its last word, and
   a second refutation follows whose input clause and derived empty
   clause are each longer than a page.  Both views read back every
   record as written, their exports pass the LRAT checker, the early one
   answers as before, and [bytes] counts the records' words alone. *)
let test_paged_log () =
  let log = Proof_log.create () in
  let w = Proof_log.page_words in
  let written = ref [] and words = ref 0 in
  let input ~tag lits =
    let id = Proof_log.add_input log ~tag (Array.copy lits) in
    written := (id, lits) :: !written;
    words := !words + 2 + Array.length lits;
    id
  in
  let derived lits ~first chain =
    let c = Vec.create () in
    List.iter (fun (pivot, aid) -> Vec.push c pivot; Vec.push c aid) chain;
    let id = Proof_log.add_derived log ~lits ~first ~chain:c in
    written := (id, lits) :: !written;
    words := !words + 3 + Array.length lits + (2 * List.length chain);
    id
  in
  let x = 0 and y = 1 in
  let c0 = input ~tag:1 [| lit x |] in
  let c1 = input ~tag:1 [| nlit x; lit y |] in
  let c2 = input ~tag:2 [| nlit y |] in
  let d = derived [| lit y |] ~first:c1 [ (x, c0) ] in
  Proof_log.delete log c1;
  let empty1 = derived [||] ~first:d [ (y, c2) ] in
  let n = w + 10 in
  let nvars = 2 + n in
  let early = Proof_log.view log ~empty:empty1 ~nvars in
  let answers p =
    (Array.to_list (Proof.used p), Proof.core p, Proof.to_dimacs p, Proof.to_lrat p)
  in
  let before = answers early in
  (* Fillers over x and y, sized so that the last one ends the first page. *)
  while !words < w do
    let nl = min 2 (w - !words - 2) in
    ignore (input ~tag:3 (Array.sub [| lit x; nlit y |] 0 nl))
  done;
  Alcotest.(check int) "first page filled to its last word" w !words;
  let long = Array.init n (fun i -> lit (2 + i)) in
  let c = input ~tag:1 long in
  let units = List.init n (fun i -> (2 + i, input ~tag:2 [| nlit (2 + i) |])) in
  let empty2 = derived [||] ~first:c units in
  let late = Proof_log.view log ~empty:empty2 ~nvars in
  Alcotest.(check int) "bytes count record words only"
    (8 * (!words + Proof_log.n_steps log + (2 * Proof_log.n_deletions log)))
    (Proof_log.bytes log);
  List.iter
    (fun (id, lits) ->
      if Proof.lits late id <> lits then Alcotest.failf "step %d reads back other literals" id)
    !written;
  Alcotest.(check int) "long derived chain" n (Proof.chain_length late empty2);
  Alcotest.(check bool) "early view unchanged" true (answers early = before);
  for id = 0 to Proof.n_steps early - 1 do
    if Proof.step early id <> Proof.step late id then Alcotest.failf "step %d differs" id
  done;
  List.iter
    (fun (what, p) ->
      match
        Isr_check.Lrat_check.check_strings ~cnf:(Proof.to_dimacs p) ~lrat:(Proof.to_lrat p)
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s export rejected: %a" what Diag.pp e)
    [ ("early", early); ("late", late) ]

(* A first record longer than doubling gives (600 literals against the
   first page's 256 words) takes the first page's size off the powers of
   two; it must still stop at the page size, or the records written past
   offset 2^16 in it get addresses that read as the next page.  Fillers
   take the log past 2^16 words, then the refutation of the long clause
   is appended: every record reads back, and the export passes the LRAT
   checker. *)
let test_long_first_record () =
  let log = Proof_log.create () in
  let n = 600 in
  let written = ref [] and words = ref 0 in
  let input ~tag lits =
    let id = Proof_log.add_input log ~tag (Array.copy lits) in
    written := (id, lits) :: !written;
    words := !words + 2 + Array.length lits;
    id
  in
  let long = input ~tag:1 (Array.init n (fun i -> lit (2 + i))) in
  let x = 0 and y = 1 in
  while !words < Proof_log.page_words + 1000 do
    ignore (input ~tag:3 [| lit x; nlit y |])
  done;
  let units = List.init n (fun i -> (2 + i, input ~tag:2 [| nlit (2 + i) |])) in
  let chain = Vec.create () in
  List.iter (fun (pivot, aid) -> Vec.push chain pivot; Vec.push chain aid) units;
  let empty = Proof_log.add_derived log ~lits:[||] ~first:long ~chain in
  let p = Proof_log.view log ~empty ~nvars:(2 + n) in
  List.iter
    (fun (id, lits) ->
      if Proof.lits p id <> lits then Alcotest.failf "step %d reads back other literals" id;
      if Proof_log.tag log id <> Proof.tag p id then Alcotest.failf "step %d: tags differ" id)
    !written;
  Alcotest.(check int) "chain reads back" n (Proof.chain_length p empty);
  Alcotest.(check int) "core is the long clause and its units" (n + 1)
    (List.length (Proof.core p));
  match Isr_check.Lrat_check.check_strings ~cnf:(Proof.to_dimacs p) ~lrat:(Proof.to_lrat p) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "export rejected: %a" Diag.pp e

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

let lint_aiger text = Isr_check.Lint_aig.lint_netlist (Aiger.decode text)

let test_lint_aig_cycle () =
  (* and(4) = 6 & 2 and and(6) = 4 & 2: a 2-node combinational loop. *)
  let ds =
    lint_aiger "aag 3 1 0 1 2\n2\n4\n4 6 2\n6 4 2\n"
  in
  Alcotest.(check bool) "cycle detected" true (has_check "aig.cycle" (Diag.errors ds))

let test_lint_aig_truncated () =
  let ds =
    lint_aiger "aag 2 0 0 1 2\n2\n"
  in
  Alcotest.(check bool) "truncation detected" true
    (has_check "aig.truncated" (Diag.errors ds))

(* The reader's hostile inputs, linted: each gets its error diagnostic
   at once, whatever count the header declares. *)
let test_lint_aig_hostile () =
  List.iter
    (fun (text, check) ->
      let ds = lint_aiger text in
      Alcotest.(check bool) (Printf.sprintf "%S: %s" text check) true
        (has_check check (Diag.errors ds)))
    [
      ("aag 3 1 1 1 1\n2\n4 6\n6\n6 2 -5\n", "aig.header");
      ("aag 42525637027882 1 0 1 0\n", "aig.truncated");
      ("aag 3 1 0 1 42525637027882\n2\n2\n", "aig.truncated");
      ("aag -4 1 0 1 0\n2\n2\n", "aig.header");
      ("aig 3 1 1 1 1\n-5\n6\n\x02\x02", "aig.header");
      (* Only M is huge, and binary requires M = I + L + A. *)
      ("aig 42525637027882 1 0 1 0\n2\n", "aig.header");
      ("aig 42525637027882 42525637027882 0 1 0\n2\n", "aig.truncated");
    ]

let test_lint_aig_clean () =
  (* Single input wired to the output: nothing to complain about. *)
  let ds = lint_aiger "aag 1 1 0 1 0\n2\n2\n" in
  Alcotest.(check bool) "no errors" false (Diag.has_errors ds)

(* Gate 2 reads the input and gate 3 reads only gate 2; the output is
   the input itself.  Both gates lie outside every output and
   next-state cone: a gate that only dead gates read is dead too, in
   either encoding. *)
let test_lint_aig_dead_chain () =
  List.iter
    (fun (form, text) ->
      let unreachable =
        List.filter (fun d -> d.Diag.check = "aig.unreachable") (lint_aiger text)
      in
      Alcotest.(check (list string)) (form ^ " dead gates")
        [ "2 and gates outside every output, bad and next-state cone" ]
        (List.map (fun d -> d.Diag.message) unreachable))
    [
      ("ascii", "aag 3 1 0 1 2\n2\n2\n4 2 2\n6 4 4\n");
      ("binary", "aig 3 1 0 1 2\n2\n\002\000\002\000");
    ]

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
      frames = Frame_cnf.cache ();
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
    (counter_value "check.incl.incremental_agrees.pass" > 0);
  (* vending11 has 4 latches, so its columns are truth tables: each one
     is checked against the circuit it replaces, and each table answer
     is re-decided by Incl on those circuits. *)
  Alcotest.(check bool) "column tables were checked" true
    (counter_value "check.itpseq.table_column.pass" > 0);
  Alcotest.(check bool) "table answers were re-decided" true
    (counter_value "check.itpseq.table_incl.pass" > 0);
  Alcotest.(check int) "no table mismatch" 0
    (counter_value "check.itpseq.table_column.fail" + counter_value "check.itpseq.table_incl.fail")

let test_compact_paranoid () =
  (* ITPSEQ compacts its columns at every bound on a model wider than
     the truth-table cap (ring12u9 has 12 latches, and its bug is at
     depth 9); under Paranoid each rebuilt column is decided equivalent
     to its original. *)
  with_level Check.Paranoid @@ fun () ->
  let model =
    match Isr_suite.Registry.find "ring12u9" with
    | Some e -> Isr_suite.Registry.build_validated e
    | None -> Alcotest.fail "ring12u9 missing from registry"
  in
  Alcotest.(check bool) "above the cap" true
    (model.Isr_model.Model.num_latches > Isr_aig.Truth.max_vars);
  (match Engine.run (Engine.Itpseq Bmc.Assume) model with
  | Verdict.Falsified { depth = 9; _ }, _ -> ()
  | v, _ -> Alcotest.failf "expected FAIL (depth=9), got %a" Verdict.pp v);
  Alcotest.(check bool) "compacted columns were checked" true
    (counter_value "check.itpseq.compact_equiv.pass" > 0);
  Alcotest.(check int) "no mismatch" 0 (counter_value "check.itpseq.compact_equiv.fail")

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
          Alcotest.test_case "tampered hint rejected" `Quick test_lrat_tampered_hint;
          Alcotest.test_case "deletions round-trip" `Quick test_lrat_deletions_roundtrip;
          Alcotest.test_case "deleted hint rejected" `Quick test_lrat_deleted_hint_rejected;
          Alcotest.test_case "view survives log growth" `Quick test_view_survives_growth;
          Alcotest.test_case "paged log" `Quick test_paged_log;
          Alcotest.test_case "long first record" `Quick test_long_first_record;
        ] );
      ( "lint",
        [
          Alcotest.test_case "aig cycle" `Quick test_lint_aig_cycle;
          Alcotest.test_case "aig truncated" `Quick test_lint_aig_truncated;
          Alcotest.test_case "aig hostile headers" `Quick test_lint_aig_hostile;
          Alcotest.test_case "aig clean" `Quick test_lint_aig_clean;
          Alcotest.test_case "aig dead gate chain" `Quick test_lint_aig_dead_chain;
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
          Alcotest.test_case "column compaction" `Quick test_compact_paranoid;
        ] );
    ]
