(* Tests for the proof-logging CDCL solver. *)

open Isr_sat

let lit v = Lit.pos v
let nlit v = Lit.of_var ~neg:true v

(* --- brute-force reference ------------------------------------------- *)

let brute_force nvars clauses =
  let sat = ref false in
  let n = 1 lsl nvars in
  for m = 0 to n - 1 do
    if not !sat then begin
      let value l =
        let v = Lit.var l in
        let bit = (m lsr v) land 1 = 1 in
        if Lit.is_neg l then not bit else bit
      in
      if List.for_all (fun c -> List.exists value c) clauses then sat := true
    end
  done;
  !sat

let solve_clauses ?proof nvars clauses =
  let s = Solver.create ?proof () in
  for _ = 1 to nvars do
    ignore (Solver.new_var s)
  done;
  List.iter (fun c -> Solver.add_clause s c) clauses;
  (s, Solver.solve s)

(* --- unit tests ------------------------------------------------------- *)

let test_empty_problem () =
  let _, r = solve_clauses 0 [] in
  Alcotest.(check bool) "empty problem is sat" true (r = Solver.Sat)

let test_empty_clause () =
  let s, r = solve_clauses 1 [ [] ] in
  Alcotest.(check bool) "empty clause is unsat" true (r = Solver.Unsat);
  let p = Solver.proof s in
  Alcotest.(check bool) "proof checks" true (Proof_check.check p = Ok ())

let test_unit_conflict () =
  let s, r = solve_clauses 1 [ [ lit 0 ]; [ nlit 0 ] ] in
  Alcotest.(check bool) "x and not x" true (r = Solver.Unsat);
  Alcotest.(check bool) "proof checks" true (Proof_check.check (Solver.proof s) = Ok ())

let test_simple_sat () =
  let s, r = solve_clauses 3 [ [ lit 0; lit 1 ]; [ nlit 0; lit 2 ]; [ nlit 1; nlit 2 ] ] in
  Alcotest.(check bool) "satisfiable" true (r = Solver.Sat);
  (* The model must satisfy every clause. *)
  let value l = Solver.lit_value s l in
  List.iter
    (fun c -> Alcotest.(check bool) "clause satisfied" true (List.exists value c))
    [ [ lit 0; lit 1 ]; [ nlit 0; lit 2 ]; [ nlit 1; nlit 2 ] ]

let test_model_respects_units () =
  let s, r = solve_clauses 2 [ [ lit 0 ]; [ nlit 1 ] ] in
  Alcotest.(check bool) "sat" true (r = Solver.Sat);
  Alcotest.(check bool) "v0 true" true (Solver.value s 0);
  Alcotest.(check bool) "v1 false" false (Solver.value s 1)

(* Pigeonhole: n+1 pigeons in n holes, always unsat.  Exercises real
   conflict analysis with restarts. *)
let pigeonhole n =
  let var p h = (p * n) + h in
  let clauses = ref [] in
  for p = 0 to n do
    clauses := List.init n (fun h -> lit (var p h)) :: !clauses
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        clauses := [ nlit (var p1 h); nlit (var p2 h) ] :: !clauses
      done
    done
  done;
  ((n + 1) * n, !clauses)

let test_pigeonhole () =
  List.iter
    (fun n ->
      let nv, cls = pigeonhole n in
      let s, r = solve_clauses nv cls in
      Alcotest.(check bool) (Printf.sprintf "php %d unsat" n) true (r = Solver.Unsat);
      match Proof_check.check (Solver.proof s) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "php %d proof: %a" n Proof_check.pp_error e)
    [ 2; 3; 4; 5 ]

(* Without proof logging the solver still refutes, but keeps nothing a
   proof could be rebuilt from — and says so instead of answering wrong. *)
let test_proof_free () =
  let nv, cls = pigeonhole 4 in
  let s, r = solve_clauses ~proof:false nv cls in
  Alcotest.(check bool) "php 4 unsat" true (r = Solver.Unsat);
  Alcotest.(check bool) "not refuted" false (Solver.refuted s);
  Alcotest.(check int) "no proof steps" 0 (Solver.proof_steps s);
  Alcotest.(check int) "no proof bytes" 0 (Solver.proof_bytes s);
  Alcotest.(check bool) "learnt clauses" true (Solver.num_learnt s > 0);
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "proof raises" true (raises (fun () -> Solver.proof s));
  Alcotest.(check bool) "input clauses raise" true
    (raises (fun () -> Solver.iter_input_clauses s (fun ~tag:_ _ -> ())))

(* Regression: collecting the core of a failed assumption left conflict-
   analysis marks on the propagated variables it walked through, and the
   next conflict on the same solver skipped them — here it learnt the
   unit ¬b from x → b, x → ¬b, so the last solve answered Unsat. *)
let test_core_leaves_no_marks () =
  let a = 0 and b = 1 and c = 2 and x = 3 in
  let s = Tutil.fresh_solver 4 in
  Solver.add_clause s [ nlit a; lit b ];
  Solver.add_clause s [ nlit b; lit c ];
  Alcotest.(check bool) "a, not c" true (Solver.solve ~assumptions:[ lit a; nlit c ] s = Solver.Unsat);
  Alcotest.(check (list int)) "core" [ -3; 1 ]
    (List.sort compare (List.map Lit.to_dimacs (Solver.unsat_core s)));
  Solver.add_clause s [ nlit x; lit b ];
  Solver.add_clause s [ nlit x; nlit b ];
  Alcotest.(check bool) "x" true (Solver.solve ~assumptions:[ lit x ] s = Solver.Unsat);
  Alcotest.(check bool) "b" true (Solver.solve ~assumptions:[ lit b ] s = Solver.Sat)

let test_chain_propagation () =
  (* x0 -> x1 -> ... -> x9, x0, ¬x9: unsat purely by propagation. *)
  let n = 10 in
  let clauses =
    [ lit 0 ] :: [ nlit (n - 1) ]
    :: List.init (n - 1) (fun i -> [ nlit i; lit (i + 1) ])
  in
  let s, r = solve_clauses n clauses in
  Alcotest.(check bool) "chain unsat" true (r = Solver.Unsat);
  Alcotest.(check bool) "proof checks" true (Proof_check.check (Solver.proof s) = Ok ())

let test_tautology_dropped () =
  let s, r = solve_clauses 2 [ [ lit 0; nlit 0 ]; [ lit 1 ] ] in
  Alcotest.(check bool) "sat" true (r = Solver.Sat);
  Alcotest.(check bool) "v1 true" true (Solver.value s 1);
  ignore s

let test_budget () =
  let nv, cls = pigeonhole 7 in
  let s = Solver.create () in
  for _ = 1 to nv do
    ignore (Solver.new_var s)
  done;
  List.iter (fun c -> Solver.add_clause s c) cls;
  let r = Solver.solve ~conflict_budget:5 s in
  (* php(7) needs far more than 5 conflicts. *)
  Alcotest.(check bool) "budget exhausts" true (r = Solver.Undef);
  (* The solver is resumable after an exhausted budget. *)
  let r2 = Solver.solve s in
  Alcotest.(check bool) "resumes to unsat" true (r2 = Solver.Unsat)

(* Incremental use: clauses added between solves, flipping the verdict. *)
let test_incremental () =
  let s = Solver.create () in
  let v0 = Solver.new_var s and v1 = Solver.new_var s in
  Solver.add_clause s [ Lit.pos v0; Lit.pos v1 ];
  Alcotest.(check bool) "sat initially" true (Solver.solve s = Solver.Sat);
  Solver.add_clause s [ Lit.neg (Lit.pos v0) ];
  Alcotest.(check bool) "still sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "model forced" true (Solver.value s v1);
  Solver.add_clause s [ Lit.neg (Lit.pos v1) ];
  Alcotest.(check bool) "now unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "proof checks" true (Proof_check.check (Solver.proof s) = Ok ())

let test_assumptions_basic () =
  let s = Solver.create () in
  let x = Lit.pos (Solver.new_var s) and y = Lit.pos (Solver.new_var s) in
  Solver.add_clause s [ Lit.neg x; y ];
  (* x -> y *)
  Alcotest.(check bool) "sat under x" true (Solver.solve ~assumptions:[ x ] s = Solver.Sat);
  Alcotest.(check bool) "y forced" true (Solver.lit_value s y);
  Alcotest.(check bool) "unsat under x,!y" true
    (Solver.solve ~assumptions:[ x; Lit.neg y ] s = Solver.Unsat);
  let core = Solver.unsat_core s in
  Alcotest.(check bool) "core mentions both" true
    (List.mem x core && List.mem (Lit.neg y) core);
  (* The solver is reusable afterwards. *)
  Alcotest.(check bool) "sat again" true (Solver.solve s = Solver.Sat)

let test_contradictory_assumptions () =
  let s = Solver.create () in
  let x = Lit.pos (Solver.new_var s) in
  Solver.add_clause s [ x; Lit.neg x ] |> ignore;
  Alcotest.(check bool) "unsat under x,!x" true
    (Solver.solve ~assumptions:[ x; Lit.neg x ] s = Solver.Unsat);
  let core = Solver.unsat_core s in
  Alcotest.(check bool) "core = both phases" true
    (List.mem x core && List.mem (Lit.neg x) core)

(* Regression: an always-true interrupt aborts the search with [Undef]
   even with no conflict budget, and clearing it resumes normally —
   the cancellation hook behind the parallel portfolio. *)
let test_interrupt () =
  (* php(7): thousands of conflicts, so the every-256-conflicts poll
     fires many times mid-search. *)
  let nv, cls = pigeonhole 7 in
  let s = Solver.create () in
  for _ = 1 to nv do
    ignore (Solver.new_var s)
  done;
  List.iter (fun c -> Solver.add_clause s c) cls;
  Solver.set_interrupt s (Some (fun () -> true));
  Alcotest.(check bool) "interrupted at entry" true (Solver.solve s = Solver.Undef);
  (* A counting poll flips to true mid-search: the solver must stop at
     its next poll, well before the refutation completes. *)
  let polls = ref 0 in
  Solver.set_interrupt s
    (Some
       (fun () ->
         incr polls;
         !polls > 2));
  Alcotest.(check bool) "interrupted mid-search" true (Solver.solve s = Solver.Undef);
  Solver.set_interrupt s None;
  Alcotest.(check bool) "resumes to unsat" true (Solver.solve s = Solver.Unsat)

(* --- learnt-database reduction ---------------------------------------- *)

(* An aggressive policy so php(6) — thousands of conflicts — triggers
   many reductions inside one solve. *)
let test_reduce_fires () =
  let nv, cls = pigeonhole 6 in
  let s = Solver.create () in
  Solver.set_reduce s { Solver.enabled = true; base = 30; growth = 1.1; keep_lbd = 2 };
  let deleted_total = ref 0 in
  let lbd_snapshots = ref 0 in
  let lbd_mismatches = ref 0 in
  let dead_mismatches = ref 0 in
  Solver.on_reduce s
    (Some
       (fun (ri : Solver.reduce_info) ->
         deleted_total := !deleted_total + ri.Solver.deleted;
         incr lbd_snapshots;
         (* The survivor snapshot must account for every kept learnt
            clause, and the victim histograms for every deleted one. *)
         if Array.fold_left ( + ) 0 ri.Solver.kept_lbd <> ri.Solver.kept then
           incr lbd_mismatches;
         let sum = Array.fold_left ( + ) 0 in
         if sum ri.Solver.dead_lbd <> ri.Solver.deleted then incr dead_mismatches;
         if sum ri.Solver.dead_uses <> ri.Solver.deleted then incr dead_mismatches;
         if sum ri.Solver.dead_drift <> ri.Solver.deleted then incr dead_mismatches));
  for _ = 1 to nv do
    ignore (Solver.new_var s)
  done;
  List.iter (fun c -> Solver.add_clause s c) cls;
  Alcotest.(check bool) "php 6 unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "reductions fired" true (Solver.num_reduces s > 0);
  Alcotest.(check bool) "observer saw deletions" true (!deleted_total > 0);
  Alcotest.(check bool) "lbd snapshots delivered" true (!lbd_snapshots > 0);
  Alcotest.(check int) "every lbd snapshot sums to kept" 0 !lbd_mismatches;
  Alcotest.(check int) "every dead histogram sums to deleted" 0 !dead_mismatches;
  let p = Solver.proof s in
  Alcotest.(check int) "every deletion logged" !deleted_total
    (Array.length p.Proof.deletions);
  (* The trimmed proof must still replay: reduction may only forget
     clauses the refutation does not need. *)
  match Proof_check.check p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "proof after reduction: %a" Proof_check.pp_error e

(* Clause-lifecycle sum pinning: the cumulative histograms must account
   for every clause ever born or deleted, and the proof core must be a
   per-bucket subset of everything born. *)
let test_clause_lifecycle_invariants () =
  let nv, cls = pigeonhole 6 in
  let s = Solver.create () in
  Solver.set_reduce s { Solver.enabled = true; base = 30; growth = 1.1; keep_lbd = 2 };
  for _ = 1 to nv do
    ignore (Solver.new_var s)
  done;
  List.iter (fun c -> Solver.add_clause s c) cls;
  Alcotest.(check bool) "php 6 unsat" true (Solver.solve s = Solver.Unsat);
  let sum = Array.fold_left ( + ) 0 in
  let born = Solver.num_learnt s and deleted = Solver.num_deleted s in
  Alcotest.(check bool) "clauses were born and deleted" true (born > 0 && deleted > 0);
  Alcotest.(check int) "kept + deleted = born" born
    (Solver.num_live_learnt s + deleted);
  Alcotest.(check int) "birth histogram sums to born" born
    (sum (Solver.birth_lbd_counts s));
  Alcotest.(check int) "death-LBD histogram sums to deleted" deleted
    (sum (Solver.dead_lbd_counts s));
  Alcotest.(check int) "uses histogram sums to deleted" deleted
    (sum (Solver.dead_uses_counts s));
  Alcotest.(check int) "drift histogram sums to deleted" deleted
    (sum (Solver.dead_drift_counts s));
  Alcotest.(check bool) "refutation exists" true (Solver.refuted s);
  let core = Solver.core_birth_lbd s and birth = Solver.birth_lbd_counts s in
  Alcotest.(check bool) "proof core is nonempty" true (sum core > 0);
  Alcotest.(check bool) "core within born" true (sum core <= born);
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) "core bucket within birth bucket" true (c <= birth.(i)))
    core

let test_set_reduce_validates () =
  let s = Solver.create () in
  (match Solver.set_reduce s { Solver.default_reduce with base = 0 } with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "base 0 accepted");
  match Solver.set_reduce s { Solver.default_reduce with growth = 0.5 } with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "growth below 1 accepted"

(* --- vectors ---------------------------------------------------------- *)

(* Regression: [of_array [||]] used to produce a zero-capacity backing
   array, and [grow] doubled 0 to 0 forever — the first push then wrote
   out of bounds. *)
let test_vec_empty_grows () =
  let v = Vec.of_array [||] in
  Alcotest.(check int) "empty" 0 (Vec.size v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "pushed" 100 (Vec.size v);
  for i = 0 to 99 do
    Alcotest.(check int) "element" i (Vec.get v i)
  done;
  let w = Vec.of_array [| 7 |] in
  Vec.push w 8;
  Alcotest.(check int) "kept" 7 (Vec.get w 0);
  Alcotest.(check int) "appended" 8 (Vec.get w 1)

(* --- literals --------------------------------------------------------- *)

let test_lit_roundtrip () =
  for v = 0 to 20 do
    Alcotest.(check int) "var of pos" v (Lit.var (Lit.pos v));
    Alcotest.(check bool) "pos not neg" false (Lit.is_neg (Lit.pos v));
    Alcotest.(check bool) "neg is neg" true (Lit.is_neg (Lit.neg (Lit.pos v)));
    Alcotest.(check int) "double neg" (Lit.pos v) (Lit.neg (Lit.neg (Lit.pos v)));
    let d = Lit.to_dimacs (Lit.of_var ~neg:true v) in
    Alcotest.(check int) "dimacs roundtrip" (Lit.of_var ~neg:true v) (Lit.of_dimacs d)
  done

(* --- dimacs ----------------------------------------------------------- *)

let test_dimacs_roundtrip () =
  let cnf = { Dimacs.nvars = 4; clauses = [ [ lit 0; nlit 1 ]; [ lit 2; lit 3; nlit 0 ]; [] ] } in
  match Dimacs.parse_string (Dimacs.to_string cnf) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok cnf' ->
    Alcotest.(check int) "nvars" cnf.Dimacs.nvars cnf'.Dimacs.nvars;
    Alcotest.(check bool) "clauses" true (cnf.Dimacs.clauses = cnf'.Dimacs.clauses)

let test_dimacs_errors () =
  let bad = [ "p cnf 2"; "1 0"; "p cnf 1 1\n2 0"; "p cnf 1 2\n1 0"; "p cnf 1 1\n1" ] in
  List.iter
    (fun text ->
      match Dimacs.parse_string text with
      | Ok _ -> Alcotest.failf "expected parse error for %S" text
      | Error _ -> ())
    bad

let test_dimacs_comments () =
  let text = "c hello\nc world\np cnf 2 2\n1 -2 0\n2 0\n" in
  match Dimacs.parse_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok cnf ->
    Alcotest.(check int) "nvars" 2 cnf.Dimacs.nvars;
    Alcotest.(check int) "nclauses" 2 (List.length cnf.Dimacs.clauses)

(* Regression: the tokenizer split on single spaces only, so tabs, runs
   of blanks, and the '\r' a CRLF file leaves on every line all failed
   with "not an integer". *)
let test_dimacs_separators () =
  let reference = "p cnf 3 2\n1 -2 0\n2 3 0\n" in
  let tabs = "p\tcnf 3 2\n1\t-2  0\n 2 \t 3 0\n" in
  let crlf = "c generated on windows\r\np cnf 3 2\r\n1 -2 0\r\n2 3 0\r\n" in
  match
    ( Dimacs.parse_string reference,
      Dimacs.parse_string tabs,
      Dimacs.parse_string crlf )
  with
  | Ok r, Ok t, Ok c ->
    Alcotest.(check bool) "tabs parse alike" true (t = r);
    Alcotest.(check bool) "crlf parses alike" true (c = r)
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Alcotest.failf "parse: %s" e

(* --- clause import (sharing) ------------------------------------------ *)

(* The three outcomes of [import_clause], on a chain x0 -> x1 -> x2. *)
let test_import_paths () =
  let s = Solver.create () in
  for _ = 1 to 3 do
    ignore (Solver.new_var s)
  done;
  Solver.add_clause s [ nlit 0; lit 1 ];
  Solver.add_clause s [ nlit 1; lit 2 ];
  Alcotest.(check bool) "UP consequence imported" true
    (Solver.import_clause s [ nlit 0; lit 2 ] = `Imported);
  Alcotest.(check bool) "non-consequence dropped" true
    (Solver.import_clause s [ lit 0; lit 2 ] = `Dropped);
  Alcotest.(check bool) "foreign variable dropped" true
    (Solver.import_clause s [ lit 7 ] = `Dropped);
  Solver.add_clause s [ lit 0 ];
  Alcotest.(check bool) "root-satisfied candidate" true
    (Solver.import_clause s [ lit 0; lit 1 ] = `Satisfied);
  Alcotest.(check bool) "solver still usable" true (Solver.solve s = Solver.Sat)

let lrat_roundtrip proof =
  Isr_check.Lrat_check.check_strings ~cnf:(Proof.to_dimacs proof)
    ~lrat:(Proof.to_lrat proof)

(* An imported clause carries a real resolution chain: a refutation that
   leans on it must replay exactly and export checkable LRAT hints. *)
let test_import_in_refutation () =
  let s = Solver.create () in
  for _ = 1 to 3 do
    ignore (Solver.new_var s)
  done;
  Solver.add_clause s [ nlit 0; lit 1 ];
  Solver.add_clause s [ nlit 1; lit 2 ];
  Alcotest.(check bool) "imported" true
    (Solver.import_clause s [ nlit 0; lit 2 ] = `Imported);
  Solver.add_clause s [ lit 0 ];
  Solver.add_clause s [ nlit 2 ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "proof replays" true
    (Proof_check.check (Solver.proof s) = Ok ());
  match lrat_roundtrip (Solver.proof ~trim:false s) with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "LRAT rejected: %s" d.Isr_check.Diag.message

(* Cross-solver sharing end to end: everything one php(4) solver learns
   is offered to an identical peer; the peer's own refutation (with the
   accepted imports spliced in) must replay and round-trip as LRAT. *)
let test_import_cross_solver () =
  let nv, cls = pigeonhole 4 in
  let s1 = Solver.create () in
  for _ = 1 to nv do
    ignore (Solver.new_var s1)
  done;
  let shared = ref [] in
  Solver.on_export s1
    (Some (fun ~lits ~lbd:_ -> shared := Array.to_list lits :: !shared));
  List.iter (fun c -> Solver.add_clause s1 c) cls;
  Alcotest.(check bool) "exporter unsat" true (Solver.solve s1 = Solver.Unsat);
  Solver.on_export s1 None;
  Alcotest.(check bool) "something was exported" true (!shared <> []);
  let s2 = Solver.create () in
  for _ = 1 to nv do
    ignore (Solver.new_var s2)
  done;
  List.iter (fun c -> Solver.add_clause s2 c) cls;
  let imported = ref 0 in
  List.iter
    (fun c ->
      match Solver.import_clause s2 c with
      | `Imported -> incr imported
      | `Satisfied | `Dropped -> ())
    (List.rev !shared);
  Alcotest.(check bool) "some imports accepted" true (!imported > 0);
  Alcotest.(check bool) "importer unsat" true (Solver.solve s2 = Solver.Unsat);
  Alcotest.(check bool) "proof replays" true
    (Proof_check.check (Solver.proof s2) = Ok ());
  match lrat_roundtrip (Solver.proof s2) with
  | Ok r ->
    Alcotest.(check bool) "derived steps present" true
      (r.Isr_check.Lrat_check.additions > 0)
  | Error d -> Alcotest.failf "LRAT rejected: %s" d.Isr_check.Diag.message

(* Seeded bad provenance: re-point the imported step's hints at the wrong
   antecedent.  An LRAT checker that trusted the clause (instead of
   replaying its hints) would accept the tampered certificate. *)
let test_import_bad_provenance_rejected () =
  let s = Solver.create () in
  for _ = 1 to 3 do
    ignore (Solver.new_var s)
  done;
  Solver.add_clause s [ nlit 0; lit 1 ];
  Solver.add_clause s [ nlit 1; lit 2 ];
  Alcotest.(check bool) "imported" true
    (Solver.import_clause s [ nlit 0; lit 2 ] = `Imported);
  Solver.add_clause s [ lit 0 ];
  Solver.add_clause s [ nlit 2 ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  let proof = Solver.proof ~trim:false s in
  let cnf = Proof.to_dimacs proof in
  let lines =
    Proof.to_lrat proof |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  (* The first addition line is the imported clause (it is the first
     derived step of the log); keep its literals, break its hints. *)
  let tampered =
    List.mapi
      (fun i line ->
        if i > 0 then line
        else
          match String.split_on_char ' ' line with
          | id :: rest ->
            let lits = ref [] and seen0 = ref false in
            List.iter
              (fun t ->
                if not !seen0 then
                  if t = "0" then seen0 := true else lits := t :: !lits)
              rest;
            String.concat " " ((id :: List.rev !lits) @ [ "0"; "1"; "0" ])
          | [] -> line)
      lines
  in
  (match Isr_check.Lrat_check.check_strings ~cnf ~lrat:(String.concat "\n" lines) with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "control proof rejected: %s" d.Isr_check.Diag.message);
  match
    Isr_check.Lrat_check.check_strings ~cnf ~lrat:(String.concat "\n" tampered)
  with
  | Ok _ -> Alcotest.fail "tampered provenance accepted"
  | Error d ->
    Alcotest.(check bool) "an lrat check fired" true
      (String.length d.Isr_check.Diag.check > 5
      && String.sub d.Isr_check.Diag.check 0 5 = "lrat.")

(* --- search identity ---------------------------------------------------- *)

(* Interpolants, and with them k_fp/j_fp, follow the exact shape of a
   refutation, so a solver speed-up must leave the search untouched.
   These cases pin the search on fixed problems: the effort counters and
   a digest of every learnt clause's literal sequence, in learning order,
   together with every logged resolution chain.  Any change to decision,
   propagation or conflict-analysis order moves at least one of them.
   The values were recorded with the earlier kernel, which minimised
   learnt clauses by scanning the whole trail and loaded every binary
   clause on each watch visit; the current kernel must reproduce them. *)

(* A fixed linear congruential generator, so the instances do not depend
   on the standard library's [Random]. *)
let random_3sat ~seed ~nvars ~nclauses =
  let state = ref seed in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x7fffffff;
    (!state lsr 8) mod bound
  in
  let clause () =
    List.init 3 (fun _ ->
        let v = next nvars in
        Lit.of_var ~neg:(next 2 = 1) v)
  in
  (nvars, List.init nclauses (fun _ -> clause ()))

let search_fingerprint s solve =
  let buf = Buffer.create 4096 in
  let add_int i =
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ' '
  in
  Solver.on_export s
    (Some
       (fun ~lits ~lbd ->
         add_int lbd;
         Array.iter add_int lits;
         Buffer.add_char buf '\n'));
  let r = solve () in
  Solver.on_export s None;
  if Solver.refuted s then
    Array.iter
      (function
        | Proof.Derived { lits; first; chain } ->
          Array.iter add_int lits;
          add_int first;
          Array.iter
            (fun (v, id) ->
              add_int v;
              add_int id)
            chain;
          Buffer.add_char buf '\n'
        | Proof.Input _ | Proof.Trimmed -> ())
      (Solver.proof ~trim:false s).Proof.steps;
  let result =
    match r with Solver.Sat -> "sat" | Solver.Unsat -> "unsat" | Solver.Undef -> "undef"
  in
  Printf.sprintf "%s conflicts=%d decisions=%d propagations=%d learnt=%d steps=%d digest=%s"
    result (Solver.num_conflicts s) (Solver.num_decisions s)
    (Solver.num_propagations s) (Solver.num_learnt s) (Solver.proof_steps s)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let cnf_fingerprint (nvars, clauses) =
  let s = Tutil.fresh_solver nvars in
  List.iter (fun c -> Solver.add_clause s c) clauses;
  search_fingerprint s (fun () -> Solver.solve s)

let bmc_fingerprint name check k =
  let model =
    match Isr_suite.Registry.find name with
    | Some e -> Isr_suite.Registry.build_validated e
    | None -> Alcotest.failf "no registry entry %s" name
  in
  let u = Isr_core.Bmc.build_instance model ~check ~k in
  let s = Isr_model.Unroll.solver u in
  search_fingerprint s (fun () -> Solver.solve s)

let search_pins =
  [
    ( "php 6->5",
      (fun () -> cnf_fingerprint (pigeonhole 5)),
      "unsat conflicts=135 decisions=169 propagations=1578 learnt=134 steps=216 \
       digest=1fd6122b19765b0fa242f5ce114d8dc6" );
    ( "random 3-sat seed 7",
      (fun () -> cnf_fingerprint (random_3sat ~seed:7 ~nvars:150 ~nclauses:639)),
      "unsat conflicts=3103 decisions=3656 propagations=97182 learnt=3102 steps=3737 \
       digest=db3c0d603a81bf84c94c66a5fcfc33c2" );
    ( "random 3-sat seed 11",
      (fun () -> cnf_fingerprint (random_3sat ~seed:11 ~nvars:150 ~nclauses:600)),
      "sat conflicts=1368 decisions=1713 propagations=45789 learnt=1368 steps=1963 \
       digest=ea5ea1cca411299184aa03d3eb37858d" );
    ( "bmc vending11 bound k=10",
      (fun () -> bmc_fingerprint "vending11" Isr_core.Bmc.Bound 10),
      "unsat conflicts=32 decisions=62 propagations=2365 learnt=31 steps=1167 \
       digest=a96e0ca36db5d295b77ff5e9b2bf06b4" );
    ( "bmc rether33 exact k=30",
      (fun () -> bmc_fingerprint "rether33" Isr_core.Bmc.Exact 30),
      "unsat conflicts=333 decisions=535 propagations=118785 learnt=332 steps=5009 \
       digest=c89762dbfd01d0433c974122c9de8358" );
  ]

let search_identity_cases =
  List.map
    (fun (name, run, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) "search fingerprint" expected (run ())))
    search_pins

(* --- property tests --------------------------------------------------- *)

let gen_cnf =
  let open QCheck2.Gen in
  let* nvars = int_range 1 8 in
  let* nclauses = int_range 1 30 in
  let gen_lit = map2 (fun v neg -> Lit.of_var ~neg v) (int_range 0 (nvars - 1)) bool in
  let gen_clause = list_size (int_range 1 4) gen_lit in
  let* clauses = list_size (pure nclauses) gen_clause in
  pure (nvars, clauses)

let print_cnf (nvars, clauses) =
  Printf.sprintf "nvars=%d %s" nvars
    (String.concat " ; "
       (List.map
          (fun c -> String.concat "," (List.map (fun l -> string_of_int (Lit.to_dimacs l)) c))
          clauses))

(* Binary implication chains under longer clauses.  [gen_cnf]'s formulas
   are almost always decided by propagation alone; here each variable is
   usually implied by one earlier literal, so a search takes several
   decisions, propagates along the chains, and learns clauses over
   several levels whose chained literals minimisation removes. *)
let gen_cnf_chains =
  let open QCheck2.Gen in
  let* nvars = int_range 8 16 in
  let gen_lit = map2 (fun v neg -> Lit.of_var ~neg v) (int_range 0 (nvars - 1)) bool in
  let link v =
    let* linked = float_range 0.0 1.0 in
    let* parent = int_range 0 (v - 1) in
    let* pneg = bool and* vneg = bool in
    pure
      (if linked < 0.8 then [ [ Lit.of_var ~neg:pneg parent; Lit.of_var ~neg:vneg v ] ]
       else [])
  in
  let* chains = flatten_l (List.init (nvars - 1) (fun i -> link (i + 1))) in
  let* nlong = int_range (5 * nvars / 2) (5 * nvars) in
  let* long = list_size (pure nlong) (int_range 3 4 >>= fun n -> list_size (pure n) gen_lit) in
  pure (nvars, List.concat chains @ long)

let prop_matches_bruteforce ?(count = 500) gen =
  QCheck2.Test.make ~count ~name:"solver agrees with brute force" ~print:print_cnf gen
    (fun (nvars, clauses) ->
      let _, r = solve_clauses nvars clauses in
      let expected = brute_force nvars clauses in
      (r = Solver.Sat) = expected)

let prop_unsat_proof_checks ?(count = 500) gen =
  QCheck2.Test.make ~count ~name:"unsat proofs replay" ~print:print_cnf gen
    (fun (nvars, clauses) ->
      let s, r = solve_clauses nvars clauses in
      match r with
      | Solver.Unsat -> Proof_check.check (Solver.proof s) = Ok ()
      | _ -> true)

let prop_sat_model_valid =
  QCheck2.Test.make ~count:500 ~name:"sat models satisfy all clauses" ~print:print_cnf gen_cnf
    (fun (nvars, clauses) ->
      let s, r = solve_clauses nvars clauses in
      match r with
      | Solver.Sat ->
        List.for_all (fun c -> List.exists (fun l -> Solver.lit_value s l) c) clauses
      | _ -> true)

let gen_cnf_with_assumptions =
  let open QCheck2.Gen in
  let* nvars, clauses = gen_cnf in
  let gen_lit = map2 (fun v neg -> Lit.of_var ~neg v) (int_range 0 (nvars - 1)) bool in
  let* assumptions = list_size (int_range 0 4) gen_lit in
  pure (nvars, clauses, assumptions)

let print_cnf_assum (nvars, clauses, assumptions) =
  Printf.sprintf "%s assuming %s"
    (print_cnf (nvars, clauses))
    (String.concat "," (List.map (fun l -> string_of_int (Lit.to_dimacs l)) assumptions))

let prop_assumptions_equal_units =
  QCheck2.Test.make ~count:500 ~name:"assumptions behave like unit clauses"
    ~print:print_cnf_assum gen_cnf_with_assumptions (fun (nvars, clauses, assumptions) ->
      let s = Solver.create () in
      for _ = 1 to nvars do
        ignore (Solver.new_var s)
      done;
      List.iter (fun c -> Solver.add_clause s c) clauses;
      let got = Solver.solve ~assumptions s = Solver.Sat in
      let expected = brute_force nvars (clauses @ List.map (fun l -> [ l ]) assumptions) in
      got = expected)

let prop_unsat_cores_suffice =
  QCheck2.Test.make ~count:500 ~name:"unsat cores are genuine cores"
    ~print:print_cnf_assum gen_cnf_with_assumptions (fun (nvars, clauses, assumptions) ->
      let s = Solver.create () in
      for _ = 1 to nvars do
        ignore (Solver.new_var s)
      done;
      List.iter (fun c -> Solver.add_clause s c) clauses;
      match Solver.solve ~assumptions s with
      | Solver.Unsat ->
        let core = Solver.unsat_core s in
        List.for_all (fun l -> List.mem l assumptions) core
        && not (brute_force nvars (clauses @ List.map (fun l -> [ l ]) core))
      | _ -> true)

(* The proof log is write-only during search: turning it off changes no
   answer, no core and no search statistic — over one solve under
   assumptions, then one without, as an inclusion session issues them. *)
let prop_proof_free_same_search =
  QCheck2.Test.make ~count:500 ~name:"proof-free solver searches alike"
    ~print:print_cnf_assum gen_cnf_with_assumptions (fun (nvars, clauses, assumptions) ->
      let run proof =
        let s = Solver.create ~proof () in
        for _ = 1 to nvars do
          ignore (Solver.new_var s)
        done;
        List.iter (fun c -> Solver.add_clause s c) clauses;
        let r1 = Solver.solve ~assumptions s in
        let core = if r1 = Solver.Unsat then Solver.unsat_core s else [] in
        let r2 = Solver.solve s in
        (r1, core, r2, Solver.num_conflicts s, Solver.num_decisions s)
      in
      run true = run false)

(* The most aggressive legal policy: reduce after every conflict, keep
   nothing by glue.  Verdicts and proofs must be unaffected — reduction
   only drops clauses that are neither reasons nor needed inputs. *)
let prop_reduce_preserves_verdicts ?(count = 300) gen =
  QCheck2.Test.make ~count ~name:"aggressive reduction preserves verdicts"
    ~print:print_cnf gen (fun (nvars, clauses) ->
      let s = Solver.create () in
      Solver.set_reduce s { Solver.enabled = true; base = 1; growth = 1.0; keep_lbd = 0 };
      for _ = 1 to nvars do
        ignore (Solver.new_var s)
      done;
      List.iter (fun c -> Solver.add_clause s c) clauses;
      let r = Solver.solve s in
      (r = Solver.Sat) = brute_force nvars clauses
      &&
      match r with
      | Solver.Unsat -> Proof_check.check (Solver.proof s) = Ok ()
      | _ -> true)

let prop_incremental_equals_batch ?(count = 300) gen =
  QCheck2.Test.make ~count ~name:"incremental = from-scratch" ~print:print_cnf gen
    (fun (nvars, clauses) ->
      (* Add clauses one at a time, solving after each addition; the final
         verdict must match a single batch solve. *)
      let s = Solver.create () in
      for _ = 1 to nvars do
        ignore (Solver.new_var s)
      done;
      let ok = ref true in
      let added = ref [] in
      List.iter
        (fun c ->
          Solver.add_clause s c;
          added := c :: !added;
          let got = Solver.solve s = Solver.Sat in
          if got <> brute_force nvars !added then ok := false)
        clauses;
      !ok)

(* One solver, many queries: clauses arrive between solves and every
   solve runs under its own assumptions, as an inclusion session uses
   it.  Each answer must match brute force over the clauses so far plus
   that solve's assumptions as units. *)
let gen_rounds =
  let open QCheck2.Gen in
  let* nvars = int_range 1 8 in
  let gen_lit = map2 (fun v neg -> Lit.of_var ~neg v) (int_range 0 (nvars - 1)) bool in
  (* Binary and ternary clauses give propagation chains, so assumptions
     often fail by propagation rather than by conflict. *)
  let gen_round =
    pair (list_size (int_range 0 4) (list_size (int_range 2 3) gen_lit)) (list_size (int_range 1 4) gen_lit)
  in
  let* rounds = list_size (int_range 2 12) gen_round in
  pure (nvars, rounds)

let print_rounds (nvars, rounds) =
  String.concat " | "
    (List.map (fun (cs, assumptions) -> print_cnf_assum (nvars, cs, assumptions)) rounds)

let prop_incremental_assumptions =
  QCheck2.Test.make ~count:1000 ~name:"incremental solves under assumptions"
    ~print:print_rounds gen_rounds (fun (nvars, rounds) ->
      let s = Solver.create () in
      for _ = 1 to nvars do
        ignore (Solver.new_var s)
      done;
      let added = ref [] in
      List.for_all
        (fun (cs, assumptions) ->
          List.iter (fun c -> Solver.add_clause s c) cs;
          added := cs @ !added;
          let got = Solver.solve ~assumptions s = Solver.Sat in
          got = brute_force nvars (List.map (fun l -> [ l ]) assumptions @ !added))
        rounds)

(* Sharing soundness: everything one instance learns, offered to a
   *different* instance over the same variables, must leave that
   instance's verdict (and proof checkability) untouched — imports are
   re-derived locally, and what doesn't re-derive is dropped. *)
let gen_two_cnfs =
  let open QCheck2.Gen in
  let* nvars = int_range 1 6 in
  let gen_lit = map2 (fun v neg -> Lit.of_var ~neg v) (int_range 0 (nvars - 1)) bool in
  let gen_clause = list_size (int_range 1 3) gen_lit in
  let* c1 = list_size (int_range 1 20) gen_clause in
  let* c2 = list_size (int_range 1 20) gen_clause in
  pure (nvars, c1, c2)

let print_two_cnfs (nvars, c1, c2) =
  Printf.sprintf "%s || %s" (print_cnf (nvars, c1)) (print_cnf (nvars, c2))

let prop_import_preserves_verdicts =
  QCheck2.Test.make ~count:300 ~name:"imports never flip verdicts"
    ~print:print_two_cnfs gen_two_cnfs (fun (nvars, c1, c2) ->
      let s1 = Solver.create () in
      for _ = 1 to nvars do
        ignore (Solver.new_var s1)
      done;
      let shared = ref [] in
      Solver.on_export s1
        (Some (fun ~lits ~lbd:_ -> shared := Array.to_list lits :: !shared));
      List.iter (fun c -> Solver.add_clause s1 c) c1;
      ignore (Solver.solve s1);
      let s2 = Solver.create () in
      for _ = 1 to nvars do
        ignore (Solver.new_var s2)
      done;
      List.iter (fun c -> Solver.add_clause s2 c) c2;
      List.iter (fun c -> ignore (Solver.import_clause s2 c)) (List.rev !shared);
      let r = Solver.solve s2 in
      (r = Solver.Sat) = brute_force nvars c2
      &&
      match r with
      | Solver.Unsat -> Proof_check.check (Solver.proof s2) = Ok ()
      | _ -> true)

let () =
  (* The whole solver suite runs under the Paranoid sanitizer: every
     unconditional UNSAT answer is proof-replayed inside Solver.solve
     (check "sat.proof_replay"), on top of the explicit Proof_check
     calls of the individual tests. *)
  Isr_check_core.Level.set Isr_check_core.Level.Paranoid;
  let qsuite = List.map QCheck_alcotest.to_alcotest
      [ prop_matches_bruteforce gen_cnf; prop_unsat_proof_checks gen_cnf; prop_sat_model_valid;
        prop_assumptions_equal_units; prop_unsat_cores_suffice;
        prop_reduce_preserves_verdicts gen_cnf; prop_incremental_equals_batch gen_cnf;
        prop_import_preserves_verdicts; prop_proof_free_same_search;
        prop_incremental_assumptions ]
  in
  (* Alcotest sizes its name column by the longest group name, so group
     names stay at most as long as "properties" to keep test names whole. *)
  let chains = List.map QCheck_alcotest.to_alcotest
      [ prop_matches_bruteforce gen_cnf_chains; prop_unsat_proof_checks gen_cnf_chains;
        prop_reduce_preserves_verdicts gen_cnf_chains;
        prop_incremental_equals_batch ~count:100 gen_cnf_chains ]
  in
  Alcotest.run "isr_sat"
    [
      ( "solver",
        [
          Alcotest.test_case "empty problem" `Quick test_empty_problem;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "unit conflict" `Quick test_unit_conflict;
          Alcotest.test_case "simple sat" `Quick test_simple_sat;
          Alcotest.test_case "units fix model" `Quick test_model_respects_units;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
          Alcotest.test_case "proof-free" `Quick test_proof_free;
          Alcotest.test_case "chain propagation" `Quick test_chain_propagation;
          Alcotest.test_case "tautology dropped" `Quick test_tautology_dropped;
          Alcotest.test_case "conflict budget" `Quick test_budget;
          Alcotest.test_case "incremental" `Quick test_incremental;
          Alcotest.test_case "assumptions" `Quick test_assumptions_basic;
          Alcotest.test_case "contradictory assumptions" `Quick test_contradictory_assumptions;
          Alcotest.test_case "failed assumption leaves no marks" `Quick
            test_core_leaves_no_marks;
          Alcotest.test_case "interrupt" `Quick test_interrupt;
          Alcotest.test_case "database reduction" `Quick test_reduce_fires;
          Alcotest.test_case "clause lifecycle invariants" `Quick
            test_clause_lifecycle_invariants;
          Alcotest.test_case "reduce policy validation" `Quick test_set_reduce_validates;
        ] );
      ( "import",
        [
          Alcotest.test_case "outcome paths" `Quick test_import_paths;
          Alcotest.test_case "import in refutation" `Quick test_import_in_refutation;
          Alcotest.test_case "cross-solver LRAT roundtrip" `Quick test_import_cross_solver;
          Alcotest.test_case "bad provenance rejected" `Quick
            test_import_bad_provenance_rejected;
        ] );
      ("identity", search_identity_cases);
      ("lit", [ Alcotest.test_case "roundtrips" `Quick test_lit_roundtrip ]);
      ("vec", [ Alcotest.test_case "empty vector grows" `Quick test_vec_empty_grows ]);
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "errors" `Quick test_dimacs_errors;
          Alcotest.test_case "comments" `Quick test_dimacs_comments;
          Alcotest.test_case "separators" `Quick test_dimacs_separators;
        ] );
      ("properties", qsuite);
      ("chains", chains);
    ]
