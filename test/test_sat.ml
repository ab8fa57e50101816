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
  for _ = 1 to nv do
    ignore (Solver.new_var s)
  done;
  List.iter (fun c -> Solver.add_clause s c) cls;
  (* The solver posts one record per reduction while a listener is
     subscribed. *)
  let recorder = Isr_obs.Event.recorder () in
  let consumer = Isr_obs.Event.recording recorder in
  Isr_obs.Event.subscribe consumer;
  let r =
    Fun.protect ~finally:(fun () -> Isr_obs.Event.unsubscribe consumer) (fun () -> Solver.solve s)
  in
  Alcotest.(check bool) "php 6 unsat" true (r = Solver.Unsat);
  Alcotest.(check bool) "reductions fired" true (Solver.num_reduces s > 0);
  let deleted_total = ref 0 in
  let lbd_snapshots = ref 0 in
  let lbd_mismatches = ref 0 in
  let dead_mismatches = ref 0 in
  let last_kept = ref (-1) in
  List.iter
    (fun (e : Isr_obs.Event.t) ->
      match e.Isr_obs.Event.kind with
      | Isr_obs.Event.Reduce { kept; dropped; lbd; dead_lbd; dead_uses } ->
        deleted_total := !deleted_total + dropped;
        last_kept := kept;
        incr lbd_snapshots;
        (* The survivor snapshot must account for every kept learnt
           clause, and the victim histograms for every deleted one. *)
        let sum = Array.fold_left ( + ) 0 in
        if sum lbd <> kept then incr lbd_mismatches;
        if sum dead_lbd <> dropped then incr dead_mismatches;
        if sum dead_uses <> dropped then incr dead_mismatches
      | _ -> ())
    (Isr_obs.Event.events recorder);
  Alcotest.(check int) "one record per reduction" (Solver.num_reduces s) !lbd_snapshots;
  Alcotest.(check int) "records account for every deletion" (Solver.num_deleted s)
    !deleted_total;
  Alcotest.(check int) "last record's survivors" (Solver.reduce_kept s) !last_kept;
  Alcotest.(check bool) "observer saw deletions" true (!deleted_total > 0);
  Alcotest.(check bool) "lbd snapshots delivered" true (!lbd_snapshots > 0);
  Alcotest.(check int) "every lbd snapshot sums to kept" 0 !lbd_mismatches;
  Alcotest.(check int) "every dead histogram sums to deleted" 0 !dead_mismatches;
  let p = Solver.proof s in
  Alcotest.(check int) "every deletion logged" !deleted_total
    (Proof.n_deletions p);
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
  Solver.on_learnt s
    (Some
       (fun ~lits ~lbd ->
         add_int lbd;
         Array.iter add_int lits;
         Buffer.add_char buf '\n'));
  let r = solve () in
  Solver.on_learnt s None;
  if Solver.refuted s then begin
    let p = Solver.proof s in
    for id = 0 to Proof.n_steps p - 1 do
      match Proof.step p id with
      | Proof.Derived { lits; first; chain } ->
        Array.iter add_int lits;
        add_int first;
        Array.iter
          (fun (v, id) ->
            add_int v;
            add_int id)
          chain;
        Buffer.add_char buf '\n'
      | Proof.Input _ -> ()
    done
  end;
  let result =
    match r with Solver.Sat -> "sat" | Solver.Unsat -> "unsat" | Solver.Undef -> "undef"
  in
  Printf.sprintf "%s conflicts=%d decisions=%d propagations=%d learnt=%d steps=%d digest=%s"
    result (Solver.num_conflicts s) (Solver.num_decisions s)
    (Solver.num_propagations s) (Solver.num_learnt s) (Solver.proof_steps s)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let cnf_solver (nvars, clauses) =
  let s = Tutil.fresh_solver nvars in
  List.iter (fun c -> Solver.add_clause s c) clauses;
  s

let cnf_fingerprint cnf =
  let s = cnf_solver cnf in
  search_fingerprint s (fun () -> Solver.solve s)

let bmc_instance name check k =
  let model =
    match Isr_suite.Registry.find name with
    | Some e -> Isr_suite.Registry.build_validated e
    | None -> Alcotest.failf "no registry entry %s" name
  in
  Isr_core.Bmc.build_instance ~proof:true model ~check ~k

let bmc_fingerprint name check k =
  let s = Isr_model.Unroll.solver (bmc_instance name check k) in
  search_fingerprint s (fun () -> Solver.solve s)

(* Intake identity: besides the search, the digest covers what the
   unroller hands the solver — every input clause's tag and stored
   literals (before and after the solve, which moves watched literals),
   the variable count, and the latch attribution of every proof-log id.
   Its pin was recorded before the intake path (watch storage, clause
   normalisation, unroller maps) was rewritten. *)
let intake_fingerprint name check k =
  let u = bmc_instance name check k in
  let s = Isr_model.Unroll.solver u in
  let buf = Buffer.create 65536 in
  let add_int i =
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ' '
  in
  let add_inputs () =
    Solver.iter_input_clauses s (fun ~tag lits ->
        add_int tag;
        Array.iter add_int lits;
        Buffer.add_char buf '\n')
  in
  add_int (Solver.nvars s);
  let steps = Solver.next_step_id s in
  for cid = 0 to steps - 1 do
    match Isr_model.Unroll.latch_of_clause u cid with
    | Some i ->
      add_int cid;
      add_int i
    | None -> ()
  done;
  add_inputs ();
  let search = search_fingerprint s (fun () -> Solver.solve s) in
  add_inputs ();
  Printf.sprintf "%s vars=%d inputs=%s" search (Solver.nvars s)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

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
    ( "bmc industrialA1 exact k=6",
      (fun () -> intake_fingerprint "industrialA1" Isr_core.Bmc.Exact 6),
      "unsat conflicts=1 decisions=0 propagations=733 learnt=0 steps=19297 \
       digest=67c1e7c26c4b7718d65b9a498b45f8c6 vars=6909 \
       inputs=95c8a698b298754a858df2ba3fda9913" );
  ]

(* Export identity on the same problems: digests of the DIMACS and LRAT
   renderings of each refutation and of its core ids, and the birth-LBD
   histogram of the learnt clauses the refutation uses.  The pins were
   recorded while proofs were still copied out of the log into an array
   of steps; reading the log in place must reproduce them. *)
let export_fingerprint s =
  match Solver.solve s with
  | Solver.Unsat ->
    let p = Solver.proof s in
    let md5 x = Digest.to_hex (Digest.string x) in
    let ints a = String.concat "," (List.map string_of_int a) in
    Printf.sprintf "dimacs=%s lrat=%s core=%s lbd=%s"
      (md5 (Proof.to_dimacs p))
      (md5 (Proof.to_lrat p))
      (md5 (ints (Proof.core p)))
      (ints (Array.to_list (Solver.core_birth_lbd s)))
  | Solver.Sat -> "sat"
  | Solver.Undef -> "undef"

let export_pins =
  [
    ( "php 6->5 export",
      (fun () -> cnf_solver (pigeonhole 5)),
      "dimacs=125e04e3cd136d64edb40ca046de4a1b lrat=9b1ea6469c2414f619b03f0fb0496493 \
       core=d5b45b47d382972c2f4bcf54238607ed lbd=0,4,11,28,28,31,17,9,2,1,0,0,0,0,0,0" );
    ( "random 3-sat seed 7 export",
      (fun () -> cnf_solver (random_3sat ~seed:7 ~nvars:150 ~nclauses:639)),
      "dimacs=b85baac1c48dbde0351ca474ac3b1c7e lrat=576b997faace526c2771fb7e2ab6bb3c \
       core=ddc4059979d6bc55040b22f1fca66cfd lbd=0,7,75,233,421,493,532,454,303,190,119,52,16,4,0,0" );
    ( "random 3-sat seed 11 export",
      (fun () -> cnf_solver (random_3sat ~seed:11 ~nvars:150 ~nclauses:600)),
      "sat" );
    ( "bmc vending11 bound k=10 export",
      (fun () -> Isr_model.Unroll.solver (bmc_instance "vending11" Isr_core.Bmc.Bound 10)),
      "dimacs=ffdbdafff3571e02a5551bf621b0e124 lrat=53c7342a1d178ec01fa9469d80db5e52 \
       core=4b8ea869c438ad2445370f7cd67463ba lbd=0,4,11,9,2,2,0,1,0,0,0,0,0,0,0,0" );
    ( "bmc rether33 exact k=30 export",
      (fun () -> Isr_model.Unroll.solver (bmc_instance "rether33" Isr_core.Bmc.Exact 30)),
      "dimacs=f71f361e7ac570ade8b01e9ba5d27005 lrat=f21fa07ee1078a22107b259c348b7f9e \
       core=0b6cc321e18a5707630494e956d2ef31 lbd=0,9,52,83,52,31,18,10,9,6,6,11,9,5,4,6" );
    ( "bmc industrialA1 exact k=6 export",
      (fun () ->
        Isr_model.Unroll.solver (bmc_instance "industrialA1" Isr_core.Bmc.Exact 6)),
      "dimacs=64219c5445557ae2dbe2cd4473989ca8 lrat=ab994848017f0dfee9ca35c81944593f \
       core=744a6e929c6e1ab9c7982ce8307486f9 lbd=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0" );
  ]

let search_identity_cases =
  List.map
    (fun (name, run, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) "search fingerprint" expected (run ())))
    search_pins
  @ List.map
      (fun (name, solver, expected) ->
        Alcotest.test_case name `Quick (fun () ->
            Alcotest.(check string) "export fingerprint" expected
              (export_fingerprint (solver ()))))
      export_pins

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

let with_assumptions gen =
  let open QCheck2.Gen in
  let* nvars, clauses = gen in
  let gen_lit = map2 (fun v neg -> Lit.of_var ~neg v) (int_range 0 (nvars - 1)) bool in
  let* assumptions = list_size (int_range 0 4) gen_lit in
  pure (nvars, clauses, assumptions)

let gen_cnf_with_assumptions = with_assumptions gen_cnf

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

(* Reduce after every conflict, keep nothing by glue: the most
   aggressive legal policy. *)
let every_conflict = { Solver.enabled = true; base = 1; growth = 1.0; keep_lbd = 0 }

(* The proof log is write-only during search: turning it off changes no
   answer, no core, no learnt clause or glue and no search statistic —
   over one solve under assumptions, then one without, as an inclusion
   session issues them, at level Off and at Paranoid. *)
let prop_proof_free_same_search ?(count = 500) ?reduce gen =
  QCheck2.Test.make ~count ~name:"proof-free solver searches alike"
    ~print:print_cnf_assum (with_assumptions gen) (fun (nvars, clauses, assumptions) ->
      let run ~proof level =
        let saved = Isr_check_core.Level.get () in
        Isr_check_core.Level.set level;
        Fun.protect ~finally:(fun () -> Isr_check_core.Level.set saved) @@ fun () ->
        let s = Tutil.fresh_solver ~proof nvars in
        Option.iter (Solver.set_reduce s) reduce;
        let learnt = Buffer.create 256 in
        Solver.on_learnt s
          (Some
             (fun ~lits ~lbd ->
               Buffer.add_string learnt (string_of_int lbd);
               Array.iter (fun l -> Buffer.add_string learnt (" " ^ string_of_int l)) lits;
               Buffer.add_char learnt '\n'));
        List.iter (fun c -> Solver.add_clause s c) clauses;
        let r1 = Solver.solve ~assumptions s in
        let core = if r1 = Solver.Unsat then Solver.unsat_core s else [] in
        let r2 = Solver.solve s in
        ( (r1, core, r2),
          (Solver.num_conflicts s, Solver.num_decisions s, Solver.num_propagations s),
          Solver.num_learnt s,
          Digest.string (Buffer.contents learnt) )
      in
      let logged = run ~proof:true Isr_check_core.Level.Paranoid in
      logged = run ~proof:false Isr_check_core.Level.Off
      && logged = run ~proof:false Isr_check_core.Level.Paranoid)

(* Reservation is capacity only.  The clauses arrive in two batches,
   with a solve after each; the second batch brings [pad] more variables
   that no clause reads.  A reserved solver sizes itself before each
   batch — variables and clauses by one choice, literals by another, each
   for none, half, exactly or well over what the batch adds — and must
   learn, search, log and export exactly what a solver that never
   reserved does. *)
let prop_reserve_changes_nothing ?(count = 300) gen =
  let open QCheck2.Gen in
  let gen =
    let* nvars, clauses = gen in
    let* pad = int_range 0 40 and* r1 = int_range 0 3 and* r2 = int_range 0 3 in
    let* l1 = int_range 0 3 and* l2 = int_range 0 3 in
    pure (nvars, clauses, pad, (r1, l1), (r2, l2))
  in
  let print (nvars, clauses, pad, (r1, l1), (r2, l2)) =
    Printf.sprintf "%s pad=%d reserve=%d,%d lits=%d,%d" (print_cnf (nvars, clauses)) pad r1 r2
      l1 l2
  in
  QCheck2.Test.make ~count ~name:"reserve changes nothing" ~print gen
    (fun (nvars, clauses, pad, r1, r2) ->
      let half = List.length clauses / 2 in
      let batch1 = List.filteri (fun i _ -> i < half) clauses in
      let batch2 = List.filteri (fun i _ -> i >= half) clauses in
      let amount mode exact =
        match mode with 0 -> 0 | 1 -> exact / 2 | 2 -> exact | _ -> (4 * exact) + 100
      in
      let run reserve =
        let s = Solver.create () in
        let buf = Buffer.create 256 in
        Solver.on_learnt s
          (Some
             (fun ~lits ~lbd ->
               Buffer.add_string buf (string_of_int lbd);
               Array.iter (fun l -> Buffer.add_string buf (" " ^ string_of_int l)) lits;
               Buffer.add_char buf '\n'));
        let batch (mode, lmode) nv cs =
          if reserve then
            Solver.reserve s ~vars:(amount mode nv) ~clauses:(amount mode (List.length cs))
              ~lits:(amount lmode (List.fold_left (fun n c -> n + List.length c) 0 cs));
          ignore (Solver.new_vars s nv);
          List.iter (fun c -> Solver.add_clause s c) cs;
          Solver.solve s
        in
        let a = batch r1 nvars batch1 in
        let b = batch r2 pad batch2 in
        let export =
          if Solver.refuted s then
            let p = Solver.proof s in
            Proof.to_dimacs p ^ Proof.to_lrat p
          else ""
        in
        ( (a, b),
          (Solver.num_conflicts s, Solver.num_decisions s, Solver.num_propagations s),
          (Solver.num_learnt s, Solver.proof_steps s, Solver.proof_bytes s),
          Digest.string (Buffer.contents buf),
          Digest.string export )
      in
      run true = run false)

(* Under [every_conflict], verdicts and proofs must be unaffected —
   reduction only drops clauses that are neither reasons nor needed
   inputs. *)
let prop_reduce_preserves_verdicts ?(count = 300) gen =
  QCheck2.Test.make ~count ~name:"aggressive reduction preserves verdicts"
    ~print:print_cnf gen (fun (nvars, clauses) ->
      let s = Solver.create () in
      Solver.set_reduce s every_conflict;
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

(* Clause intake: [add_clause] stores each clause as [List.sort_uniq]
   leaves it, drops tautologies, and ignores everything after the empty
   clause.  Before any solve no literal is assigned, so the watch
   selection leaves the sorted order as it is. *)
let gen_intake =
  let open QCheck2.Gen in
  let* nvars = int_range 1 6 in
  let gen_lit = map2 (fun v neg -> Lit.of_var ~neg v) (int_range 0 (nvars - 1)) bool in
  let gen_clause = frequency [ (1, pure []); (10, list_size (int_range 1 8) gen_lit) ] in
  let* clauses = list_size (int_range 0 12) (pair (int_range 0 3) gen_clause) in
  let* unknown = map2 (fun k neg -> Lit.of_var ~neg (nvars + k)) (int_range 0 3) bool in
  pure (nvars, clauses, unknown)

let print_intake (nvars, clauses, unknown) =
  Printf.sprintf "%s unknown=%d"
    (print_cnf (nvars, List.map snd clauses))
    (Lit.to_dimacs unknown)

let tautology c =
  let rec go = function a :: (b :: _ as rest) -> Lit.var a = Lit.var b || go rest | _ -> false in
  go c

let prop_intake_normalises =
  QCheck2.Test.make ~count:1000 ~name:"add_clause stores sort_uniq minus tautologies"
    ~print:print_intake gen_intake (fun (nvars, clauses, unknown) ->
      let s = Tutil.fresh_solver nvars in
      List.iter (fun (tag, c) -> Solver.add_clause s ~tag c) clauses;
      let stored = ref [] in
      Solver.iter_input_clauses s (fun ~tag lits -> stored := (tag, Array.to_list lits) :: !stored);
      let rec expected = function
        | [] -> []
        | (tag, c) :: rest ->
          let c = List.sort_uniq Lit.compare c in
          if tautology c then expected rest
          else if c = [] then [ (tag, c) ]
          else (tag, c) :: expected rest
      in
      let base =
        List.find_opt (fun c -> not (tautology c)) (List.map (fun (_, c) -> List.sort_uniq Lit.compare c) clauses)
      in
      let raises =
        let s = Tutil.fresh_solver nvars in
        match Solver.add_clause s (unknown :: Option.value ~default:[] base) with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      List.rev !stored = expected clauses && raises)

(* Watch storage under churn: clauses of every length (units included)
   arrive between solves, so some are added under root-level
   assignments and watched out of sorted order, and a reduction after
   every conflict rebuilds the lists.  The suite runs at Paranoid, so
   every solve ends with the [sat.watches_consistent] probe. *)
let gen_churn =
  let open QCheck2.Gen in
  let* nvars = int_range 6 14 in
  let gen_lit = map2 (fun v neg -> Lit.of_var ~neg v) (int_range 0 (nvars - 1)) bool in
  let gen_clause =
    frequency [ (1, list_size (int_range 1 2) gen_lit); (6, list_size (int_range 3 5) gen_lit) ]
  in
  let gen_round =
    pair (list_size (int_range 0 12) gen_clause) (list_size (int_range 0 3) gen_lit)
  in
  let* rounds = list_size (int_range 1 8) gen_round in
  pure (nvars, rounds)

let watch_probes () =
  Isr_obs.Metrics.value
    (Isr_obs.Metrics.counter (Isr_check_core.Level.metrics ()) "check.sat.watches_consistent.pass")

let prop_watches_consistent =
  QCheck2.Test.make ~count:500 ~name:"watch lists stay consistent under churn"
    ~print:print_rounds gen_churn (fun (nvars, rounds) ->
      let s = Tutil.fresh_solver nvars in
      Solver.set_reduce s { Solver.enabled = true; base = 1; growth = 1.0; keep_lbd = 0 };
      let before = watch_probes () in
      List.iter
        (fun (cs, assumptions) ->
          List.iter (fun c -> Solver.add_clause s c) cs;
          ignore (Solver.solve ~assumptions s))
        rounds;
      watch_probes () - before = List.length rounds)

(* --- the clause store under churn ---------------------------------------- *)

(* The clauses arrive in batches, each followed by a solve under a few
   assumptions, and the database is reduced after every conflict, so
   slots and literals move on every reduction.  After each solve the
   test reads the store back and holds it against what it keeps itself:
   - every input clause, in insertion order, holds the literals the test
     added ([List.sort_uniq], tautologies dropped, nothing after a
     refutation), in whatever watch order the search left them;
   - the watch lists pass [sat.watches_consistent] (the suite runs at
     Paranoid, so every solve ends with that probe).
   [store_trace] also renders the run — every learnt clause and glue
   as [on_learnt] saw them, each read-back in stored literal order,
   every verdict and counter — for the reference digests below. *)
let gen_store gen =
  let open QCheck2.Gen in
  let* nvars, clauses = gen in
  let gen_lit = map2 (fun v neg -> Lit.of_var ~neg v) (int_range 0 (nvars - 1)) bool in
  let* nbatches = int_range 1 4 in
  let* assumptions = list_size (pure nbatches) (list_size (int_range 0 2) gen_lit) in
  pure (nvars, clauses, assumptions)

let store_trace (nvars, clauses, assumptions) =
  let s = Tutil.fresh_solver nvars in
  Solver.set_reduce s every_conflict;
  let buf = Buffer.create 4096 in
  let add_int i =
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ' '
  in
  Solver.on_learnt s
    (Some
       (fun ~lits ~lbd ->
         add_int lbd;
         Array.iter add_int lits;
         Buffer.add_char buf '\n'));
  let nbatches = List.length assumptions in
  let size = (List.length clauses + nbatches - 1) / nbatches in
  let reference = ref [] in
  let ok = ref true in
  List.iteri
    (fun b assumptions ->
      List.iteri
        (fun i c ->
          if i / size = b then begin
            if not (Solver.refuted s) then begin
              let c' = List.sort_uniq Lit.compare c in
              if not (tautology c') then reference := c' :: !reference
            end;
            Solver.add_clause s c
          end)
        clauses;
      let r = Solver.solve ~assumptions s in
      Buffer.add_string buf
        (match r with Solver.Sat -> "sat" | Solver.Unsat -> "unsat" | Solver.Undef -> "undef");
      Buffer.add_char buf '\n';
      let stored = ref [] in
      Solver.iter_input_clauses s (fun ~tag:_ lits ->
          Array.iter add_int lits;
          Buffer.add_char buf '\n';
          stored := Array.to_list lits :: !stored);
      if List.map (List.sort Lit.compare) !stored <> !reference then ok := false;
      List.iter add_int
        [ Solver.num_clauses s; Solver.num_conflicts s; Solver.num_decisions s;
          Solver.num_propagations s; Solver.num_learnt s; Solver.num_live_learnt s;
          Solver.num_reduces s ];
      Buffer.add_char buf '\n')
    assumptions;
  (!ok, Buffer.contents buf)

let print_store (nvars, clauses, assumptions) =
  Printf.sprintf "%s solving under %s" (print_cnf (nvars, clauses))
    (String.concat " | "
       (List.map
          (fun a -> String.concat "," (List.map (fun l -> string_of_int (Lit.to_dimacs l)) a))
          assumptions))

let prop_store_churn ?(count = 300) gen =
  QCheck2.Test.make ~count ~name:"clause store reads back under churn" ~print:print_store
    (gen_store gen) (fun case ->
      let before = watch_probes () in
      let ok, _ = store_trace case in
      let _, _, assumptions = case in
      ok && watch_probes () - before = List.length assumptions)

(* The reference digests of [store_trace] over fixed cases: 200 drawn
   from each generator with a fixed seed.  They were recorded with the
   clause store of one record and one literal array per clause; the flat
   store must reproduce them. *)
let store_pins =
  [ ("random", gen_cnf, "2f1faca988e0b8517e04b6e64f3bc92f");
    ("chains", Tutil.gen_cnf_chains, "ac7069507bd892a0d917f5488f8aaff9") ]

(* The search under frequent reductions, whose order reads every
   slot's glue and activity: 12 reductions on a problem of the search
   pins, recorded with the record store. *)
let reduce_pins =
  [
    ( "random 3-sat seed 7, reduce base 300",
      (fun () ->
        let s = cnf_solver (random_3sat ~seed:7 ~nvars:150 ~nclauses:639) in
        Solver.set_reduce s { Solver.enabled = true; base = 300; growth = 1.1; keep_lbd = 2 };
        let fp = search_fingerprint s (fun () -> Solver.solve s) in
        Printf.sprintf "%s reduces=%d deleted=%d" fp (Solver.num_reduces s) (Solver.num_deleted s)),
      "unsat conflicts=3109 decisions=3705 propagations=97472 learnt=3108 steps=3743 \
       digest=a38748c2eaa2ef43274b963a3ee512d0 reduces=12 deleted=2264" );
  ]

let store_reference_cases =
  List.map
    (fun (name, run, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) "search fingerprint" expected (run ())))
    reduce_pins
  @ List.map
    (fun (name, gen, expected) ->
      Alcotest.test_case ("store under churn, " ^ name) `Quick (fun () ->
          let cases = QCheck2.Gen.generate ~rand:(Random.State.make [| 32 |]) ~n:200 (gen_store gen) in
          let traces = List.map (fun c -> snd (store_trace c)) cases in
          Alcotest.(check string) "store digest" expected
            (Digest.to_hex (Digest.string (String.concat "" traces)))))
    store_pins

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
        prop_proof_free_same_search gen_cnf; prop_reserve_changes_nothing gen_cnf;
        prop_incremental_assumptions; prop_store_churn gen_cnf ]
  in
  (* Alcotest sizes its name column by the longest group name, so group
     names stay at most as long as "properties" to keep test names whole. *)
  let chains = List.map QCheck_alcotest.to_alcotest
      [ prop_matches_bruteforce Tutil.gen_cnf_chains; prop_unsat_proof_checks Tutil.gen_cnf_chains;
        prop_reduce_preserves_verdicts Tutil.gen_cnf_chains;
        prop_incremental_equals_batch ~count:100 Tutil.gen_cnf_chains;
        prop_proof_free_same_search ~count:300 ~reduce:every_conflict Tutil.gen_cnf_chains;
        prop_reserve_changes_nothing Tutil.gen_cnf_chains;
        prop_store_churn Tutil.gen_cnf_chains ]
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
      ("identity", search_identity_cases @ store_reference_cases);
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
      ( "intake",
        List.map QCheck_alcotest.to_alcotest [ prop_intake_normalises; prop_watches_consistent ] );
      ("chains", chains);
    ]
