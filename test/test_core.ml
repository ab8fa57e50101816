(* End-to-end tests for the verification engines: every engine must agree
   with the ground-truth verdict of the benchmark circuits, counterexamples
   must replay on the concrete model, and the depth measures must satisfy
   the paper's structural relations. *)

open Isr_model
open Isr_core
open Isr_suite

let limits =
  { Budget.time_limit = 30.0; conflict_limit = 2_000_000; bound_limit = 60; reduce = Isr_sat.Solver.default_reduce }

let engines =
  [
    Engine.Itp;
    Engine.Itpseq Bmc.Assume;
    Engine.Itpseq Bmc.Exact;
    Engine.Sitpseq (0.5, Bmc.Assume);
    Engine.Sitpseq (1.0, Bmc.Assume);
    Engine.Itpseq_cba (0.5, Bmc.Exact);
    Engine.Itpseq_pba (0.0, Bmc.Exact);
    Engine.Kind;
    Engine.Pdr;
    Engine.Portfolio;
  ]

(* The fast instances every engine is expected to close within the test
   limits. *)
let fast_names =
  [
    "amba2g3"; "amba4bug"; "eijkring8"; "eijkring10u7"; "vending7bug"; "traffic6";
    "traffic5bug"; "peterson"; "prodcons6bug"; "coherence3"; "coherence3bug";
    "guidance4"; "tcas12"; "rether16"; "counter6t40"; "gcount5t20"; "vending11";
    "prodcons8"; "reactor3x2"; "fifo2bug"; "hamming8"; "hamming6bug"; "dekker";
    "johnson6"; "johnson5u8"; "elevator6"; "stack3bug";
  ]

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "no registry entry %s" name

let check_engine_on eng e =
  let model = Registry.build_validated e in
  let verdict, _stats = Engine.run eng ~limits model in
  match (verdict, e.Registry.expected) with
  | Verdict.Proved _, Registry.Safe -> ()
  | Verdict.Falsified { depth; trace }, Registry.Unsafe d ->
    Alcotest.(check int) (Printf.sprintf "%s cex depth" e.Registry.name) d depth;
    (* Counterexamples must replay concretely. *)
    Alcotest.(check bool)
      (Printf.sprintf "%s trace replays" e.Registry.name)
      true
      (Sim.first_bad model trace = Some depth)
  | v, expected ->
    Alcotest.failf "%s: engine %s answered %a, expected %a" e.Registry.name
      (Engine.name eng) Verdict.pp v Registry.pp_expected expected

let engine_tests =
  List.map
    (fun eng ->
      Alcotest.test_case (Engine.name eng) `Slow (fun () ->
          List.iter (fun n -> check_engine_on eng (entry n)) fast_names))
    engines

(* Incremental BMC agrees with from-scratch BMC instance by instance. *)
let test_bmc_incremental_agrees () =
  List.iter
    (fun name ->
      let e = entry name in
      let model = Registry.build_validated e in
      List.iter
        (fun check ->
          let v1, _ = Bmc.run ~check ~limits model in
          let v2, _ = Bmc.run ~check ~incremental:true ~limits model in
          match (v1, v2) with
          | Verdict.Falsified { depth = d1; _ }, Verdict.Falsified { depth = d2; trace } ->
            Alcotest.(check int) (name ^ " same depth") d1 d2;
            Alcotest.(check bool) (name ^ " inc trace replays") true
              (Sim.first_bad model trace = Some d2)
          | Verdict.Unknown (Verdict.Bound_limit _), Verdict.Unknown (Verdict.Bound_limit _)
            ->
            ()
          | _ ->
            Alcotest.failf "%s: scratch %a vs incremental %a" name Verdict.pp v1
              Verdict.pp v2)
        [ Bmc.Exact; Bmc.Assume ])
    [ "tcas12"; "rether16"; "amba4bug"; "vending7bug"; "johnson5u8" ];
  (* And on a safe instance with a small bound cap. *)
  let safe = Registry.build_validated (entry "traffic6") in
  let small = { limits with Budget.bound_limit = 8 } in
  match Bmc.run ~check:Bmc.Assume ~incremental:true ~limits:small safe with
  | Verdict.Unknown (Verdict.Bound_limit 8), _ -> ()
  | v, _ -> Alcotest.failf "incremental on safe: %a" Verdict.pp v

(* BMC alone falsifies and never proves. *)
let test_bmc_falsification () =
  List.iter
    (fun check ->
      let e = entry "tcas12" in
      let model = Registry.build_validated e in
      match Bmc.run ~check ~limits model with
      | Verdict.Falsified { depth; trace }, _ ->
        Alcotest.(check int) "depth" 12 depth;
        Alcotest.(check bool) "replays" true (Sim.check_trace model trace)
      | v, _ -> Alcotest.failf "bmc: %a" Verdict.pp v)
    [ Bmc.Bound; Bmc.Exact; Bmc.Assume ];
  let safe = Registry.build_validated (entry "traffic6") in
  match
    Bmc.run ~limits:{ limits with Budget.bound_limit = 10 } ~check:Bmc.Assume safe
  with
  | Verdict.Unknown (Verdict.Bound_limit _), _ -> ()
  | v, _ -> Alcotest.failf "bmc on safe model: %a" Verdict.pp v

(* Structural relations on depth measures (Section IV-B): for ITPSEQ
   variants, kfp - jfp is bounded by the backward diameter. *)
let test_depth_relation () =
  let checked = ref 0 in
  List.iter
    (fun name ->
      let e = entry name in
      let model = Registry.build_validated e in
      match Isr_bdd.Reach.backward ~max_nodes:2_000_000 model with
      | { Isr_bdd.Reach.verdict = Isr_bdd.Reach.Proved; diameter = Some db; _ } -> (
        match Engine.run (Engine.Itpseq Bmc.Assume) ~limits model with
        | Verdict.Proved { kfp; jfp; _ }, _ ->
          incr checked;
          Alcotest.(check bool)
            (Printf.sprintf "%s: kfp(%d) - jfp(%d) <= d_B(%d)" name kfp jfp db)
            true
            (kfp - jfp <= db)
        | _ -> ())
      | _ -> ())
    [ "amba2g3"; "traffic6"; "coherence3"; "guidance4"; "vending11" ];
  Alcotest.(check bool) "at least two instances checked" true (!checked >= 2)

(* The engines must also agree with exhaustive BDD reachability on every
   mid-size instance that BDDs can handle. *)
let test_bdd_cross_check () =
  List.iter
    (fun name ->
      let e = entry name in
      let model = Registry.build_validated e in
      match Isr_bdd.Reach.forward ~max_nodes:4_000_000 model with
      | { Isr_bdd.Reach.verdict = Isr_bdd.Reach.Proved; _ } ->
        Alcotest.(check bool) (name ^ " expected safe") true (e.Registry.expected = Registry.Safe)
      | { Isr_bdd.Reach.verdict = Isr_bdd.Reach.Falsified d; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "%s expected unsafe@%d" name d)
          true
          (e.Registry.expected = Registry.Unsafe d)
      | _ -> ())
    fast_names

(* Every PASS ships an inductive certificate that an independent checker
   accepts — including the subtle assume-k case, where closure relies on
   the columns implying the property. *)
let test_certificates () =
  let proving_engines =
    [
      Engine.Itp;
      Engine.Itpseq Bmc.Assume;
      Engine.Itpseq Bmc.Exact;
      Engine.Sitpseq (0.5, Bmc.Assume);
      Engine.Itpseq_cba (0.5, Bmc.Exact);
      Engine.Itpseq_pba (0.0, Bmc.Exact);
      Engine.Pdr;
    ]
  in
  let safe_names = [ "amba2g3"; "traffic6"; "coherence3"; "vending11"; "peterson"; "guidance4" ] in
  List.iter
    (fun name ->
      let model = Registry.build_validated (entry name) in
      List.iter
        (fun eng ->
          match Engine.run eng ~limits model with
          | (Verdict.Proved { invariant = Some _; _ } as v), _ -> (
            match Certify.check_verdict model v with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s / %s: %s" name (Engine.name eng) e)
          | v, _ ->
            Alcotest.failf "%s / %s: expected a certified PASS, got %a" name
              (Engine.name eng) Verdict.pp v)
        proving_engines)
    safe_names

let test_certify_rejects_bogus () =
  let model = Registry.build_validated (entry "vending11") in
  let man = model.Isr_model.Model.man in
  (* "true" is not safe; "false" is not initial; credit=0 is not closed. *)
  (match Certify.check model Isr_aig.Aig.lit_true with
  | Error Certify.Not_safe -> ()
  | _ -> Alcotest.fail "true should fail safety");
  (match Certify.check model Isr_aig.Aig.lit_false with
  | Error Certify.Not_initial -> ()
  | _ -> Alcotest.fail "false should fail initiation");
  let credit_zero =
    List.init model.Isr_model.Model.num_latches (fun i ->
        Isr_aig.Aig.not_ (Isr_model.Model.latch_lit model i))
    |> Isr_aig.Aig.big_and man
  in
  match Certify.check model credit_zero with
  | Error Certify.Not_inductive -> ()
  | _ -> Alcotest.fail "credit=0 should fail consecution"

(* k-induction at k = 0 checks initiation and consecution of the property
   itself, so its proof carries the property as a certificate when bad
   reads latches only; a bad that reads an input is no state predicate,
   and a proof at k > 0 carries none. *)
let test_kind_invariant () =
  let kind model =
    match Engine.run Engine.Kind ~limits model with
    | Verdict.Proved { kfp; invariant; _ }, _ -> (kfp, invariant)
    | v, _ -> Alcotest.failf "%s: expected a PASS, got %a" model.Model.name Verdict.pp v
  in
  let model = Registry.build_validated (entry "vending11") in
  (match kind model with
  | 0, Some inv -> (
    match Certify.check model inv with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "vending11: the k = 0 invariant does not check")
  | k, inv ->
    Alcotest.failf "vending11: k = %d, invariant %s" k
      (if inv = None then "missing" else "present"));
  (* bad = latch & input with the latch stuck at 0: proved at k = 0. *)
  let man = Isr_aig.Aig.create () in
  let x = Isr_aig.Aig.fresh_input man in
  let l = Isr_aig.Aig.fresh_input man in
  let input_bad =
    {
      Model.name = "input_bad";
      man;
      num_inputs = 1;
      num_latches = 1;
      next = [| Isr_aig.Aig.lit_false |];
      init = [| false |];
      bad = Isr_aig.Aig.and_ man l x;
      frames = Isr_model.Frame_cnf.cache ();
    }
  in
  let k, inv = kind input_bad in
  Alcotest.(check (pair int bool)) "bad reads an input" (0, false) (k, Option.is_some inv);
  let k, inv = kind (Registry.build_validated (entry "peterson")) in
  Alcotest.(check bool) "peterson proved at k > 0" true (k > 0);
  Alcotest.(check bool) "peterson carries no invariant" false (Option.is_some inv)

(* Liveness via L2S: justice properties decided by the safety engines. *)
let test_l2s_liveness () =
  let open Isr_aig in
  (* 1. A free-running 3-bit counter visits 0 infinitely often: the
     transformed model must be falsifiable, and the counterexample must
     decode into a genuine fair lasso. *)
  let free = Isr_suite.Circuits.counter ~bits:3 ~target:7 in
  let j_zero =
    Aig.big_and free.Isr_model.Model.man
      (List.init 3 (fun i -> Aig.not_ (Isr_model.Model.latch_lit free i)))
  in
  let safety, decode = L2s.transform free ~justice:[ j_zero ] in
  (match Engine.run (Engine.Bmc_only Bmc.Exact) ~limits safety with
  | Verdict.Falsified { trace; _ }, _ ->
    let w = decode trace in
    Alcotest.(check bool) "fair lasso replays" true
      (L2s.check_witness free ~justice:[ j_zero ] w)
  | v, _ -> Alcotest.failf "free counter liveness: %a" Verdict.pp v);
  (* 2. A saturating counter never reaches 6 once stuck at 4: the
     justice condition "counter = 6" admits no fair lasso. *)
  let b = Isr_model.Builder.create "saturating" in
  let q = Isr_model.Builder.latches b 3 in
  let at4 = Isr_model.Builder.vec_eq_const b q 4 in
  let q1 = Isr_model.Builder.vec_mux b at4 q (Isr_model.Builder.vec_incr b q) in
  Array.iteri (fun i l -> Isr_model.Builder.set_next b l q1.(i)) q;
  let sat_model = Isr_model.Builder.finish b ~bad:Aig.lit_false in
  let eq_sat v =
    Aig.big_and sat_model.Isr_model.Model.man
      (List.init 3 (fun i ->
           let l = Isr_model.Model.latch_lit sat_model i in
           if (v lsr i) land 1 = 1 then l else Aig.not_ l))
  in
  let safety2, _ = L2s.transform sat_model ~justice:[ eq_sat 6 ] in
  (match Engine.run Engine.Pdr ~limits safety2 with
  | Verdict.Proved _, _ -> ()
  | v, _ -> Alcotest.failf "saturating liveness: %a" Verdict.pp v);
  (* 3. Two justice conditions at once: the lasso must visit both 1 and
     2 — satisfiable on the free counter. *)
  let eq_const v =
    Aig.big_and free.Isr_model.Model.man
      (List.init 3 (fun i ->
           let l = Isr_model.Model.latch_lit free i in
           if (v lsr i) land 1 = 1 then l else Aig.not_ l))
  in
  let js = [ eq_const 1; eq_const 2 ] in
  let safety3, decode3 = L2s.transform free ~justice:js in
  match Engine.run (Engine.Bmc_only Bmc.Exact) ~limits safety3 with
  | Verdict.Falsified { trace; _ }, _ ->
    Alcotest.(check bool) "two-condition lasso" true
      (L2s.check_witness free ~justice:js (decode3 trace))
  | v, _ -> Alcotest.failf "two-justice liveness: %a" Verdict.pp v

(* --- inclusion sessions ------------------------------------------------ *)

(* A random state predicate over the latches of [model], constants
   included. *)
let random_pred rs model =
  let open Isr_aig in
  let man = model.Model.man in
  let rec go d =
    if Random.State.int rs 12 = 0 then if Random.State.bool rs then Aig.lit_true else Aig.lit_false
    else if d = 0 || Random.State.int rs 4 = 0 then
      let l = Model.latch_lit model (Random.State.int rs model.Model.num_latches) in
      if Random.State.bool rs then l else Aig.not_ l
    else
      let a = go (d - 1) and b = go (d - 1) in
      let g = if Random.State.bool rs then Aig.and_ man a b else Aig.or_ man a b in
      if Random.State.bool rs then Aig.not_ g else g
  in
  go 4

(* The value of a state predicate in the state whose latch [i] is bit [i]
   of [state]. *)
let holds model p state =
  let open Isr_aig in
  let man = model.Model.man in
  Aig.eval man
    (fun input ->
      let rec find i =
        if i = model.Model.num_latches then false
        else if Aig.input_index man (Model.latch_lit model i) = input then
          (state lsr i) land 1 = 1
        else find (i + 1)
      in
      find 0)
    p

(* One session answers a run of random checks — reset now and then, as
   the engines do at each bound — exactly as enumerating every state. *)
let prop_incl_matches_enumeration =
  QCheck2.Test.make ~count:200 ~name:"inclusion session agrees with enumeration"
    ~print:string_of_int QCheck2.Gen.int (fun seed ->
      let rs = Random.State.make [| seed |] in
      let model = Isr_suite.Circuits.counter ~bits:4 ~target:15 in
      let incl = Incl.create (Budget.start limits) (Verdict.mk_stats ()) model in
      let states = List.init (1 lsl model.Model.num_latches) Fun.id in
      List.for_all
        (fun _ ->
          if Random.State.int rs 5 = 0 then Incl.reset incl;
          let a = random_pred rs model and b = random_pred rs model in
          let h = holds model in
          Incl.implies incl a b = List.for_all (fun s -> (not (h a s)) || h b s) states
          && Incl.sat_and incl a b = List.exists (fun s -> h a s && h b s) states)
        (List.init 8 Fun.id))

(* A node is encoded once per session: repeating a check adds no
   variable, and a reset starts the encoding over. *)
let test_incl_memoises () =
  let model = Registry.build_validated (entry "vending11") in
  let stats = Verdict.mk_stats () in
  let incl = Incl.create (Budget.start limits) stats model in
  let p = Model.prop model and init = Model.init_lit model in
  Alcotest.(check bool) "init => prop" true (Incl.implies incl init p);
  let fresh = Verdict.incl_new_vars stats in
  Alcotest.(check bool) "first check encodes" true (fresh > 0);
  Alcotest.(check bool) "init => prop again" true (Incl.implies incl init p);
  Alcotest.(check int) "second check encodes nothing" fresh (Verdict.incl_new_vars stats);
  Incl.reset incl;
  Alcotest.(check bool) "init => prop after reset" true (Incl.implies incl init p);
  Alcotest.(check int) "reset encodes again" (2 * fresh) (Verdict.incl_new_vars stats);
  Alcotest.(check int) "checks counted" 3 (Verdict.incl_checks stats);
  Alcotest.(check int) "one SAT call each" 3 (Verdict.sat_calls stats);
  (* A satisfying assignment is remembered, across a reset too, and
     answers the same question without the solver. *)
  Alcotest.(check bool) "init and prop" true (Incl.sat_and incl init p);
  Incl.reset incl;
  Alcotest.(check bool) "init and prop again" true (Incl.sat_and incl init p);
  Alcotest.(check int) "answered from memory" 1 (Verdict.incl_cached stats);
  Alcotest.(check int) "no SAT call for it" 4 (Verdict.sat_calls stats)

(* Unknown paths: a tiny budget must yield Unknown, never a wrong
   verdict. *)
let test_resource_limits () =
  let e = entry "rether16" in
  let model = Registry.build_validated e in
  let tiny = { Budget.time_limit = 30.0; conflict_limit = 5; bound_limit = 60; reduce = Isr_sat.Solver.default_reduce } in
  (match Engine.run Engine.Itp ~limits:tiny model with
  | Verdict.Unknown _, _ -> ()
  | Verdict.Falsified { depth; trace }, _ ->
    (* Acceptable only if it is the true counterexample. *)
    Alcotest.(check int) "depth" 16 depth;
    Alcotest.(check bool) "replays" true (Sim.check_trace model trace)
  | v, _ -> Alcotest.failf "tiny budget: %a" Verdict.pp v);
  let short = { Budget.time_limit = 30.0; conflict_limit = 2_000_000; bound_limit = 3; reduce = Isr_sat.Solver.default_reduce } in
  match Engine.run (Engine.Itpseq Bmc.Assume) ~limits:short model with
  | Verdict.Unknown (Verdict.Bound_limit 3), _ -> ()
  | v, _ -> Alcotest.failf "bound limit: %a" Verdict.pp v

(* Regression: [Budget.solve] used to leave its [on_learnt]/[on_restart]
   observers installed after returning or raising, so a later direct
   [Solver.solve] on the same solver kept charging the stale registry of
   a finished call. *)
(* Pigeonhole php(n): needs well over the tiny conflict budgets below. *)
let php_solver n =
  let open Isr_sat in
  let var p h = (p * n) + h in
  let s = Solver.create () in
  for _ = 1 to (n + 1) * n do
    ignore (Solver.new_var s)
  done;
  for p = 0 to n do
    Solver.add_clause s (List.init n (fun h -> Lit.pos (var p h)))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s [ Lit.neg (Lit.pos (var p1 h)); Lit.neg (Lit.pos (var p2 h)) ]
      done
    done
  done;
  s

let test_budget_callbacks_cleared () =
  let open Isr_sat in
  let s = php_solver 5 in
  let stats = Verdict.mk_stats () in
  let tiny = { Budget.time_limit = 30.0; conflict_limit = 50; bound_limit = 60; reduce = Isr_sat.Solver.default_reduce } in
  let budget = Budget.start tiny in
  (match Budget.solve budget stats s with
  | exception Budget.Out_of_conflicts -> ()
  | _ -> Alcotest.fail "expected conflict exhaustion");
  let observed = Isr_obs.Metrics.hist_count stats.Verdict.h_learnt_len in
  Alcotest.(check bool) "some clauses learnt" true (observed > 0);
  (* Finishing the refutation outside the budget layer learns many more
     clauses; none of them may reach the finished call's registry. *)
  Alcotest.(check bool) "refutes" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check int) "observer was cleared" observed
    (Isr_obs.Metrics.hist_count stats.Verdict.h_learnt_len)

(* Budget exhaustion mid-solve must leave a loadable flight.jsonl: the
   raise site inside [Budget.solve] dumps before unwinding. *)
let test_budget_expiry_dumps_flight () =
  let dir = Filename.temp_file "isr_flight" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () ->
      Isr_obs.Flight.disarm ();
      if Sys.file_exists dir then rm dir)
    (fun () ->
      Isr_obs.Flight.arm ~dir ();
      (* Something in the ring before the search, so the dump provably
         carries the pre-expiry tail. *)
      Isr_obs.Event.emit
        (Isr_obs.Event.Phase
           {
             phase = "test.pre";
             step = -1;
             total = -1;
             detail = "";
             conflicts = 0;
             propagations = 0;
             learnt = 0;
           });
      let s = php_solver 5 in
      let stats = Verdict.mk_stats () in
      let tiny =
        { Budget.time_limit = 30.0; conflict_limit = 50; bound_limit = 60;
          reduce = Isr_sat.Solver.default_reduce }
      in
      (match Budget.solve (Budget.start tiny) stats s with
      | exception Budget.Out_of_conflicts -> ()
      | _ -> Alcotest.fail "expected conflict exhaustion");
      let path = Filename.concat dir "flight.jsonl" in
      Alcotest.(check bool) "budget expiry left a dump" true (Sys.file_exists path);
      let meta, _, evs = Isr_obs.Flight.read path in
      (match meta with
      | Some m ->
        Alcotest.(check string) "dump reason" "budget.conflicts"
          m.Isr_obs.Flight.reason
      | None -> Alcotest.fail "no flight metadata line");
      Alcotest.(check bool) "events loadable and non-empty" true (evs <> []);
      Alcotest.(check bool) "pre-expiry event survived" true
        (List.exists
           (fun (e : Isr_obs.Event.t) ->
             match e.Isr_obs.Event.kind with
             | Isr_obs.Event.Phase { phase; _ } -> phase = "test.pre"
             | _ -> false)
           evs))

(* Randsim is the first lane, so on a bug random simulation hits it wins
   on its first turn.  The BMC minimisation it runs is the portfolio's
   only SAT effort then, and must reach the totals exactly once. *)
let test_portfolio_randsim_effort () =
  let e = entry "vending7bug" in
  let model = Registry.build_validated e in
  let cap =
    match Rand_sim.falsify model with
    | Some t -> Trace.depth t
    | None -> Alcotest.fail "random simulation misses vending7bug"
  in
  let _, bmc = Bmc.run ~check:Bmc.Exact ~limits:{ limits with Budget.bound_limit = cap } model in
  let verdict, stats = Portfolio.verify ~limits (Registry.build_validated e) in
  (match verdict with
  | Verdict.Falsified _ -> ()
  | v -> Alcotest.failf "expected a counterexample, got %a" Verdict.pp v);
  Alcotest.(check bool) "minimisation effort reported" true (Verdict.sat_calls stats > 0);
  Alcotest.(check int) "counted once" (Verdict.sat_calls bmc) (Verdict.sat_calls stats)

(* A random-simulation miss is not a deadline: on a design every lane
   leaves undecided at the bound cap, the portfolio reports that cap. *)
let test_portfolio_miss_reason () =
  let model = Registry.build_validated (entry "peterson") in
  match Portfolio.verify ~limits:{ limits with Budget.bound_limit = 2 } model with
  | Verdict.Unknown (Verdict.Bound_limit 2), _ -> ()
  | v, _ -> Alcotest.failf "expected unknown (bound 2), got %a" Verdict.pp v

(* Who logs a proof: only the solvers whose caller reads one.  At level
   Off the PDR, k-induction, BMC, certificate and analysis solvers log
   nothing (read from the run's registry, or from the [proof_bytes] that
   ends every [sat.solve] span when no registry is at hand), while the
   interpolating engines log.  At Paranoid every solver logs again: a PDR
   run on peterson replays the 11 refutations it replayed when all
   unrollings logged. *)
let test_who_logs () =
  let module Level = Isr_check_core.Level in
  let saved = Level.get () in
  Fun.protect ~finally:(fun () -> Level.set saved) @@ fun () ->
  Level.set Level.Off;
  let model name = Registry.build_validated (entry name) in
  let proof_bytes stats =
    Isr_obs.Metrics.gauge_value (Isr_obs.Metrics.gauge (Verdict.registry stats) "proof.bytes")
  in
  let logged eng name = proof_bytes (snd (Engine.run eng ~limits (model name))) in
  List.iter
    (fun (eng, name) ->
      Alcotest.(check (float 0.)) (Engine.name eng ^ " logs nothing") 0. (logged eng name))
    [ (Engine.Pdr, "peterson"); (Engine.Kind, "traffic6"); (Engine.Bmc_only Bmc.Assume, "vending7bug") ];
  List.iter
    (fun eng ->
      Alcotest.(check bool) (Engine.name eng ^ " logs") true (logged eng "traffic6" > 0.))
    [ Engine.Itp; Engine.Itpseq Bmc.Assume; Engine.Itpseq_pba (0.0, Bmc.Exact) ];
  (* Every [sat.solve] of [f ()] reports its solver's log size. *)
  let solve_bytes f =
    let seen = ref [] in
    let sink =
      {
        Isr_obs.Event.on_span =
          Some
            (function
            | Isr_obs.Event.End { args; _ } -> (
              match List.assoc_opt "proof_bytes" args with
              | Some b -> seen := int_of_string b :: !seen
              | None -> ())
            | Isr_obs.Event.Begin _ -> ());
        on_record = None;
      }
    in
    Isr_obs.Event.subscribe sink;
    Fun.protect ~finally:(fun () -> Isr_obs.Event.unsubscribe sink) f;
    !seen
  in
  let traffic6 = model "traffic6" in
  let inv =
    match Engine.run Engine.Itp ~limits traffic6 with
    | Verdict.Proved { invariant = Some inv; _ }, _ -> inv
    | v, _ -> Alcotest.failf "expected an invariant, got %a" Verdict.pp v
  in
  let certify = solve_bytes (fun () -> ignore (Certify.check traffic6 inv)) in
  Alcotest.(check int) "certify solves" 3 (List.length certify);
  Alcotest.(check (list int)) "certify logs nothing" [] (List.filter (( <> ) 0) certify);
  let analysis =
    solve_bytes (fun () ->
        ignore (Isr_analyze.run ~mode:Isr_analyze.Full (model "industrialA2")))
  in
  Alcotest.(check bool) "analysis solves" true (analysis <> []);
  Alcotest.(check (list int)) "analysis logs nothing" [] (List.filter (( <> ) 0) analysis);
  Level.set Level.Paranoid;
  Level.reset_metrics ();
  ignore (Engine.run Engine.Pdr ~limits (model "peterson"));
  Alcotest.(check int) "paranoid pdr replays" 11
    (Isr_obs.Metrics.value
       (Isr_obs.Metrics.counter (Level.metrics ()) "check.sat.proof_replay.pass"))

let () =
  Alcotest.run "isr_core"
    [
      ("engines", engine_tests);
      ( "bmc",
        [
          Alcotest.test_case "falsification" `Slow test_bmc_falsification;
          Alcotest.test_case "incremental agrees" `Slow test_bmc_incremental_agrees;
          Alcotest.test_case "resource limits" `Quick test_resource_limits;
        ] );
      ( "budget",
        [
          Alcotest.test_case "observers cleared" `Quick test_budget_callbacks_cleared;
          Alcotest.test_case "budget expiry dumps flight" `Quick
            test_budget_expiry_dumps_flight;
        ] );
      ( "inclusion",
        [
          Alcotest.test_case "memoised encoding" `Quick test_incl_memoises;
          QCheck_alcotest.to_alcotest prop_incl_matches_enumeration;
        ] );
      ( "cross-checks",
        [
          Alcotest.test_case "depth relation" `Slow test_depth_relation;
          Alcotest.test_case "bdd agreement" `Slow test_bdd_cross_check;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "proofs certify" `Slow test_certificates;
          Alcotest.test_case "bogus rejected" `Quick test_certify_rejects_bogus;
          Alcotest.test_case "kind invariant at k = 0" `Quick test_kind_invariant;
        ] );
      ("proofs", [ Alcotest.test_case "who logs" `Quick test_who_logs ]);
      ( "liveness",
        [
          Alcotest.test_case "l2s" `Slow test_l2s_liveness;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "randsim effort counted" `Quick test_portfolio_randsim_effort;
          Alcotest.test_case "a randsim miss reports the bound" `Quick
            test_portfolio_miss_reason;
        ] );
    ]
