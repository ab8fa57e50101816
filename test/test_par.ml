(* The parallel runner: raced verdicts must agree with the sequential
   portfolio (and with the ground truth), bound-parallel BMC must report
   the same minimal depth as sequential deepening, and losers must
   observe cancellation promptly instead of running to their deadline;
   the verify pipeline built on them must agree with the ground truth
   under every analyze mode and give each bad artifact exit class 3. *)

open Isr_core
open Isr_model
open Isr_suite

let limits =
  { Budget.time_limit = 30.0; conflict_limit = 2_000_000; bound_limit = 60; reduce = Isr_sat.Solver.default_reduce }

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "no benchmark %s" name

(* Small instances covering both verdicts; the sequential engine tests
   already close all of these within the limits. *)
let race_names = [ "amba2g3"; "traffic6"; "vending7bug"; "fifo2bug"; "hamming6bug" ]

let test_race_agrees () =
  List.iter
    (fun name ->
      let e = entry name in
      let model = Registry.build_validated e in
      let seq, _ = Portfolio.verify ~limits model in
      let par, stats = Isr_par.portfolio ~jobs:4 ~limits model in
      Alcotest.(check bool)
        (name ^ ": proved agree") (Verdict.is_proved seq) (Verdict.is_proved par);
      Alcotest.(check bool)
        (name ^ ": falsified agree")
        (Verdict.is_falsified seq) (Verdict.is_falsified par);
      (* And both match the generator's ground truth.  Lanes run on
         private copies of the manager, so a raced invariant must have
         been copied back into [model]'s manager to certify there. *)
      (match (e.Registry.expected, par) with
      | Registry.Safe, Verdict.Proved _ ->
        Alcotest.(check (result unit string))
          (name ^ ": raced invariant certifies") (Ok ())
          (Certify.check_verdict model par)
      | Registry.Unsafe d, Verdict.Falsified { depth; trace } ->
        Alcotest.(check int) (name ^ ": minimal depth") d depth;
        Alcotest.(check bool) (name ^ ": trace replays") true
          (Sim.check_trace model trace)
      | _, v -> Alcotest.failf "%s: raced verdict %a" name Verdict.pp v);
      (* The workers' registries were merged at join. *)
      Alcotest.(check bool) (name ^ ": stats merged") true (Verdict.sat_calls stats > 0))
    race_names

let test_bmc_par_depth () =
  List.iter
    (fun name ->
      let e = entry name in
      let model = Registry.build_validated e in
      match (Bmc.run ~check:Bmc.Exact ~limits model, Isr_par.bmc ~jobs:4 ~limits model) with
      | (Verdict.Falsified { depth = ds; _ }, _), (Verdict.Falsified { depth = dp; trace }, _)
        ->
        Alcotest.(check int) (name ^ ": same depth") ds dp;
        Alcotest.(check bool) (name ^ ": trace replays") true
          (Sim.check_trace model trace)
      | (vs, _), (vp, _) ->
        Alcotest.failf "%s: seq %a vs par %a" name Verdict.pp vs Verdict.pp vp)
    [ "vending7bug"; "traffic5bug"; "prodcons6bug" ]

(* [--time] is one deadline for the whole race.  fifo3 stays undecided
   for far longer than the limit, and its lanes retire at different
   times, so workers keep claiming pending members; each claimed member
   may run only until the race's deadline, not for a fresh full budget
   of its own. *)
let test_race_deadline () =
  let model = Registry.build_validated (entry "fifo3") in
  let time_limit = 2.0 in
  let t0 = Isr_obs.Clock.now () in
  let verdict, _ =
    Isr_par.portfolio ~jobs:4 ~limits:{ Budget.default_limits with time_limit } model
  in
  let elapsed = Isr_obs.Clock.now () -. t0 in
  (match verdict with
  | Verdict.Unknown _ -> ()
  | v -> Alcotest.failf "fifo3 decided within %.1fs: %a" time_limit Verdict.pp v);
  if elapsed > 1.5 *. time_limit then
    Alcotest.failf "race ran %.2fs under a %.1fs limit" elapsed time_limit

(* A pre-set token aborts before any search is attempted. *)
let test_cancel_preset () =
  let token = Atomic.make true in
  match Budget.check_time (Budget.start ~cancel:token limits) with
  | exception Budget.Cancelled -> ()
  | () -> Alcotest.fail "expected Cancelled"

(* A racing loser must stop within a conflict slice of the token being
   set, not at its deadline: refuting php(9) takes far longer than the
   handful of milliseconds we allow before cancelling. *)
let test_cancel_mid_search () =
  let n = 9 in
  let var p h = (p * n) + h in
  let open Isr_sat in
  let token = Atomic.make false in
  let worker () =
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
          Solver.add_clause s
            [ Lit.neg (Lit.pos (var p1 h)); Lit.neg (Lit.pos (var p2 h)) ]
        done
      done
    done;
    let b = Budget.start ~cancel:token { limits with Budget.time_limit = 600.0 } in
    let stats = Verdict.mk_stats () in
    match Budget.solve b stats s with
    | exception Budget.Cancelled -> `Cancelled
    | r -> `Finished r
  in
  let t0 = Isr_obs.Clock.now () in
  let d = Domain.spawn worker in
  Unix.sleepf 0.05;
  Atomic.set token true;
  let outcome = Domain.join d in
  let elapsed = Isr_obs.Clock.now () -. t0 in
  (match outcome with
  | `Cancelled -> ()
  | `Finished _ -> Alcotest.fail "php(9) refuted before cancellation?");
  (* Generous bound: one poll interval is a few hundred conflicts, far
     under a second even on a slow machine. *)
  Alcotest.(check bool)
    (Printf.sprintf "stopped promptly (%.2fs)" elapsed)
    true (elapsed < 10.0)

(* --- event stream of a real race --------------------------------------------- *)

module Event = Isr_obs.Event

(* The race's lifecycle, projected out of the merged stream: spawns,
   cancellations with their causal edges, published verdicts. *)
let lifecycle evs =
  List.filter_map
    (fun e ->
      match e.Event.kind with
      | Event.Spawn { worker; engines } -> Some (`Spawn (worker, engines))
      | Event.Cancel { worker; cause; by } -> Some (`Cancel (worker, cause, by))
      | Event.Verdict { worker; verdict } -> Some (`Verdict (worker, verdict))
      | _ -> None)
    evs

let record_race f =
  let r = Event.recorder () in
  let c = Event.recording r in
  Event.subscribe c;
  let result = Fun.protect ~finally:(fun () -> Event.unsubscribe c) f in
  (result, Event.events r)

(* Replaying the same portfolio race must tell the same story: the same
   workers spawned on the same engine groups, a winner that published the
   same verdict, and every Race_won cancellation edge pointing at that
   winner.  (Which worker wins may differ between replays — that's the
   race — but the record must stay internally causal each time.) *)
let test_race_event_story () =
  let model = Registry.build_validated (entry "amba2g3") in
  let story () =
    let (verdict, _), evs = record_race (fun () -> Isr_par.portfolio ~jobs:4 ~limits model) in
    (* The merged stream is sorted by (ts, dom, seq). *)
    let key e = (e.Event.ts, e.Event.dom, e.Event.seq) in
    Alcotest.(check bool) "merged stream sorted" true
      (List.sort (fun a b -> compare (key a) (key b)) evs = evs);
    let life = lifecycle evs in
    let spawns =
      List.filter_map (function `Spawn (w, e) -> Some (w, e) | _ -> None) life
    in
    let winner =
      match List.filter_map (function `Verdict (w, v) -> Some (w, v) | _ -> None) life with
      | [] -> Alcotest.fail "no verdict event in a decided race"
      | (w, v) :: _ -> (w, v)
    in
    List.iter
      (function
        | `Cancel (w, Event.Race_won, by) ->
          Alcotest.(check int) "cancel edge points at the winner" (fst winner) by;
          Alcotest.(check bool) "winner is not cancelled by itself" true (w <> by)
        | _ -> ())
      life;
    (* Every spawned loser has an explanation: a cancellation edge or a
       budget expiry of its own. *)
    List.iter
      (fun (w, _) ->
        if w <> fst winner then
          Alcotest.(check bool)
            (Printf.sprintf "worker %d's stop is explained" w)
            true
            (List.exists (function `Cancel (w', _, _) -> w' = w | _ -> false) life))
      spawns;
    (verdict, List.sort compare spawns, snd winner)
  in
  let v1, spawns1, tag1 = story () in
  let v2, spawns2, tag2 = story () in
  Alcotest.(check bool) "replay: same verdict" true
    (Verdict.is_proved v1 = Verdict.is_proved v2
    && Verdict.is_falsified v1 = Verdict.is_falsified v2);
  Alcotest.(check bool) "replay: same worker/engine groups" true (spawns1 = spawns2);
  Alcotest.(check string) "replay: same published verdict tag" tag1 tag2

(* Bound-parallel BMC: the counterexample's publisher is the [by] edge of
   every Min_depth cancellation, and dispatch events cover every bound up
   to the found depth. *)
let test_bmc_event_story () =
  let model = Registry.build_validated (entry "vending7bug") in
  let (verdict, _), evs = record_race (fun () -> Isr_par.bmc ~jobs:4 ~limits model) in
  let depth =
    match verdict with
    | Verdict.Falsified { depth; _ } -> depth
    | v -> Alcotest.failf "expected a counterexample, got %a" Verdict.pp v
  in
  let life = lifecycle evs in
  (* The standing verdict is the last published one: earlier, deeper
     counterexamples are superseded by the minimisation. *)
  let publishers =
    List.filter_map (function `Verdict (w, v) -> Some (w, v) | _ -> None) life
  in
  (match List.rev publishers with
  | [] -> Alcotest.fail "no verdict event"
  | (_, v) :: _ ->
    Alcotest.(check string) "final publication names the minimal depth"
      (Printf.sprintf "falsified(d=%d)" depth) v);
  List.iter
    (function
      | `Cancel (_, Event.Min_depth, by) ->
        Alcotest.(check bool) "min-depth edge comes from a publisher" true
          (List.mem_assoc by publishers)
      | _ -> ())
    life;
  let dispatched =
    List.filter_map
      (fun e ->
        match e.Event.kind with Event.Dispatch { bound; _ } -> Some bound | _ -> None)
      evs
  in
  List.iter
    (fun b ->
      Alcotest.(check bool) (Printf.sprintf "bound %d was dispatched" b) true
        (List.mem b dispatched))
    (List.init (depth + 1) Fun.id)

(* Regression: an unlimited bound cap means unlimited, not a wrapped
   [max_int + 1] worker clamp.  Before the fix, [min jobs (bound_limit+1)]
   overflowed to [min_int] and the "4-domain" run silently raced one
   worker — count the Spawn events to pin it. *)
let test_bmc_jobs_unlimited_bound () =
  let model = Registry.build_validated (entry "vending7bug") in
  let (verdict, _), evs =
    record_race (fun () ->
        Isr_par.bmc ~jobs:4 ~limits:{ limits with Budget.bound_limit = max_int } model)
  in
  let expected =
    match (entry "vending7bug").Registry.expected with
    | Registry.Unsafe d -> d
    | Registry.Safe -> Alcotest.fail "vending7bug is unsafe"
  in
  (match verdict with
  | Verdict.Falsified { depth; _ } -> Alcotest.(check int) "depth" expected depth
  | v -> Alcotest.failf "expected a counterexample, got %a" Verdict.pp v);
  let spawns =
    List.length
      (List.filter_map
         (function `Spawn (w, _) -> Some w | _ -> None)
         (lifecycle evs))
  in
  Alcotest.(check int) "all four workers spawned" 4 spawns

(* A lane whose every member merely ran out of bound cap is exhausted,
   not deadline-starved — the distinct cause must appear on its
   self-edge.  With two lanes, the members partition round-robin into
   (randsim, kind, itp) and (bmc, pdr, itpseqcba); with the bound cap
   at 0 on a safe design that no member decides at that cap, a lane
   must report exhaustion however the two domains are timed: no lane
   can win the race and cancel the other first. *)
let test_exhausted_cause () =
  let model = Registry.build_validated (entry "amba3g4") in
  let tight = { limits with Budget.bound_limit = 0 } in
  (* The precondition, checked sequentially: every member runs and none
     decides, so the race has no winner. *)
  (match Portfolio.verify ~limits:tight model with
  | Verdict.Unknown _, _ -> ()
  | v, _ -> Alcotest.failf "a member decides amba3g4 at bound cap 0: %a" Verdict.pp v);
  let (_, _), evs =
    record_race (fun () -> Isr_par.portfolio ~jobs:2 ~limits:tight model)
  in
  let life = lifecycle evs in
  let publishers =
    List.filter_map (function `Verdict (w, _) -> Some w | _ -> None) life
  in
  List.iter
    (function
      | `Cancel (w, Event.Exhausted, by) ->
        Alcotest.(check int) "exhaustion is a self-edge" w by;
        Alcotest.(check bool) "an exhausted lane published nothing" false
          (List.mem w publishers)
      | _ -> ())
    life;
  Alcotest.(check bool) "the all-bound-limited lane reports exhaustion" true
    (List.exists
       (function `Cancel (_, Event.Exhausted, _) -> true | _ -> false)
       life)

(* No worker records a deadline that never fired: at bound cap 2 on
   peterson every member of both slates, randsim's miss included, stops
   at the cap long before the deadline, so both workers are exhausted
   and the race reports the cap. *)
let test_no_phantom_deadline () =
  let model = Registry.build_validated (entry "peterson") in
  let tight = { limits with Budget.bound_limit = 2 } in
  let (verdict, _), evs =
    record_race (fun () -> Isr_par.portfolio ~jobs:2 ~limits:tight model)
  in
  (match verdict with
  | Verdict.Unknown (Verdict.Bound_limit 2) -> ()
  | v -> Alcotest.failf "expected unknown (bound 2), got %a" Verdict.pp v);
  let causes =
    List.filter_map (function `Cancel (w, c, _) -> Some (w, c) | _ -> None) (lifecycle evs)
  in
  Alcotest.(check int) "one self-edge per worker" 2 (List.length causes);
  List.iter
    (fun (w, c) ->
      if c <> Event.Exhausted then Alcotest.failf "worker %d records a cause other than exhausted" w)
    causes

(* Every kind of consumer at once under a two-domain race: a profile
   collector, a Chrome writer and a recorder subscribed side by side,
   each fed from both racing domains through its own lock. *)
let test_race_consumers () =
  let model = Registry.build_validated (entry "peterson") in
  let path = Filename.temp_file "isr_race" ".json" in
  let collector, profile = Isr_obs.Profile.collector () in
  let writer, close = Isr_obs.Chrome.writer (open_out path) in
  let r = Event.recorder () in
  let consumers = [ collector; writer; Event.recording r ] in
  List.iter Event.subscribe consumers;
  let verdict, _ =
    Fun.protect
      ~finally:(fun () ->
        List.iter Event.unsubscribe consumers;
        close ())
      (fun () -> Isr_par.portfolio ~jobs:2 ~limits model)
  in
  Alcotest.(check bool) "peterson proved" true (Verdict.is_proved verdict);
  let rows =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        match Isr_obs.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
        | Isr_obs.Json.Arr rows -> rows
        | _ -> Alcotest.fail "the Chrome output is not a JSON array")
  in
  let field name row =
    match Isr_obs.Json.opt_str_field name row with Some v -> v | None -> ""
  in
  let tid row = Option.get (Isr_obs.Json.opt_int_field "tid" row) in
  (* Each domain's spans are balanced, and never close more than they
     opened. *)
  let depth = Hashtbl.create 4 and underflow = ref false in
  List.iter
    (fun row ->
      let d = Option.value ~default:0 (Hashtbl.find_opt depth (tid row)) in
      match field "ph" row with
      | "B" -> Hashtbl.replace depth (tid row) (d + 1)
      | "E" ->
        if d = 0 then underflow := true;
        Hashtbl.replace depth (tid row) (d - 1)
      | _ -> ())
    rows;
  Alcotest.(check bool) "no span closes below depth 0" false !underflow;
  Hashtbl.iter (fun _ d -> Alcotest.(check int) "each domain's spans balanced" 0 d) depth;
  (* One lane per domain: the lanes are exactly the domains that posted,
     and the two racing domains each have their own. *)
  let evs = Event.events r in
  let lanes = List.sort_uniq compare (List.map tid rows) in
  let posted =
    List.sort_uniq compare
      (List.map (fun e -> e.Event.dom + 1) evs
      @ List.filter_map
          (fun row -> if field "ph" row = "i" then None else Some (tid row))
          rows)
  in
  Alcotest.(check (list int)) "one lane per posting domain" posted lanes;
  Alcotest.(check bool) "both racing domains have a lane" true (List.length lanes >= 2);
  Alcotest.(check int) "one marker per search record" (List.length evs)
    (List.length (List.filter (fun row -> field "ph" row = "i") rows));
  (* The profile folds both domains into one tree that still adds up. *)
  let rec adds_up (n : Isr_obs.Profile.node) =
    let children =
      List.fold_left (fun acc (c : Isr_obs.Profile.node) -> acc +. c.total) 0.0 n.children
    in
    Alcotest.(check (float 1e-9)) (n.name ^ ": total = self + children") n.total
      (n.self +. children);
    List.iter adds_up n.children
  in
  adds_up (profile ());
  let life = lifecycle evs in
  Alcotest.(check bool) "the recorder holds the spawns" true
    (List.exists (function `Spawn _ -> true | _ -> false) life);
  Alcotest.(check bool) "the recorder holds the verdict" true
    (List.exists (function `Verdict _ -> true | _ -> false) life)

(* The verify pipeline under every analyze mode and dispatch: each run
   gives the ground-truth verdict, a trace replays on the input model,
   and an invariant certifies on the model the pipeline reports for it. *)
let test_pipeline_matrix () =
  let runs =
    [
      ("industrialA2", [ "itpseq"; "portfolio" ]);
      ("vending7bug", [ "itpseq"; "portfolio"; "bmc" ]);
      ("peterson", [ "itpseq"; "portfolio" ]);
      (* COI keeps 2 of its inputs, so its traces are lifted for real. *)
      ("industrialC1", [ "itpseq"; "bmc" ]);
    ]
  in
  List.iter
    (fun (name, engines) ->
      let e = entry name in
      let model = Registry.build_validated e in
      List.iter
        (fun engine ->
          let eng = Result.get_ok (Engine.of_name engine) in
          List.iter
            (fun analyze ->
              List.iter
                (fun jobs ->
                  let tag =
                    Printf.sprintf "%s/%s/%s/j%d" name engine
                      (Isr_analyze.mode_to_string analyze) jobs
                  in
                  let o = Isr_par.verify ~analyze ~jobs ~limits eng model in
                  (match o.verdict with
                  | Verdict.Proved { invariant; _ } -> (
                    Alcotest.(check bool) (tag ^ ": agrees") true (Registry.agrees e `Proved);
                    match Option.map (Certify.check o.model) invariant with
                    | None | Some (Ok ()) -> ()
                    | Some (Error f) -> Alcotest.failf "%s: %a" tag Certify.pp_failure f)
                  | Verdict.Falsified { depth; trace } ->
                    Alcotest.(check bool)
                      (tag ^ ": agrees") true
                      (Registry.agrees e (`Falsified depth));
                    Alcotest.(check bool)
                      (tag ^ ": trace replays on the input model") true
                      (Sim.check_trace model trace)
                  | v -> Alcotest.failf "%s: %a" tag Verdict.pp v);
                  (* Fast analysis cuts industrialA2's 242 latches to 12,
                     and an engine's invariant lives on that model. *)
                  if name = "industrialA2" && analyze <> Isr_analyze.Off then
                    Alcotest.(check int) (tag ^ ": proof model") 12 o.model.Model.num_latches)
                [ 1; 2 ])
            [ Isr_analyze.Off; Isr_analyze.Fast; Isr_analyze.Full ])
        engines)
    runs

(* The artifact check is what gives a run its exit class: a bad
   invariant and a trace that stops short of the bad state each give 3. *)
let test_check_bad_artifacts () =
  let model = Registry.build_validated (entry "vending7bug") in
  let stats = Verdict.mk_stats () in
  let inv = Isr_aig.Aig.lit_true in
  Alcotest.(check bool)
    "true is no invariant of an unsafe design" true
    (Certify.check model inv = Error Certify.Not_safe);
  let proved = Verdict.Proved { kfp = 0; jfp = 0; invariant = Some inv } in
  Alcotest.(check int)
    "a bad invariant is class 3" 3
    (fst (Isr_par.check ~certify:true { Isr_par.verdict = proved; stats; model }));
  match Bmc.run ~check:Bmc.Exact ~limits model with
  | Verdict.Falsified { depth; trace }, _ ->
    let inputs = trace.Trace.inputs in
    let short = { Trace.inputs = Array.sub inputs 0 (Array.length inputs - 1) } in
    let outcome trace = { Isr_par.verdict = Verdict.Falsified { depth; trace }; stats; model } in
    Alcotest.(check int)
      "the whole trace is class 1" 1
      (fst (Isr_par.check ~certify:false (outcome trace)));
    Alcotest.(check int)
      "a trace one frame short is class 3" 3
      (fst (Isr_par.check ~certify:false (outcome short)))
  | v, _ -> Alcotest.failf "vending7bug: %a" Verdict.pp v

let () =
  Alcotest.run "isr_par"
    [
      ( "portfolio",
        [
          Alcotest.test_case "race agrees with sequential" `Slow test_race_agrees;
          Alcotest.test_case "race stops at its deadline" `Slow test_race_deadline;
        ] );
      ( "bmc",
        [
          Alcotest.test_case "bound-parallel depth" `Slow test_bmc_par_depth;
          Alcotest.test_case "unlimited bound spawns all workers" `Slow
            test_bmc_jobs_unlimited_bound;
        ] );
      ( "events",
        [
          Alcotest.test_case "portfolio race story replays" `Slow test_race_event_story;
          Alcotest.test_case "bound-parallel cancellation edges" `Slow
            test_bmc_event_story;
          Alcotest.test_case "exhausted slate cause" `Slow test_exhausted_cause;
          Alcotest.test_case "no deadline that never fired" `Slow test_no_phantom_deadline;
          Alcotest.test_case "consumers under a two-domain race" `Slow test_race_consumers;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "analyze x engine x jobs matrix" `Slow test_pipeline_matrix;
          Alcotest.test_case "bad artifacts are class 3" `Quick test_check_bad_artifacts;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "preset token" `Quick test_cancel_preset;
          Alcotest.test_case "mid-search" `Quick test_cancel_mid_search;
        ] );
    ]
