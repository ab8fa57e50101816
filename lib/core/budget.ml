open Isr_sat

type limits = {
  time_limit : float;
  conflict_limit : int;
  bound_limit : int;
  reduce : Solver.reduce_policy;
}

let default_limits =
  { time_limit = 60.0;
    conflict_limit = 2_000_000;
    bound_limit = 200;
    reduce = Solver.default_reduce;
  }

exception Out_of_time
exception Out_of_conflicts
exception Cancelled

type t = {
  l : limits;
  t0 : float;
  mutable conflicts_left : int;
  cancel : bool Atomic.t option;
  uses0 : int array;   (* the solver's victim histograms at the slice's start *)
  drift0 : int array;
}

let start ?cancel l =
  { l;
    t0 = Isr_obs.Clock.now ();
    conflicts_left = l.conflict_limit;
    cancel;
    uses0 = Array.make 16 0;
    drift0 = Array.make 16 0;
  }

let cancel b = b.cancel
let limits b = b.l
let elapsed b = Isr_obs.Clock.now () -. b.t0
let cancelled b = match b.cancel with Some c -> Atomic.get c | None -> false

let check_time b =
  if cancelled b then raise Cancelled;
  if elapsed b > b.l.time_limit then begin
    (* The run will unwind through every engine layer from here; leave
       the forensic trail first (Flight dumps are throttled, so the
       repeated raises on the way out cost one file write). *)
    ignore (Isr_obs.Flight.dump ~reason:"budget.time" ());
    raise Out_of_time
  end

(* Solve in slices so the deadline is honoured mid-search: the solver is
   resumable after an exhausted conflict budget. *)
let slice = 20_000

(* Fold the growth of a 16-bucket count array into a registry histogram
   (bucket index = sample value).  Reductions and verdicts are rare; the
   inner loop is nowhere near any hot path. *)
let observe_growth h ~before after =
  Array.iteri
    (fun v n ->
      for _ = 1 to n - before.(v) do
        Isr_obs.Metrics.observe h (float_of_int v)
      done)
    after

let zeros = Array.make 16 0

(* One logical SAT call: charges a call plus the conflict, decision,
   propagation, restart and reduction deltas to the run's metrics
   registry, feeds the learned-clause-length histogram, and brackets the
   whole call in a "sat.call" span (the per-slice "sat.solve" spans nest
   inside it). *)
let solve ?assumptions b (stats : Verdict.stats) solver =
  Isr_obs.Metrics.incr stats.Verdict.c_sat_calls;
  (* The reduction policy is a formulation-level knob carried by the
     limits; re-applying an unchanged policy keeps the solver's
     geometric schedule running. *)
  Solver.set_reduce solver b.l.reduce;
  Solver.on_learnt solver
    (Some
       (fun ~lits ~lbd ->
         Isr_obs.Metrics.observe stats.Verdict.h_learnt_len
           (float_of_int (Array.length lits));
         Isr_obs.Metrics.observe stats.Verdict.h_clause_birth_lbd (float_of_int lbd)));
  (* Both the deadline and a race's cancel token must stop the search
     mid-slice, not after up to 20k more conflicts: the solver polls this
     every few hundred conflicts / decisions (and every [poll_props]
     propagations, for conflict-light searches) and bails with [Undef],
     which the slice loop turns into [Out_of_time] or [Cancelled] via
     [check_time].  The same cadence services deferred flight-recorder
     dump requests (a signal handler that lost the ring lock). *)
  Solver.set_interrupt solver
    (Some
       (fun () ->
         Isr_obs.Flight.poll ();
         cancelled b || elapsed b > b.l.time_limit));
  (* Restart records, which the progress reporter renders as heartbeats
     (the solver posts its own reduction records).  Deltas are charged
     to the registry only at slice boundaries, so read the live solver
     counters here: registry value before this call plus the in-call
     delta. *)
  let c_base = Isr_obs.Metrics.value stats.Verdict.c_conflicts
  and p_base = Isr_obs.Metrics.value stats.Verdict.c_propagations in
  let sc0 = Solver.num_conflicts solver and sp0 = Solver.num_propagations solver in
  Solver.on_restart solver
    (Some
       (fun _ ->
         if Isr_obs.Event.enabled () then
           Isr_obs.Event.emit
             (Isr_obs.Event.Restart
                {
                  conflicts = c_base + Solver.num_conflicts solver - sc0;
                  decisions = Solver.num_decisions solver;
                  learnt = Solver.num_live_learnt solver;
                  propagations = p_base + Solver.num_propagations solver - sp0;
                })));
  let charge_from c0 d0 p0 r0 bo0 x0 red0 =
    Isr_obs.Metrics.add stats.Verdict.c_conflicts (Solver.num_conflicts solver - c0);
    Isr_obs.Metrics.add stats.Verdict.c_decisions (Solver.num_decisions solver - d0);
    Isr_obs.Metrics.add stats.Verdict.c_propagations (Solver.num_propagations solver - p0);
    Isr_obs.Metrics.add stats.Verdict.c_restarts (Solver.num_restarts solver - r0);
    Isr_obs.Metrics.add stats.Verdict.c_clause_born (Solver.num_learnt solver - bo0);
    Isr_obs.Metrics.add stats.Verdict.c_clause_deleted (Solver.num_deleted solver - x0);
    let reds = Solver.num_reduces solver - red0 in
    if reds > 0 then begin
      (* Victim lifecycle histograms: how useful were the clauses the
         slice's reductions threw away, and how much did their glue
         improve. *)
      Isr_obs.Metrics.add stats.Verdict.c_db_reduce reds;
      Isr_obs.Metrics.set stats.Verdict.g_db_kept (float_of_int (Solver.reduce_kept solver));
      observe_growth stats.Verdict.h_clause_uses_death ~before:b.uses0
        (Solver.dead_uses_counts solver);
      observe_growth stats.Verdict.h_clause_drift ~before:b.drift0
        (Solver.dead_drift_counts solver)
    end
  in
  let rec go () =
    check_time b;
    if b.conflicts_left <= 0 then begin
      ignore (Isr_obs.Flight.dump ~reason:"budget.conflicts" ());
      raise Out_of_conflicts
    end;
    let before = Solver.num_conflicts solver in
    let d0 = Solver.num_decisions solver and p0 = Solver.num_propagations solver in
    let r0 = Solver.num_restarts solver in
    let bo0 = Solver.num_learnt solver and x0 = Solver.num_deleted solver in
    let red0 = Solver.num_reduces solver in
    Solver.dead_counts_into solver ~uses:b.uses0 ~drift:b.drift0;
    let r = Solver.solve ?assumptions ~conflict_budget:(min slice b.conflicts_left) solver in
    let used = Solver.num_conflicts solver - before in
    b.conflicts_left <- b.conflicts_left - used;
    charge_from before d0 p0 r0 bo0 x0 red0;
    match r with
    | Solver.Undef -> go ()
    | r ->
      check_time b;
      (* Proof-core attribution by birth LBD, only when observability is
         on (it costs a sweep of the used cone) and only when a refutation
         actually exists (Unsat under assumptions has none). *)
      if r = Solver.Unsat && Isr_obs.Event.enabled () && Solver.refuted solver then
        observe_growth stats.Verdict.h_clause_core_lbd ~before:zeros
          (Solver.core_birth_lbd solver);
      r
  in
  let res = ref Solver.Undef in
  let end_args () =
    [
      ("result",
       match !res with Solver.Sat -> "sat" | Solver.Unsat -> "unsat" | Solver.Undef -> "undef");
      ("vars", string_of_int (Solver.nvars solver));
      ("clauses", string_of_int (Solver.num_clauses solver));
    ]
  in
  (* The observers capture this call's registry and counter baselines;
     left installed they would keep charging a stale registry from the
     next call (or a later engine's), and on the raising paths the next
     caller would inherit them silently — always strip them on the way
     out, normal return or not. *)
  Fun.protect
    ~finally:(fun () ->
      Solver.on_learnt solver None;
      Solver.on_restart solver None;
      Solver.set_interrupt solver None;
      (* Proof-store gauges track the largest log the run grew (gauges
         keep the maximum on merge; [set_max] keeps it across calls). *)
      Isr_obs.Metrics.set_max stats.Verdict.g_proof_steps
        (float_of_int (Solver.proof_steps solver));
      Isr_obs.Metrics.set_max stats.Verdict.g_proof_bytes
        (float_of_int (Solver.proof_bytes solver)))
    (fun () ->
      Isr_obs.Trace.span "sat.call" ~end_args (fun () ->
          let r = go () in
          res := r;
          r))
