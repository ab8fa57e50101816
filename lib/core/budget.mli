(** Shared resource accounting across the SAT calls of one verification
    run: a wall-clock/CPU deadline, a global conflict pool, and a bound
    cap — the counterparts of the paper's 1800 s / 2 GB experimental
    limits, scaled for a library setting. *)

open Isr_sat

type limits = {
  time_limit : float;      (** wall-clock seconds ({!Isr_obs.Clock}), [infinity] = none *)
  conflict_limit : int;    (** total conflicts across all SAT calls *)
  bound_limit : int;       (** largest BMC bound to attempt *)
  reduce : Solver.reduce_policy;
      (** learnt-database reduction policy, re-applied to the solver at
          every {!solve} (a formulation-level knob: each engine builds
          its limits once and every SAT call under them inherits it) *)
}

val default_limits : limits
(** 60 s, 2 million conflicts, bound 200, {!Isr_sat.Solver.default_reduce}. *)

type t

val start : ?cancel:bool Atomic.t -> limits -> t
(** Starts the clock and the conflict pool.  With [cancel], every
    {!check_time} and {!solve} on the budget aborts with {!Cancelled}
    once the token reads [true]: the token is how a parallel race stops
    its losers and how SIGTERM stops a checkpointed run. *)

val cancel : t -> bool Atomic.t option
(** The token the budget was started with — for budgets started inside
    a running lane, which must stop with it. *)

val limits : t -> limits

exception Out_of_time
exception Out_of_conflicts

exception Cancelled
(** Raised (from {!check_time} and from inside {!solve}) when the
    budget's cancel token is set: another portfolio member already
    answered, or SIGTERM asked a checkpointed run to stop.  Deliberately distinct from {!Out_of_time} /
    {!Out_of_conflicts} so that engines' resource-exhaustion handlers
    do not swallow it — it propagates to the parallel runner. *)

val check_time : t -> unit
(** A passed deadline also dumps the flight recorder (when armed)
    before raising, so budget-expired runs leave their forensic trail.
    @raise Cancelled when the budget's cancel token is set.
    @raise Out_of_time when the deadline passed. *)

val solve : ?assumptions:Lit.t list -> t -> Verdict.stats -> Solver.t -> Solver.result
(** Runs the solver under the remaining conflict budget, charging one
    SAT call plus the conflict/decision/propagation/restart deltas and
    the learned-clause lengths to the [stats] registry, inside a
    ["sat.call"] trace span; on the way out the ["proof.steps"] /
    ["proof.bytes"] gauges are refreshed from the solver's proof log.
    The limits' {!Isr_sat.Solver.reduce_policy} is installed at call
    entry.  Clause-lifecycle analytics ride along: births and deletions
    charge the ["clause.*"] counters and histograms, the reductions of
    each conflict slice charge ["sat.db.reduce"], ["sat.db.kept"] and
    the victims' ["clause.uses_at_death"] / ["clause.lbd_drift"] from
    the solver's cumulative counts, and an unconditional [Unsat] folds
    the proof core's birth-LBD histogram — the latter only when
    {!Isr_obs.Event.enabled} (it costs a sweep of the proof's used
    cone, which later readers of the proof then share).  The interrupt
    poll also services deferred flight-recorder dump requests, and both
    budget-exhaustion raises dump the flight recorder first when it is
    armed.  Whatever the outcome, the solver's [on_learnt] /
    [on_restart] / interrupt hooks are cleared on return — they capture
    this call's registry and must not leak into the next.
    @raise Out_of_conflicts when the pool is exhausted
    @raise Out_of_time when the deadline passed before the call
    @raise Cancelled when the budget's cancel token was set. *)

val elapsed : t -> float
