(** One verification run, and true multicore execution on OCaml 5
    domains.

    {!verify} is the pipeline every front end runs: analyze, dispatch the
    engine, lift the result back, and report the model its artifact
    lives on; {!check} then checks that artifact.  The parallel
    dispatch has two shapes, both built on the cooperative cancel tokens of
    {!Isr_core.Budget}:

    - {!portfolio} races the members of {!Isr_core.Portfolio} across
      domains, each until the race's one deadline (its start plus
      [time_limit], also for members claimed late); the first
      definitive verdict wins and the losers observe the shared cancel
      token within one conflict slice.
    - {!bmc} runs bound-parallel BMC probes: one atomic counter hands
      out bounds in increasing order, a satisfiable probe publishes its
      minimised depth, and only in-flight probes at bounds >= that depth
      are cancelled — so the reported depth is minimal, exactly as in
      sequential deepening.

    All engines are sound, so the winning verdict agrees with the
    sequential schedule on proved/falsified; only the deciding member
    (and hence the depth bookkeeping of [Unknown] runs) may differ.
    Workers merge their per-run metric registries into the returned
    {!Isr_core.Verdict.stats} at join. *)

open Isr_model
open Isr_core

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], floored at 1. *)

val portfolio :
  ?jobs:int ->
  ?limits:Budget.limits ->
  Model.t ->
  Verdict.t * Verdict.stats
(** Races the portfolio over [jobs] domains ([<= 0] or absent:
    {!default_jobs}, and never more than there are members).  With fewer
    domains than members, members are partitioned round-robin and each
    group runs in sequential order inside its domain; [jobs = 1] falls
    back to the sequential slice schedule of
    {!Isr_core.Portfolio.verify}, which dominates a one-domain race.
    The enclosing ["portfolio"] span carries [mode=parallel] and records
    the deciding member as its ["winner"] argument.

    Racing pays even on a single core: the first definitive answer
    cancels members that would have burnt their whole sequential time
    slice before it got a turn. *)

val bmc :
  ?check:Bmc.check ->
  ?jobs:int ->
  ?limits:Budget.limits ->
  Model.t ->
  Verdict.t * Verdict.stats
(** Bound-parallel BMC probes (default [check = Exact]; each probe is a
    fresh instance, so there is no incremental variant).  Falsifies with
    the minimal counterexample depth or answers [Unknown] like
    {!Isr_core.Bmc.run}.  Each worker runs under its own budget of
    [limits] — the conflict pool is per-worker, not global. *)

type outcome = {
  verdict : Verdict.t;  (** a trace is on the input model's inputs *)
  stats : Verdict.stats;  (** with the analyzer's [analyze.*] metrics merged in *)
  model : Model.t;
      (** the model the verdict's artifact lives on: the input model for
          a trace or a trivial invariant, the analyzed model for an
          engine's invariant *)
}

val verify :
  analyze:Isr_analyze.mode ->
  ?jobs:int ->
  ?report:(Isr_analyze.result -> unit) ->
  ?drive:(Model.t -> Verdict.t * Verdict.stats) ->
  limits:Budget.limits ->
  Engine.t ->
  Model.t ->
  outcome
(** One verification run of [engine] on the input model.

    Unless [analyze] is [Off], {!Isr_analyze.run} runs once first and its
    result goes to [report]; a trivial verdict ends the run there.
    Otherwise the engine runs on the analyzed model under the
    {!Isr_core.Engine.span} root span: the {!portfolio} race for
    [Portfolio] and the {!bmc} probes for [Bmc_only] when [jobs] is
    given ([0]: {!default_jobs}); a warning and a sequential run for any
    other engine given [jobs].  A sequential run is [drive] (a driver
    with its own checkpoint plumbing, say), by default {!Engine.run}.
    A counterexample is lifted back onto the input model.  The
    statistics are the engine's; the analysis time is not in
    {!Verdict.time}. *)

val check : certify:bool -> outcome -> int * string option
(** Checks the outcome's artifact: an invariant with
    {!Isr_core.Certify.check} on [outcome.model] when [certify] is set,
    a trace with {!Isr_model.Sim.check_trace} on it always.  Returns the
    run's exit class — 0 proved, 1 falsified, 3 a certificate or trace
    that does not check, 4 unknown — and the line that reports the check,
    if there is one. *)
