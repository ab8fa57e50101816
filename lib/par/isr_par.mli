(** True multicore execution on OCaml 5 domains.

    Two shapes, both built on the cooperative cancel tokens of
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
    {!Isr_core.Verdict.stats} at join.

    Both entry points take [?analyze]: the certified static analyzer
    ({!Isr_analyze.run}) executes {e once} up front on the calling
    domain; a trivial verdict skips the race entirely, otherwise every
    worker races the simplified model and a winning counterexample is
    lifted back to the original inputs before returning. *)

open Isr_model
open Isr_core

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], floored at 1. *)

val portfolio :
  ?jobs:int ->
  ?analyze:Isr_analyze.mode ->
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
  ?analyze:Isr_analyze.mode ->
  ?limits:Budget.limits ->
  Model.t ->
  Verdict.t * Verdict.stats
(** Bound-parallel BMC probes (default [check = Exact]; each probe is a
    fresh instance, so there is no incremental variant).  Falsifies with
    the minimal counterexample depth or answers [Unknown] like
    {!Isr_core.Bmc.run}.  Each worker runs under its own budget of
    [limits] — the conflict pool is per-worker, not global. *)
