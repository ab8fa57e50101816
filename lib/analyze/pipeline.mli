(** Certified model-level static analysis and preprocessing.

    A pass pipeline over {!Isr_model.Model.t} run before any engine:

    + [const] — ternary reachability fixpoint ({!Ternary.lfp}) finds
      stuck-at latches and X-insensitive AND nodes; constants propagate
      and stuck latches are eliminated,
    + [dangling] — logic outside every next-state and bad cone is
      dropped by rebuilding in a fresh manager,
    + [coi] — cone-of-influence reduction ({!Isr_model.Coi.reduce}),
    + [fraig] — SAT sweeping ({!Isr_fraig.Fraig.sweep}, [Full] mode
      only).

    Trivial verdicts are detected before and after every pass: bad
    ternary-false under the fixpoint yields [Safe] with an inductive
    invariant expressed on the {e original} model; a depth-0 bad-state
    hit yields [Unsafe] with a trace lifted back to the original
    (replay-checked on both models).

    Every rewrite is {e certified} under {!Isr_check_core.Level}: pooled
    1-induction queries discharge stuck-at facts, whole-model miters
    discharge rebuilds ([Paranoid]), Fraig merges carry their own
    per-merge miters, and the Safe invariant is SAT-checked for
    initiation, consecution and safety on the original model.  A claim
    the budget cannot discharge withholds the rewrite (or the verdict) —
    never trusts it.  Findings flow through {!Isr_check_core.Diag}. *)

open Isr_aig
open Isr_model
module Diag := Isr_check_core.Diag

type mode = Off | Fast | Full
(** Pass selection: [Off] returns the model untouched, [Fast] runs the
    cheap passes (const, dangling, coi), [Full] adds SAT sweeping.
    Certification intensity is orthogonal: it follows the process-wide
    {!Isr_check_core.Level}. *)

val mode_to_string : mode -> string
val mode_of_string : string -> (mode, string) result

type verdict =
  | Safe of { invariant : Aig.lit }
      (** Inductive invariant on the original model's manager, over its
          latch literals: initiation, consecution and safety hold. *)
  | Unsafe of { trace : Trace.t }
      (** Depth-0 counterexample in original input indexing; replays on
          the original model via {!Isr_model.Sim.check_trace}. *)

type pass_stats = {
  pass : string;
  ands_before : int;
  ands_after : int;
  latches_before : int;
  latches_after : int;
  claims : int;  (** SAT-discharged certificate queries of this pass *)
}

type result = {
  original : Model.t;
  model : Model.t;  (** the simplified model engines should run on *)
  lift : Trace.t -> Trace.t;
      (** maps counterexample traces on [model] back onto [original];
          the composition of every applied pass's lifting *)
  verdict : verdict option;  (** a trivial verdict, when analysis decides alone *)
  diags : Diag.t list;
  passes : pass_stats list;  (** applied passes, in order *)
}

val run : ?mode:mode -> ?registry:Isr_obs.Metrics.t -> Model.t -> result
(** Runs the pipeline.  When [registry] is given, [analyze.*] gauges and
    counters (sizes before/after, time, claims, trivial verdict) are
    recorded into it.  Per-pass {!Isr_obs.Event.Analyze} records are
    posted when a consumer reads search records. *)

val total_claims : result -> int

val pp_summary : Format.formatter -> result -> unit
(** Per-pass reduction table plus the trivial verdict, if any. *)
