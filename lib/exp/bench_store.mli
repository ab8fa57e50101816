(** Persistent benchmark results and regression gating.

    A snapshot ([t]) is the outcome of one harness invocation: every
    (benchmark, engine) pair run [repeat] times, summarised as the
    median wall time with its spread (max − min over the repeats).
    Snapshots serialise to a versioned JSON file (conventionally
    [BENCH_<n>.json]; the committed [BENCH_seed.json] is the reference
    baseline) and {!compare_to_baseline} turns two snapshots into a list
    of regressions for the [bench regress] exit gate.

    The JSON dialect is read with the shared {!Isr_obs.Json} parser and
    {!load} rejects files whose [schema] field it does not understand,
    so old readers fail loudly rather than misread new files.  Loading
    also validates the numbers it will later compare: a NaN, infinite or
    negative median/spread raises {!Corrupt} instead of silently
    disarming the regression gate (every [<] against NaN is false). *)

open Isr_core

val schema_version : int

type run = {
  bench : string;
  engine : string;
  verdict : string;  (** ["proved"] / ["falsified"] / ["unknown"] *)
  time_median : float;
  time_spread : float;  (** max − min over the repeats; 0 for a single run *)
  conflicts : int;
  sat_calls : int;
  kfp : int option;
  jfp : int option;
}

type t = {
  schema : int;
  suite : string;  (** suite label, e.g. ["mid"] *)
  repeat : int;
  time_limit : float;
  runs : run list;
}

val median : float list -> float
(** Exact middle for odd lengths, midpoint of the central pair for even;
    0 on the empty list. *)

val spread : float list -> float
(** max − min; 0 on the empty list. *)

val mk_run : bench:string -> engine:string -> (Verdict.t * Verdict.stats) list -> run
(** Summarise the repeat samples of one (bench, engine) cell.  Wall time
    is the median with spread; verdict/depths/counters come from the
    first sample (the search is deterministic, repeats only perturb
    time). *)

val make :
  suite:string -> repeat:int -> time_limit:float -> run list -> t

val to_json : t -> string
(** Pretty-printed (one run per line) so baselines diff well. *)

val save : string -> t -> unit

exception Corrupt of { path : string; what : string }
(** A snapshot file that must not be trusted: unreadable, malformed
    JSON, missing/ill-typed fields, an unsupported [schema], or
    non-finite / negative timing summaries. *)

val load : string -> t
(** @raise Corrupt when the file cannot be loaded safely (see
    {!Corrupt}). *)

type regression =
  | Slower of { bench : string; engine : string; base : float; cur : float }
  | Verdict_changed of { bench : string; engine : string; base : string; cur : string }
  | Missing of { bench : string; engine : string }
      (** present in the baseline, absent from the current snapshot *)

val compare_to_baseline :
  ?threshold:float -> ?min_delta:float -> baseline:t -> t -> regression list
(** One entry per baseline run that regressed.  A run is [Slower] when
    its median exceeds the baseline median by more than [threshold]
    (relative, default 0.25) {e and} by more than [min_delta] seconds
    (absolute noise floor, default 0.05) {e and} by more than the sum of
    the two recorded spreads.  Runs only in the current snapshot are
    ignored (additions are not regressions). *)

val pp_regression : Format.formatter -> regression -> unit

type disagreement =
  | Flip of { a : string; b : string }
      (** the two verdict tags (["proved"] / ["falsified"] / ["unknown"]) *)
  | No_replay of [ `A | `B ]
      (** that side's counterexample does not replay on the original model *)

val disagreements :
  same_model:bool ->
  replays:(Isr_model.Trace.t -> bool) ->
  Verdict.t ->
  Verdict.t ->
  disagreement list
(** The verdict-agreement gate of [bench compare] for one pair of runs
    [a] and [b] on the same instance; [[]] means they agree.  Two
    conclusive verdicts must agree on pass/fail.  When [same_model]
    (neither side rewrote the model before solving) the verdict classes
    must match outright, so an unknown against a conclusive verdict
    disagrees as well.  Every counterexample, on either side, must pass
    [replays] (the harness uses {!Isr_model.Sim.check_trace} on the
    original model). *)
