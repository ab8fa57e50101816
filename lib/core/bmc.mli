(** Bounded model checking with the paper's three target formulations
    (Section II-A / III):

    - [Bound]  — bmc{^k}{_B}: a violation at {e any} frame 1..k;
    - [Exact]  — bmc{^k}{_E}: a violation at frame k exactly (earlier
      violations permitted but not required);
    - [Assume] — bmc{^k}{_A}: a violation at frame k with the property
      {e assumed} at every earlier frame — the cheapest check, and the one
      our ITPSEQ implementation uses by default.

    Depth-k instances are built with the canonical partition tags
    Γ{_1..k+1} (init and first transition in partition 1, transition
    [f → f+1] plus the assumed property at frame [f] in partition [f+1],
    the negated property at frame [k] in partition [k+1]), so an
    unsatisfiable exact/assume instance is directly consumable by
    interpolation-sequence extraction. *)

open Isr_model

type check = Bound | Exact | Assume

val check_name : check -> string

val build_instance :
  ?frozen:(int -> bool) -> proof:bool -> Model.t -> check:check -> k:int -> Unroll.t
(** The depth-[k] instance with Γ tags; [frozen] latches are abstracted
    to free inputs (CBA).  [k = 0] degenerates to init ∧ bad.  [proof]
    says whether the caller reads the refutation's proof (see
    {!Unroll.create}): interpolation and proof-based abstraction do; the
    depth-0 checks, k-induction's base case, the BMC lanes and the
    bound-parallel probes do not.  Paranoid logs anyway. *)

val check_depth :
  Budget.t ->
  Verdict.stats ->
  ?frozen:(int -> bool) ->
  proof:bool ->
  Model.t ->
  check:check ->
  k:int ->
  [ `Sat of Unroll.t | `Unsat of Unroll.t ]
(** Builds and solves one depth; the unrolling gives access to the trace
    (on [`Sat]) or, with [proof], the proof (on [`Unsat]). *)

val check0 : Step.run -> Verdict.t option
(** The depth-0 check the unbounded engines (ITP, ITPSEQ, PDR) open
    with: [Some (Falsified _)] at depth 0 when an initial state is bad,
    else [None].  Its solver logs no proof. *)

val stepper : ?check:check -> ?incremental:bool -> unit -> Step.packed
(** The step-wise form: one step is one depth.  Snapshots carry the next
    depth to attempt; an incremental restore rebuilds its solver with
    frames [0..k-1] already refuted on the first step.  Its solvers log
    no proof. *)

val run :
  ?check:check ->
  ?incremental:bool ->
  ?limits:Budget.limits ->
  ?cancel:bool Atomic.t ->
  Model.t ->
  Verdict.t * Verdict.stats
(** Iterative deepening from depth 0 up to the bound limit, under
    [cancel] when given ({!Budget.start}).  BMC alone
    can only falsify: it answers [Unknown (Bound_limit _)] on safe
    models.  With [incremental] (default false) all depths share one
    solver: frame targets are guarded by assumed activation literals and
    learned clauses carry over — usually much faster on deep bugs.
    ([incremental] is ignored for the [Bound] formulation, whose target
    spans all frames.) *)
