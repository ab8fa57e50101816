(** An incremental CDCL SAT solver with resolution-proof logging.

    Clauses may be added at any time (each carrying an optional partition
    tag used by interpolation) and {!solve} may be called repeatedly,
    optionally under {e assumptions}.  On an unsatisfiable answer under
    assumptions, {!unsat_core} names the involved assumption subset; on
    an unconditionally unsatisfiable instance, {!proof} returns the
    resolution proof.  On [Sat], {!value} reads the model.

    Implementation notes: two-watched-literal propagation, first-UIP
    clause learning, VSIDS branching with phase saving, Luby restarts.
    The clause database is decoupled from the proof: resolution chains,
    input tags and deletion events live in an append-only {!Proof_log},
    while the in-memory database keeps only literals plus the LBD and
    activity scores driving MiniSat-style learnt-clause deletion
    ({!reduce_policy}).  Deleting a learnt clause from the database
    never loses a proof antecedent — the log is append-only and
    {!proof} reconstructs (and trims) the proof from it on demand. *)

type t

type result = Sat | Unsat | Undef
(** [Undef] is returned only when a conflict budget is exhausted. *)

type reduce_policy = {
  enabled : bool;
  base : int;       (** live-learnt threshold for the first reduction *)
  growth : float;   (** geometric multiplier applied after each reduction *)
  keep_lbd : int;   (** clauses with [lbd <= keep_lbd] are never deleted *)
}
(** Learnt-database reduction policy.  When the number of live learnt
    clauses exceeds the current threshold, the worst half of the
    deletable ones — not binary, not glue, not locked as a reason — is
    deleted (ordered by LBD, ties broken by clause activity) and the
    threshold grows geometrically. *)

val default_reduce : reduce_policy
(** Reduction enabled, [base = 4000], [growth = 1.3], [keep_lbd = 2]. *)

val create : ?proof:bool -> unit -> t
(** [proof] (default [true]) turns proof logging on.  A solver created
    with [~proof:false] answers the same way but keeps no proof log: it is
    never {!refuted}, {!proof} raises, {!proof_steps} and {!proof_bytes}
    read 0, and {!iter_input_clauses} raises [Invalid_argument].  For
    queries whose answer is used only as a yes/no, such as inclusion
    checks. *)

val new_var : t -> int
(** Allocates a fresh variable and returns its index. *)

val nvars : t -> int

val add_clause : t -> ?tag:int -> Lit.t list -> unit
(** Adds a clause; the solver first backtracks to the root level.
    Tautologies are silently dropped; duplicate literals are merged.
    [tag] (default 0) is recorded in the proof for interpolation; it must
    be [>= 0]. *)

val import_clause :
  t -> ?lbd:int -> Lit.t list -> [ `Imported | `Satisfied | `Dropped ]
(** Offers a peer's learnt clause to this solver (clause sharing across
    domains).  The clause is {e never trusted}: it is re-derived against
    this solver's own clause database by reverse unit propagation —
    assume the negations of its unknown literals on a throwaway decision
    level and propagate.  On conflict, the clause (restricted to the
    literals the derivation actually needed) enters the database as a
    learnt clause whose {e real} resolution chain is logged into the
    proof, so LRAT export, interpolation labeling and the Paranoid proof
    replay are oblivious to sharing; [`Dropped] means it is not a
    unit-propagation consequence of the local formula (the peer solved a
    different instance, or the derivation needs search) and nothing was
    recorded.  [`Satisfied] means a literal is already true at the root.
    [lbd] seeds the clause's glue for the reduction heuristics (default:
    its length).  Backtracks to the root level first, like
    {!add_clause}.  Imported clauses never re-fire the {!on_export}
    hook, so shared clauses cannot ping-pong between domains. *)

val solve : ?assumptions:Lit.t list -> ?conflict_budget:int -> t -> result
(** Runs the search under the given assumption literals (installed as the
    first decisions).  [conflict_budget] bounds the number of conflicts
    explored; when exhausted the solver answers [Undef] and a later call
    resumes with all live learned clauses retained. *)

val value : t -> int -> bool
(** [value s v] is the model value of variable [v].  Only meaningful
    after {!solve} returned [Sat]; unassigned variables (possible when
    the formula did not constrain them) read as [false]. *)

val lit_value : t -> Lit.t -> bool

val unsat_core : t -> Lit.t list
(** After an [Unsat] answer under assumptions: a subset [C] of the
    assumptions such that the clauses together with [C] are
    unsatisfiable.  Empty when the instance is unconditionally
    unsatisfiable.
    @raise Invalid_argument when the last result was not [Unsat]. *)

val proof : ?trim:bool -> t -> Proof.t
(** The resolution proof of {e unconditional} unsatisfiability (a proof
    exists whenever [Unsat] was answered with no assumptions involved),
    reconstructed from the append-only proof log.  With [trim] (the
    default), derived steps outside the used cone come back as
    {!Proof.Trimmed}; inputs are always materialized.
    @raise Invalid_argument otherwise. *)

val next_step_id : t -> int
(** The proof-log id the next added clause will receive.  This is the
    {e stable} id space of {!Proof.t}, {!Proof.core} and
    {!iter_input_clauses} — unlike database slots it never shifts when
    the learnt database is reduced.  [Isr_model.Unroll] keys its
    clause-to-latch map on it. *)

val iter_input_clauses : t -> (tag:int -> Lit.t array -> unit) -> unit
(** Iterates the input (non-learned) clauses in insertion order with
    their partition tags, as stored after duplicate-literal merging.
    The array is live watch-ordered storage — do not mutate or retain
    it.  Used by the CNF linter of [Isr_check]. *)

val set_reduce : t -> reduce_policy -> unit
(** Installs the learnt-database reduction policy.  Re-installing the
    current policy is a no-op (the geometric schedule keeps running);
    installing a different one restarts the schedule at [base].
    @raise Invalid_argument when [base <= 0] or [growth < 1]. *)

val reduce_policy : t -> reduce_policy

val num_conflicts : t -> int
val num_decisions : t -> int
val num_propagations : t -> int
val num_restarts : t -> int

val num_learnt : t -> int
(** Cumulative count of clauses learned from conflicts. *)

val num_live_learnt : t -> int
(** Learnt clauses currently in the database (learned minus deleted). *)

val num_deleted : t -> int
(** Learnt clauses deleted by database reductions so far; by
    construction [num_deleted s + num_live_learnt s = num_learnt s]. *)

val set_origin : t -> int -> unit
(** Tag clauses born from now on with this engine phase (a logical SAT
    call index, a BMC bound…).  Purely observational: it feeds the
    clause-lifecycle analytics and never affects search. *)

val origin : t -> int

val birth_lbd_counts : t -> int array
(** Cumulative histogram of learnt clauses by LBD at learn time
    (16 buckets, index = glue, last saturating).  Sums to
    {!num_learnt}. *)

val dead_lbd_counts : t -> int array
(** Reduction victims by LBD at death; sums to {!num_deleted}. *)

val dead_uses_counts : t -> int array
(** Reduction victims by conflict-analysis uses before deletion; sums
    to {!num_deleted}. *)

val dead_drift_counts : t -> int array
(** Reduction victims by glue improvement (birth LBD minus LBD at
    death, never negative — stored LBD only tightens); sums to
    {!num_deleted}. *)

val refuted : t -> bool
(** Whether an unconditional refutation (empty clause) has been derived
    and logged — exactly when {!proof} will not raise. *)

val core_birth_lbd : t -> int array
(** Histogram (by birth LBD, 16 buckets) of the learnt clauses that
    participate in the trimmed refutation — including clauses deleted
    after serving their resolutions.  Each bucket is bounded by the
    corresponding {!birth_lbd_counts} bucket.  Costs a proof
    reconstruction; gate it on observability being enabled.
    @raise Invalid_argument when not {!refuted}. *)

val num_reduces : t -> int
(** Completed learnt-database reductions. *)

val max_learnt_len : t -> int
(** Longest learned clause so far (0 before any conflict). *)

val num_clauses : t -> int
(** Current size of the clause database (inputs plus live learnt). *)

val proof_steps : t -> int
(** Steps appended to the proof log so far — the ["proof.steps"] gauge. *)

val proof_bytes : t -> int
(** Current footprint of the proof log in bytes — the ["proof.bytes"]
    gauge. *)

val on_learnt : t -> (len:int -> lbd:int -> unit) option -> unit
(** Installs (or clears) an observer called with the length and glue
    (LBD at learn time) of every clause learned from a conflict — the
    hook behind the learned-clause-length and birth-LBD histograms of
    {!Isr_obs.Metrics}. *)

val on_export : t -> (lits:Lit.t array -> lbd:int -> unit) option -> unit
(** Installs (or clears) an observer called with the literals (a private
    copy) and glue of every clause learned from a conflict — the export
    side of clause sharing.  Not fired for clauses entering through
    {!import_clause}. *)

val on_restart : t -> (int -> unit) option -> unit
(** Installs (or clears) an observer called with the cumulative restart
    count at every restart — the hook behind the ["sat.restart"]
    progress heartbeat. *)

type reduce_info = {
  kept : int;              (** live learnt clauses after the reduction *)
  deleted : int;           (** victims of this reduction *)
  kept_lbd : int array;    (** survivors by current LBD *)
  dead_lbd : int array;    (** victims by LBD at death *)
  dead_uses : int array;   (** victims by conflict-analysis uses before deletion *)
  dead_drift : int array;  (** victims by birth LBD - death LBD (glue improvement) *)
}
(** One completed database reduction as seen by {!on_reduce}.  All
    histograms use the 16-bucket convention: index = value, last bucket
    saturating. *)

val on_reduce : t -> (reduce_info -> unit) option -> unit
(** Installs (or clears) an observer called after every learnt-database
    reduction — the hook behind the ["sat.db.reduce"] / ["sat.db.kept"]
    metrics, the clause-lifecycle histograms and the [db.reduce] search
    event.  The victim histograms are accounted unconditionally (they
    also feed the cumulative [dead_*_counts]); only the survivor
    snapshot is computed on demand. *)

val set_interrupt : t -> (unit -> bool) option -> unit
(** Installs (or clears) a cooperative-cancellation poll.  The search
    consults it at solve entry and every few hundred conflicts (plus a
    coarser decision cadence, and a propagation-count cadence so even
    conflict-light, propagation-heavy searches poll every few
    milliseconds); when it returns [true], {!solve} answers [Undef]
    exactly as for an exhausted conflict budget — the solver stays
    resumable.  The hook behind {!Isr_core.Budget}'s deadline and
    cancel token: deadlines are honoured mid-slice and race losers in
    the parallel portfolio stop within one conflict slice of the
    winner. *)
