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
    ({!reduce_policy}).  That database is one flat store: every
    clause's literals in one integer arena, and its offset, length,
    proof id, glue, birth glue, use count and activity in per-slot
    arrays, so a clause costs no heap block of its own.  Deleting a
    learnt clause from the database never loses a proof antecedent —
    the log is append-only and {!proof} is a read-only view of it. *)

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
    checks.

    Proof contract: a solver logs only when its caller reads a proof.
    The interpolating engines, proof-based abstraction and the linters
    that export or iterate clauses log; PDR, k-induction, BMC,
    certificate checks, FRAIG miters and the analysis certificates do
    not (see [Isr_model.Unroll.create]).  Those callers still log at
    the Paranoid check level, so [sat.proof_replay] covers every
    refutation it covered before; [~proof:false] itself always means no
    log.  Learnt clauses, LBDs, backjump levels and every search counter
    are the same with a log and without. *)

val new_var : t -> int
(** Allocates a fresh variable and returns its index. *)

val new_vars : t -> int -> int
(** [new_vars s n] allocates [n] fresh variables in one block and returns
    the first index; the block is [v .. v + n - 1].  Equivalent to [n]
    calls of {!new_var}, branching order included.
    @raise Invalid_argument when [n < 0]. *)

val nvars : t -> int

val reserve : t -> vars:int -> clauses:int -> lits:int -> unit
(** [reserve s ~vars ~clauses ~lits] makes room for [vars] more
    variables and [clauses] more clauses of [lits] literals in all, in
    one step: every per-variable and per-literal array, the branching
    heap, the trail, the clause store's slots and literal arena (with
    an eighth more room for learnt clauses), and the proof log's step
    index are sized for them at once, so adding them allocates none of
    that storage again.  Capacity only: what the solver holds, its
    search and its proof are those of a solver never reserved, whether
    the counts are too small, exact or too large.
    Watch lists stay per literal and grow on their own (each literal's
    list is sized by its watches), and the proof log's records need no
    reservation: it writes into pages that are never copied.
    @raise Invalid_argument when a count is negative. *)

val add_clause : t -> ?tag:int -> Lit.t list -> unit
(** Adds a clause; the solver first backtracks to the root level.
    Tautologies are silently dropped; duplicate literals are merged.
    [tag] (default 0) is recorded in the proof for interpolation; it must
    be [>= 0]. *)

val add_clause_array : t -> ?tag:int -> Lit.t array -> unit
(** {!add_clause} over an array, which the solver uses as scratch: it
    reorders the literals in place and keeps no reference to the array,
    so the caller must not rely on its contents afterwards.
    [add_clause s l] is [add_clause_array s (Array.of_list l)]. *)

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

val proof : t -> Proof.t
(** The resolution proof of {e unconditional} unsatisfiability (a proof
    exists whenever [Unsat] was answered with no assumptions involved):
    a view of the append-only proof log, made on the first call and
    shared by later ones (the log is final once refuted).
    @raise Invalid_argument otherwise. *)

val next_step_id : t -> int
(** The proof-log id the next added clause will receive.  This is the
    {e stable} id space of {!Proof.t}, {!Proof.core} and
    {!iter_input_clauses} — unlike database slots it never shifts when
    the learnt database is reduced.  [Isr_model.Unroll] keys its
    clause-to-latch map on it. *)

val iter_input_clauses : t -> (tag:int -> Lit.t array -> unit) -> unit
(** Iterates the input (non-learned) clauses in insertion order with
    their partition tags, as stored after duplicate-literal merging: a
    fresh copy of each clause's literals, in the watch order the search
    left them in.  Used by the CNF linter of [Isr_check]. *)

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

val dead_counts_into : t -> uses:int array -> drift:int array -> unit
(** Copies {!dead_uses_counts} into [uses] and {!dead_drift_counts}
    into [drift] (16 buckets each) without allocating. *)

val refuted : t -> bool
(** Whether an unconditional refutation (empty clause) has been derived
    and logged — exactly when {!proof} will not raise. *)

val core_birth_lbd : t -> int array
(** Histogram (by birth LBD, 16 buckets) of the learnt clauses that
    participate in the refutation — including clauses deleted after
    serving their resolutions.  Each bucket is bounded by the
    corresponding {!birth_lbd_counts} bucket.  Reads the used cone of
    {!proof}, computing it if no caller has yet.
    @raise Invalid_argument when not {!refuted}. *)

val num_reduces : t -> int
(** Completed learnt-database reductions. *)

val reduce_kept : t -> int
(** Live learnt clauses left by the last reduction (0 before any).  A
    reduction also posts an {!Isr_obs.Event.kind.Reduce} record, with
    the survivors' LBD histogram and the victims' LBD and use
    histograms, when {!Isr_obs.Event.enabled}. *)

val num_clauses : t -> int
(** Current size of the clause database (inputs plus live learnt). *)

val proof_steps : t -> int
(** Steps appended to the proof log so far — the ["proof.steps"] gauge. *)

val proof_bytes : t -> int
(** Current footprint of the proof log in bytes — the ["proof.bytes"]
    gauge. *)

val on_learnt : t -> (lits:Lit.t array -> lbd:int -> unit) option -> unit
(** Installs (or clears) an observer called with the literals and glue
    (LBD at learn time) of every clause learned from a conflict — the
    hook behind the learned-clause-length and birth-LBD histograms of
    {!Isr_obs.Metrics}.  The array is the solver's own, lent for the
    duration of the call: read it there, never keep or mutate it.  The
    asserting literal comes first. *)

val on_restart : t -> (int -> unit) option -> unit
(** Installs (or clears) an observer called with the cumulative restart
    count at every restart — the hook behind the ["sat.restart"]
    progress heartbeat. *)

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
