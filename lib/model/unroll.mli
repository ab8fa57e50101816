(** Time-frame expansion of a sequential model into a SAT solver.

    An unrolling owns a fresh solver and a growing sequence of frames.
    Frame [f] has one SAT variable per latch (the state [V^f]) and one
    per primary input.  {!add_transition} appends a frame by encoding the
    next-state functions; every emitted clause carries the caller's
    partition tag, which is how the BMC formulations ([bound-k],
    [exact-k], [assume-k]) and the interpolation partitions Γ are
    expressed (see DESIGN.md).

    State variables at each frame are fresh variables linked to the
    next-state cones by equivalence clauses, so the cut between two
    adjacent partitions is exactly the state variables — the invariant
    interpolation relies on. *)

open Isr_sat
open Isr_aig

type t

(** Allocates the unrolling and its solver.  [reduce] overrides the
    solver's learnt-database reduction policy at creation (the budget
    layer re-applies the run's policy at every solve).

    [proof] says whether the caller reads a resolution proof off the
    solver ({!Isr_sat.Solver.proof}, an unsat core through
    {!latch_of_clause}, or the input clauses): the interpolating engines
    and proof-based abstraction pass [true]; PDR, k-induction, BMC and
    certificate checks, which only read answers, models and assumption
    cores, pass [false] and pay for no log.  At the
    {!Isr_check_core.Level.paranoid} level the solver logs anyway, so
    the [sat.proof_replay] check covers every refutation. *)
val create : ?reduce:Solver.reduce_policy -> proof:bool -> Model.t -> t
val model : t -> Model.t
val solver : t -> Solver.t

val nframes : t -> int
(** Number of state frames currently allocated (at least 1). *)

val state_lit : t -> frame:int -> int -> Lit.t
(** SAT literal of latch [i] at a frame. *)

val pi_lit : t -> frame:int -> int -> Lit.t
(** SAT literal of primary input [i] at a frame (allocated on demand). *)

val assert_init : t -> tag:int -> unit
(** Constrains frame 0 to the model's initial state (unit clauses). *)

val add_transition : ?frozen:(int -> bool) -> t -> tag:int -> unit
(** Encodes one transition from the last frame, allocating the next one.
    Latches selected by [frozen] get a fresh {e unconstrained} variable at
    the new frame instead of their next-state function — the localization
    abstraction used by the CBA engine (a frozen latch behaves as a free
    input). *)

val reserve : ?frozen:(int -> bool) -> t -> frames:int -> props:int -> unit
(** [reserve ?frozen u ~frames ~props] sizes the solver, once, for what
    the caller is about to add: [frames] calls of
    [add_transition ?frozen] and [props] encodings of the property cone
    (the cone of [bad], asserted as [bad] or as its negation, or only
    encoded).  Callers reserve after {!assert_init}, which it does not
    count.  The variable, clause and literal counts of a frame come
    from the compiled frame, the cone's from one walk over it, each an
    upper bound.  Capacity only: the clauses, variables and search that
    follow are those of an unrolling never reserved, whatever the
    counts.  An unrolling built
    one clause at a time would instead double every per-variable array
    about [log2] of its final size times.
    @raise Invalid_argument when a count is negative. *)

val encode : t -> frame:int -> tag:int -> Aig.lit -> Lit.t
(** Encodes a combinational literal over the frame's latches and primary
    inputs; returns its SAT literal.  Each call uses a private Tseitin
    context: internal variables are never shared across calls, keeping
    partitions disjoint. *)

val assert_circuit : t -> frame:int -> tag:int -> Aig.lit -> unit
(** [encode] then assert with a unit clause. *)

val add_clause : t -> tag:int -> Lit.t list -> unit

val boundary_map : t -> frame:int -> int -> Aig.lit option
(** Maps a SAT variable to the corresponding latch literal of the model
    when the variable is a state variable of the given frame. *)

val any_state_map : t -> int -> Aig.lit option
(** Maps a SAT variable to its latch literal whatever the frame — the
    single variable map valid for every cut of an interpolation
    sequence. *)

val latch_of_clause : t -> int -> int option
(** When the clause id — a stable proof-log step id, the id space of
    {!Isr_sat.Proof.core} — denotes one of the state-equality clauses
    emitted by {!add_transition}, the index of the latch it constrains.
    Used by proof-based abstraction to read relevant latches off an
    unsat core. *)

val trace : t -> Trace.t
(** Extracts the primary-input assignment per frame from a satisfiable
    solver (unconstrained inputs read as [false]). *)

val state_values : t -> frame:int -> bool array
(** Latch values at a frame from a satisfiable solver. *)
