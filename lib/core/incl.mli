(** SAT-based implication checks between state predicates (circuits over
    the model's latch literals) — the fixpoint tests [ℐ_j ⇒ R_{j-1}] of
    the engines.

    A session answers a run of checks on one solver.  Each AIG node is
    Tseitin-encoded once, the first time a check reaches it, and the
    check itself is a solve under two assumption literals; learnt clauses
    carry over from check to check.  An engine's sweep over one bound,
    [R_j = R_{j-1} ∨ ℐ_j], therefore encodes each column once instead of
    once per check.  The solver logs no proof: an inclusion answer is
    only ever used as a yes/no.

    A session also remembers the last 64 satisfying assignments it found
    and tries them first, by one 64-way simulation of both cones; a hit
    answers without a SAT call.  Across the bounds of an ITPSEQ run this
    is the common case: the column ℐ_j only ever shrinks and [R_{j-1}]
    with it, so a state that escaped [R_{j-1}] at one bound still does
    at the next, and it is a counterexample again whenever it survives
    the new interpolant. *)

open Isr_aig
open Isr_model

type t

val create : Budget.t -> Verdict.stats -> Model.t -> t
(** A session charging its SAT calls to the budget and registry of the
    run it serves. *)

val reset : t -> unit
(** Drops the solver, the encoding and the simulation values, keeping
    the budget, the registry and the remembered assignments; no later
    answer changes.  The
    engines reset at every new bound: the next sweep reaches few of the
    old nodes, and a kept solver would hold its memory beside the next
    bound's BMC instance. *)

val implies : t -> Aig.lit -> Aig.lit -> bool
(** [implies t a b] decides [a ⇒ b] over the state space by refuting
    [a ∧ ¬b]. *)

val sat_and : t -> Aig.lit -> Aig.lit -> bool
(** [sat_and t a b] decides whether [a ∧ b] has a satisfying state.  At
    the Paranoid check level every answer is re-decided on a fresh
    encoding and a disagreement is an ["incl.incremental_agrees"]
    violation. *)
