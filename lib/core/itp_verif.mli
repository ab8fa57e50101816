(** Standard interpolation-based unbounded model checking — McMillan's
    algorithm as reproduced in Figure 1 of the paper.

    The outer loop increases the bound [k]; the B-term is the {e bound-k}
    formulation (a violation at any frame 1..k), which the paper points
    out is the strict requirement for this algorithm's correctness.  The
    inner loop performs the over-approximate forward traversal
    I{_j+1} = ITP(I{_j} ∧ T, B{^k}) until either a fixpoint
    (I{_j} ⇒ R{_j-1}, PASS) or a satisfiable instance (restart with a
    larger bound). *)

val stepper : unit -> Step.packed
(** The step-wise form: one step is the depth-0 check, the exact first
    iteration of a bound, or one inner-traversal iteration, with
    interpolants in McMillan's system.  Snapshots carry just the bound:
    the inner interpolant chain is re-driven from the bound's start on
    resume, which is deterministic.  Run it with {!Engine.run}. *)
