(** k-induction with simple-path (uniqueness) constraints.

    Not part of the paper's contribution, but the classic SAT-based UMC
    companion the paper's portfolio discussion (Section IV) positions
    interpolation against — included so the engine comparison has a
    non-interpolant baseline.  At each k the base case is the exact-k BMC
    check; the inductive step asks for a loop-free path of k+1
    transitions through property-satisfying states ending in a violation.
    Simple-path constraints make the method complete. *)

val stepper : unit -> Step.packed
(** The step-wise form: one step is one depth [k] (exact base check plus
    inductive step query, with the pairwise state-difference clauses
    without which k-induction may diverge on safe models).  Snapshots
    carry just the depth.  On [Proved], [kfp] is the inductive depth and
    [jfp] is 0; a proof at depth 0 whose bad reads latches only carries
    the property as its invariant, deeper proofs carry none.  Run it
    with {!Engine.run}. *)
