(** IC3 / property-directed reachability.

    Not part of the paper (it predates IC3 by a few months), but the
    engine that soon displaced interpolation in the portfolios the paper
    anticipates — included as the strongest baseline, and as the natural
    client of the solver's incremental/assumption interface.

    Implementation follows the standard recipe: monotone frames of
    blocked cubes in delta encoding, recursive blocking with a
    frame-ordered obligation queue, cube generalization from assumption
    cores (with initial-state exclusion), forward clause propagation, and
    fixpoint detection when a frame's delta drains.  On PASS the
    converged frame is returned as a certified inductive invariant; on
    FAIL the obligation chain reconstructs a concrete input trace. *)

val stepper : unit -> Step.packed
(** The step-wise form: one step is the depth-0 check, the full
    obligation drain of a round, or the round's forward propagation.
    Snapshots carry the round and the frames (as blocked-cube lists) as
    of the round's entry, so a resume re-drives the round.  On [Proved],
    [kfp] is the outer round and [jfp] the frame at which the fixpoint
    appeared; the invariant certificate is always present.
    Counterexamples are shortest (round [k] finds length-[k] traces).
    Run it with {!Engine.run}. *)
