(** SAT sweeping (fraiging): merge functionally equivalent AIG nodes.

    Candidate equivalences are proposed by 64-bit random simulation and
    confirmed by SAT miters; counterexamples from failed checks refine
    the simulation signatures, so every merge is machine-checked.  Used
    to compact models before verification — structural hashing only
    catches syntactic duplication, fraiging catches semantic
    duplication (the padded industrial designs are full of it). *)

open Isr_aig
open Isr_model

val equivalent :
  ?conflict_budget:int -> Aig.man -> Aig.lit -> Aig.lit -> bool option
(** SAT check that two literals of one manager compute the same function
    of the inputs.  [None] when the budget (default 10k conflicts) runs
    out. *)

val sweep : ?rounds:int -> ?conflict_budget:int -> Model.t -> Model.t * int
(** Rebuilds the model with semantically equivalent internal nodes
    merged ([rounds] 64-pattern simulation rounds seed the classes,
    default 8).  Each failed miter's counterexample becomes a pattern
    lane, and later candidates that disagree with a node on it are
    skipped without a miter; that changes no merge, since they cannot
    be equivalent.  The result is sequentially identical: same inputs,
    same latches (same order and initial values), equivalent next-state
    and bad functions.  Also returns the number of SAT-confirmed
    merges. *)

val property_hash : ?rounds:int -> Model.t -> string
(** Semantic instance fingerprint of the property cone, as a 16-digit
    hex string: the cone of influence of [bad] is closed over the
    next-state functions, then simulated sequentially for [rounds]
    64-pattern steps (default 8) from the initial state under
    deterministic pseudo-random inputs, folding the bad-signal and
    needed-latch signatures of every step into one word.  Invariant
    under node renumbering and structural rewrites that preserve the
    cone's behaviour (it is computed from simulation semantics, not node
    identity), so re-encoded copies of one instance key to the same
    ledger bucket. *)
