(** Counterexample-based abstraction (CBA) over latches.

    The abstraction freezes a subset of latches: a frozen latch's
    next-frame variable is left unconstrained in the unrolling, turning
    it into a free input — the localization abstraction of [13] in the
    paper.  The abstraction is a mask with one flag per latch, [true]
    for frozen; the initial abstraction keeps only the latches read
    directly by the property cone.

    [EXTEND] replays an abstract counterexample's primary inputs on the
    concrete model (which is deterministic, so simulation decides it);
    [REFINE] re-concretizes the frozen latches whose abstract values
    diverge from the concrete simulation at the earliest divergent
    frame.  When the counterexample does not extend, at least one frozen
    latch is guaranteed to diverge, so refinement always progresses. *)

open Isr_model

val initial : Model.t -> bool array
(** A fresh frozen mask: every latch frozen except those the property
    reads directly. *)

val extend : Model.t -> Trace.t -> int option
(** Depth of the concrete violation under the trace's inputs, if any —
    the paper's EXTEND. *)

val refine :
  Model.t -> bool array -> Trace.t -> abstract_state:(frame:int -> bool array) -> int
(** Re-concretizes divergent latches by clearing their flags in the
    frozen mask (in place); returns how many were unfrozen (always
    [>= 1] when called on a non-extending counterexample). *)
