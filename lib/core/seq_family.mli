(** One round of interpolation-sequence extraction at a given bound: the
    family I{^k}{_1} … I{^k}{_k} of Section II-C (parallel, Equation 2)
    or Section IV-C (serial, Definition 3 / Figure 4).

    The serial computation replaces the first ⌊α·(k+1)⌋ terms by chained
    standard interpolants I{_j} = ITP(I{_j-1} ∧ A{_j}, A{_j+1..n}); the
    remaining terms come from one parallel extraction seeded with
    I{_ns} (Figure 4).  When an intermediate serial instance turns out
    satisfiable — possible, since I{_j-1} over-approximates — the whole
    family falls back to the parallel extraction from the original BMC
    refutation, which always exists. *)

open Isr_aig
open Isr_model

type mode = Parallel | Serial of float  (** serial fraction α ∈ [0,1] *)

val mode_name : mode -> string

val charge_itp : ?cut:int -> Verdict.stats -> Aig.man -> Aig.lit -> unit
(** Account one extracted interpolant: add its cone size to the run's
    interpolant-node count and, when someone reads records, emit its
    {!Isr_obs.Event.kind.Itp_cut} record under [cut] (default 1). *)

val lint_itp : what:string -> Model.t -> Aig.lit -> unit
(** Under the paranoid sanitizer level, check that an interpolant is a
    state predicate over the model's latches (see
    {!Isr_check.Lint_itp}); [what] names it in the violation. *)

val of_refutation :
  ?system:Isr_itp.Itp.system ->
  Budget.t ->
  Verdict.stats ->
  Unroll.t ->
  ncuts:int ->
  Aig.lit array
(** Parallel family straight from an unrolling whose solver already
    answered Unsat (Equation 2): one interpolant per cut [1..ncuts].
    Re-checks the deadline (and the budget's cancel token) between cuts,
    so extraction over a large proof cannot overshoot the budget by more
    than one cut — may raise {!Budget.Out_of_time} or
    {!Budget.Cancelled}. *)

val compute :
  ?system:Isr_itp.Itp.system ->
  Budget.t ->
  Verdict.stats ->
  ?frozen:(int -> bool) ->
  Model.t ->
  mode:mode ->
  check:Bmc.check ->
  k:int ->
  [ `Cex of Unroll.t | `Family of Aig.lit array ]
(** Solves the depth-[k] BMC instance first: a satisfiable instance is
    returned as [`Cex] (with the unrolling for trace extraction and, for
    CBA, the abstract state values).  Otherwise returns the [k]
    interpolants over the model's latch literals.  Requires [k >= 1]. *)
