(** Unbounded model checking with interpolation sequences — Figure 2 of
    the paper — in both the {e parallel} variant (Vizel–Grumberg style,
    every I{^k}{_j} from one refutation) and the {e serial} variant of
    Section IV-C (SITPSEQ, a chain of standard interpolations for the
    first ⌊α·n⌋ terms), optionally over a latch abstraction.

    The matrix of interpolants is maintained column-wise:
    ℐ{_j} = ⋀{_i≥j} I{^i}{_j}, and the fixpoint test ℐ{_j} ⇒ R{_j-1}
    runs after every column update.  The test reads only the latches,
    so how the columns are kept depends on the model's width:

    - {b At most {!Isr_aig.Truth.max_vars} (10) latches}: the columns,
      the sweep's R{_j} and the initial state are truth tables, one
      word up to 6 latches and 2{^(n-6)} words up to 10.  One dense
      simulation of a bound's family fills them, and the sweep is word
      operations: no copy into a state space, no BDD round trip, no
      inclusion solve.  The invariant is built from R's table once,
      when the sweep closes.  At the Paranoid level the circuits below
      are kept beside the tables, and each table and each answer is
      checked against them.
    - {b Above}: a table would double per latch, so each update copies
      the family into a state space of the columns' own
      ({!Isr_model.Model.state_space}), rebuilds the columns in
      BDD-canonical form ({!Isr_bdd.Compact.column}) and decides the
      sweep with {!Incl}.

    Either way nothing is added to the model's manager before the sweep
    closes, so the SAT instances and interpolants are the same.  The BMC
    check defaults to {e assume-k}, the formulation Section III
    recommends; [Exact] is available for the Figure-7 comparison. *)

(** How the family at each bound is abstracted.  Both abstractions
    freeze latches (a frozen latch's next-state is a free input) and
    extract a serial family with fraction α from the abstract refutation;
    the smaller abstract refutations yield coarser interpolants. *)
type abstraction =
  | None  (** the concrete model (ITPSEQVERIF, Figures 2/4) *)
  | Cba of float
      (** counterexample-based abstraction — Figure 5 (ITPSEQCBAVERIF).
          Abstract counterexamples on the frozen-latch model are either
          extended to concrete failures (FAIL) or used to refine the
          abstraction, and the bound is retried; proofs are never
          restarted after a refinement (Section V). *)
  | Pba of float
      (** proof-based abstraction — the alternative Section V sets aside
          in favour of CBA.  Each bound first solves the {e concrete}
          instance: Sat is a genuine counterexample; on Unsat, the latches
          whose transition constraints appear in the unsat core join the
          relevant set (cumulative across bounds), and the family comes
          from the abstraction that freezes every other latch —
          unsatisfiable, since it still contains the whole core. *)

val stepper :
  ?mode:Seq_family.mode ->
  ?check:Bmc.check ->
  ?system:Isr_itp.Itp.system ->
  ?abstraction:abstraction ->
  unit ->
  Step.packed
(** The step-wise form: one step is the depth-0 check, PBA's concrete
    solve at the current bound, one (abstract) attempt at the bound's
    family — for CBA a non-extending counterexample refines the
    abstraction and the bound is retried in the next step — or one
    inclusion test of the sweep.  Snapshots carry the bound, the column
    circuits as of the bound's entry (as portable cones; a narrow run
    builds them from its tables, and restores them into tables, so any
    checkpoint resumes on either path) and, for CBA
    and PBA, the frozen or relevant mask as of the bound's entry, so a
    resume re-drives the bound deterministically.  Defaults: mode
    [Parallel], check [Assume], no abstraction; [Cba α] and [Pba α]
    extract with mode [Serial α] whatever [mode] says.  CBA and PBA runs
    end with their frozen-latch count in [abstract_latches].  Run it
    with {!Engine.run}, or [Step.drive (Step.start …)] for a [system]
    other than McMillan's.
    @raise Invalid_argument on [check = Bound] (sequences require a
    single-frame target). *)
