(** Verification outcomes and per-run statistics, shared by every engine.

    The depth measures follow Section IV-B of the paper: [kfp] is the BMC
    bound at the fixpoint (the outer iteration count) and [jfp] the depth
    of the over-approximate forward traversal (the inner iteration, or the
    index of the converging cut).  Falsified runs report [jfp = 0] in the
    tables, as the paper does.

    [stats] is a thin projection over a per-run {!Isr_obs.Metrics}
    registry: every engine owns a fresh registry (created by
    {!mk_stats}), the budget layer and the engines update pre-resolved
    counter/gauge/histogram handles, and the legacy seven quantities are
    read back out of the registry by the accessors below.  The full
    registry — including per-check-kind SAT call counts and the
    learned-clause and interpolant-size histograms — is reachable
    through {!registry} for JSON snapshots ([--metrics]). *)

open Isr_model

type reason =
  | Time_limit
  | Conflict_limit
  | Bound_limit of int  (** gave up after this bound *)

type t =
  | Proved of { kfp : int; jfp : int; invariant : Isr_aig.Aig.lit option }
      (** [invariant], when present, is an inductive safety certificate
          over the model's latch literals: it contains the initial
          states, is closed under the transition relation, and implies
          the property.  {!Isr_core.Certify} re-checks it with
          independent SAT calls. *)
  | Falsified of { depth : int; trace : Trace.t }
  | Unknown of reason

type stats = {
  metrics : Isr_obs.Metrics.t;  (** the authoritative per-run registry *)
  (* Pre-resolved handles into [metrics]; hot-path writers use these
     directly instead of name lookups. *)
  c_sat_calls : Isr_obs.Metrics.counter;
  c_conflicts : Isr_obs.Metrics.counter;
  c_decisions : Isr_obs.Metrics.counter;
  c_propagations : Isr_obs.Metrics.counter;
  c_restarts : Isr_obs.Metrics.counter;
  h_learnt_len : Isr_obs.Metrics.histogram;
  c_db_reduce : Isr_obs.Metrics.counter;
  g_db_kept : Isr_obs.Metrics.gauge;
  c_clause_born : Isr_obs.Metrics.counter;
  c_clause_deleted : Isr_obs.Metrics.counter;
  h_clause_birth_lbd : Isr_obs.Metrics.histogram;
  h_clause_uses_death : Isr_obs.Metrics.histogram;
  h_clause_drift : Isr_obs.Metrics.histogram;
  h_clause_core_lbd : Isr_obs.Metrics.histogram;
  g_proof_steps : Isr_obs.Metrics.gauge;
  g_proof_bytes : Isr_obs.Metrics.gauge;
  c_itp_nodes : Isr_obs.Metrics.counter;
  h_itp_size : Isr_obs.Metrics.histogram;
  c_incl_checks : Isr_obs.Metrics.counter;
  c_incl_cached : Isr_obs.Metrics.counter;
  c_incl_tables : Isr_obs.Metrics.counter;
  c_incl_vars : Isr_obs.Metrics.counter;
  g_last_bound : Isr_obs.Metrics.gauge;
  c_refinements : Isr_obs.Metrics.counter;
  g_frozen_latches : Isr_obs.Metrics.gauge;
  g_time : Isr_obs.Metrics.gauge;
}

val mk_stats : unit -> stats
(** A fresh registry with all standard metrics registered. *)

val registry : stats -> Isr_obs.Metrics.t

(* Projections of the registry (reads): [conflicts] etc. are summed over
   all SAT calls, [itp_nodes] counts AND nodes over all extracted
   interpolants, [last_bound] is the largest bound attempted, and
   [refinements]/[abstract_latches] are only written by the CBA/PBA
   abstraction engines. *)
val sat_calls : stats -> int
val conflicts : stats -> int
val decisions : stats -> int
val propagations : stats -> int
val restarts : stats -> int
val max_learnt_len : stats -> int

val db_reduces : stats -> int
(** Learnt-database reductions across all SAT calls of the run. *)

val clauses_born : stats -> int
(** Clauses learned across the run — the ["clause.born"] counter.  The
    lifecycle invariant [clauses_born = clauses_deleted + live] is
    enforced by the clause-report tests. *)

val clauses_deleted : stats -> int
(** Learnt clauses deleted by database reductions across the run. *)

val proof_steps : stats -> int
(** Proof-log steps of the largest solver the run touched (gauges keep
    the maximum on merge). *)

val itp_nodes : stats -> int

val incl_checks : stats -> int
(** Inclusion checks decided across the run — ["incl.checks"]. *)

val incl_cached : stats -> int
(** Inclusion checks answered by a remembered satisfying assignment,
    with no SAT call — ["incl.cached"]. *)

val incl_new_vars : stats -> int
(** SAT variables the run's inclusion checks had to add, one per AIG node
    reached for the first time — ["incl.new_vars"].  Nodes encoded by an
    earlier check of the same run are not counted again. *)

val last_bound : stats -> int
val refinements : stats -> int
val abstract_latches : stats -> int
val time : stats -> float

(* Engine-side updates. *)
val note_bound : stats -> int -> unit
(** Record a bound attempt: keeps the maximum. *)

val add_itp_nodes : stats -> int -> unit
(** Charge one extracted interpolant of the given AND-node count (also
    feeds the per-interpolant size histogram). *)

val add_incl_check : stats -> cached:bool -> new_vars:int -> unit
(** Charge one inclusion check that added [new_vars] SAT variables, or
    that a remembered assignment answered ([cached]). *)

val add_incl_table : stats -> unit
(** Charge one inclusion check answered on truth tables, with no SAT
    call: it counts in ["incl.checks"] and ["incl.tables"] (ITPSEQ on
    models of at most {!Isr_aig.Truth.max_vars} latches). *)

val incr_refinements : stats -> unit
val set_abstract_latches : stats -> int -> unit
val set_time : stats -> float -> unit

val beat : ?step:int -> ?detail:string -> stats -> string -> unit
(** Post one {!Isr_obs.Event.kind.Phase} record for this run, carrying
    the registry's cumulative conflicts/propagations/learnt-clause count;
    the progress reporter renders it as a heartbeat.  A flag test when
    nobody reads search records. *)

val merge_into : into:stats -> stats -> unit
(** Registry-wide merge (counters add, gauges max, histograms combine) —
    what the portfolio uses to aggregate member runs. *)

val is_proved : t -> bool
val is_falsified : t -> bool

val kfp : t -> int option
val jfp : t -> int option

val pp : Format.formatter -> t -> unit
val pp_stats : Format.formatter -> stats -> unit
