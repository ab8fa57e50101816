(** Clause-lifecycle report: the solver's learnt database as a measured
    population.

    Folds a run's metrics snapshot (the ["clause.*"] registry entries)
    and its event stream (the [Reduce] victims' exact histograms) into
    one survival/usefulness report: how many clauses were born, deleted
    and kept, how they were distributed by birth LBD, how many conflict
    analyses the deleted ones served first, how much their glue
    improved, and which birth-LBD band the proof-core clauses came from
    — exactly the evidence a HordeSat-style clause-sharing export
    filter needs.  Pure: inputs are a decoded snapshot and events,
    rendering is a formatter, so the report is unit-testable against
    canned runs.  Backed by the [isr_obs clauses] subcommand. *)

type hist = {
  count : int;
  mean : float;
  max_v : float;
  buckets : (float * int) list;
      (** [(le, n)]: [n] samples in the bucket whose upper bound is [le]
          (above the previous bound), as {!Metrics.to_json} writes them;
          empty buckets are left out *)
}

type t = {
  born : int;            (** clauses learned (the ["clause.born"] counter) *)
  deleted : int;         (** reduction victims (["clause.deleted"]) *)
  kept : int;            (** [born - deleted] *)
  reduces : int;         (** database reductions (["sat.db.reduce"]) *)
  birth_lbd : hist option;      (** ["clause.birth_lbd"] *)
  uses_at_death : hist option;  (** ["clause.uses_at_death"] *)
  lbd_drift : hist option;      (** ["clause.lbd_drift"] *)
  core_birth_lbd : hist option; (** ["clause.core_birth_lbd"] *)
  ev_dead_lbd : int array;   (** victims by LBD at death, summed over [Reduce] events *)
  ev_dead_uses : int array;  (** victims by uses before deletion, same *)
  ev_timeline : (float * int * int) list;
      (** one [(ts, kept, dropped)] per [Reduce] event, in stream order *)
  violations : string list;
      (** violated sum-pinning invariants ([kept + deleted = born],
          proof-core within born, event sums matching event counts);
          empty for a consistent run *)
}

val of_run : metrics:(string * Metrics.reading) list option -> events:Event.t list -> t
(** Build the report from a metrics snapshot (the ledger's
    [metrics_json] read by {!Metrics.of_json}) and a decoded event
    stream; either side may be missing and the report degrades to what
    is available. *)

val pp : Format.formatter -> t -> unit
