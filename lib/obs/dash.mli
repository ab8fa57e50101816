(** The one fold of a merged event stream, and the [isr_obs top] frame.

    {!view} folds the race lifecycle ([Spawn], [Dispatch], [Cancel],
    [Verdict]) and the kernel's [Step] records into one row per worker
    (or per domain, for sequential runs): engines, current bound,
    cumulative conflicts with a restart-to-restart conflict rate,
    learnt-database size and reductions, last engine phase, and the race
    outcome — who published which verdict, who was cancelled by whom and
    why.  Beside the rows it keeps the member lanes of the step kernel
    and their interleaving.  [isr_obs top], [explain-race] and [steps]
    all render this one view.  Pure on both sides ([view] consumes
    decoded events, [render] produces a string), so the TTY renderer is
    unit-testable against canned multi-domain fixtures; the CLI re-reads
    the stream and re-renders for [--follow] mode. *)

type lane = private {
  worker : int;      (** worker index from the race lifecycle, or the
                         domain id for sequential streams *)
  mutable engines : string;  (** from [Spawn]; ["-"] when none was seen *)
  mutable spawned : float option;  (** timestamp of its [Spawn] *)
  mutable dom : int option;  (** the domain its [Spawn] came from *)
  mutable dispatches : int;  (** bounds dispatched to it *)
  mutable bound : int;       (** last dispatched bound / phase step, [-1] none *)
  mutable conflicts : int;   (** cumulative conflicts at the last restart *)
  mutable learnt : int;      (** live learnt clauses at the last restart *)
  mutable restarts : int;
  mutable reduces : int;
  mutable kept : int;        (** survivors of the last reduction, [-1] none *)
  mutable rate : float;      (** conflicts/s between the last two restarts *)
  mutable phase : string;    (** last [Phase] label, [""] none *)
  mutable cuts : int;        (** interpolant cuts extracted *)
  mutable verdict : string option;  (** last one published by this lane *)
  mutable cancelled : (Event.cause * int * float) option;
      (** the first cancellation edge: cause, canceller, timestamp *)
  mutable last_ts : float;   (** this lane's most recent event *)
}
(** Mutable only while {!view} folds. *)

type member = {
  id : int;        (** member lane id of the [Step] records *)
  engine : string;
  n : int;         (** steps taken, from its last [Step] *)
  pos : int;       (** engine position after that step *)
  status : string;
      (** status of its last [Step]; a lane left ["running"] reads
          ["cancelled"] when its scheduler stopped: another lane of its
          domain proved or falsified, or a [Cancel] edge reached the
          worker its domain's [Spawn] binds it to *)
}

type view = {
  t0 : float;
  t_end : float;          (** timestamp of the last event *)
  lanes : lane list;      (** sorted by worker index *)
  total : int;            (** events folded *)
  spawns : int list;      (** workers in the order of their [Spawn] records *)
  verdicts : (int * string * float) list;
      (** every published verdict as (worker, verdict, timestamp), in
          stream order *)
  members : member list;  (** sorted by member lane id *)
  schedule : int list;    (** member lane id of every [Step], in stream order *)
}

val view : Event.t list -> view
(** Fold a merged stream (as from {!Event.events} / {!Event.read_jsonl})
    into the model.  Worker attribution: [Spawn] events bind their
    emitting domain to a worker index, and dom-only events (restarts,
    reductions, phases, cuts, kernel steps) follow that binding; streams
    without a race lifecycle get one lane per domain. *)

val winner : view -> (int * string) option
(** The last published verdict: bound-parallel minimisation publishes
    several, each shallower than the one before. *)

val lane_label : int -> string
(** ["w3"] for worker lanes, ["d2"] for the per-domain lanes of a
    sequential stream. *)

val cause_name : Event.cause -> string
(** Display label of a cancel cause, as in the [state] column. *)

val render : ?width:int -> ?gc:string -> view -> string
(** Render as a fixed-layout multi-line frame, each line clamped to
    [width] when one is given; [gc] is an optional pre-formatted gauge
    line (the CLI fills it from flight-recorder snapshots).  Ends with a
    newline. *)
