(** Live multi-domain dashboard model: the [isr_obs top] view.

    Folds a merged event stream into one row per worker (or per domain,
    for sequential runs): engines, current bound, cumulative conflicts
    with a restart-to-restart conflict rate, learnt-database size and
    reductions, last engine phase, and the race outcome — who published
    the verdict, who was cancelled by whom and why.  Pure on both sides
    ([view] consumes decoded events, [render] produces a string), so the
    TTY renderer is unit-testable against canned multi-domain fixtures;
    the CLI re-reads the stream and re-renders for [--follow] mode. *)

type lane = {
  worker : int;      (** worker index from the race lifecycle, or the
                         domain id for sequential streams *)
  engines : string;  (** from [Spawn]; ["-"] when none was seen *)
  bound : int;       (** last dispatched bound / phase step, [-1] none *)
  conflicts : int;   (** cumulative conflicts at the last restart *)
  learnt : int;      (** live learnt clauses at the last restart *)
  restarts : int;
  reduces : int;
  kept : int;        (** survivors of the last reduction, [-1] none *)
  rate : float;      (** conflicts/s between the last two restarts *)
  phase : string;    (** last [Phase] label, [""] none *)
  cuts : int;        (** interpolant cuts extracted *)
  verdict : string option;          (** published by this lane *)
  cancelled : (Event.cause * int) option;  (** cause and canceller *)
  last_ts : float;   (** this lane's most recent event *)
}

type view = {
  t0 : float;
  t_end : float;          (** timestamp of the last event *)
  lanes : lane list;      (** sorted by worker index *)
  total : int;            (** events folded *)
  winner : (int * string) option;
      (** last published verdict (bound-parallel minimisation publishes
          several; the last one stands, as in [explain-race]) *)
}

val view : Event.t list -> view
(** Fold a merged stream (as from {!Event.events} / {!Event.read_jsonl})
    into the dashboard model.  Worker attribution: [Spawn] events bind
    their emitting domain to a worker index, and dom-only events
    (restarts, reductions, phases, cuts, kernel steps) follow that
    binding; streams
    without a race lifecycle get one lane per domain. *)

val lane_label : int -> string
(** ["w3"] for worker lanes, ["d2"] for the per-domain lanes of a
    sequential stream. *)

val render : ?width:int -> ?gc:string -> view -> string
(** Render as a fixed-layout multi-line frame, each line clamped to
    [width] (default {!Progress.default_width}); [gc] is an optional
    pre-formatted gauge line (the CLI fills it from flight-recorder
    snapshots).  Ends with a newline. *)
