(** Rate-limited live progress heartbeats.

    Heartbeats are rendered from search records on the {!Event}
    channel: engines post a {!Event.kind.Phase} at natural advancement
    points (a BMC/ITPSEQ bound finished, a PDR frame pushed, a CBA
    refinement, a suite run started) with the run's cumulative
    conflict/propagation/learnt-clause counters, and the solver a
    {!Event.kind.Restart} (with its live counters) or an
    {!Event.kind.Reduce}.  A reporter subscribed through {!consumer}
    renders at most one line per [interval] seconds:

    - [Tty]: a single line rewritten in place ([\r] + erase);
    - [Plain]: one full line per accepted heartbeat (piped output);
    - [Jsonl]: one JSON object per accepted heartbeat.

    Every accepted heartbeat also calls {!Resource.sample}, so GC
    gauges advance with the heartbeat cadence even when tracing is off. *)

type tick = {
  phase : string;        (** e.g. ["bmc.bound"], ["pdr.frame"], ["sat.restart"] *)
  step : int option;     (** bound k, frame number, run index… *)
  total : int option;    (** when the number of steps is known (suite runs) *)
  detail : string;       (** free-form, e.g. ["vending11/itpseq"] *)
  conflicts : int;       (** cumulative, from the run's registry *)
  propagations : int;
  learnt : int;
}

val mk_tick :
  ?step:int ->
  ?total:int ->
  ?detail:string ->
  ?conflicts:int ->
  ?propagations:int ->
  ?learnt:int ->
  string ->
  tick

type mode = Tty | Plain | Jsonl

type reporter

val default_width : unit -> int
(** The terminal width TTY rewrites are clamped to: [$COLUMNS], falling
    back to 80 (absent or nonsense values, as on most CI runners).  Also
    the default frame width of {!Dash.render}. *)

val make :
  ?clock:(unit -> float) ->
  ?interval:float ->
  ?width:int ->
  mode:mode ->
  (string -> unit) ->
  reporter
(** [make ~mode write] builds a reporter over a line consumer.  [clock]
    (default {!Clock.now}) drives the rate limit and elapsed column;
    [interval] defaults to 1 s.  [width] bounds TTY rewrites (clamped to
    [width - 1] so the line never auto-wraps and leaves stale rows
    behind); it defaults to [$COLUMNS], falling back to 80. *)

val emit : reporter -> tick -> bool
(** Render if at least [interval] elapsed since the last rendered
    heartbeat (the first always renders).  Returns whether it did. *)

val force : reporter -> tick -> unit
(** Render unconditionally. *)

val finish : reporter -> unit
(** Terminate a pending TTY line with a newline; no-op otherwise. *)

val emitted : reporter -> int
(** Heartbeats rendered so far. *)

val consumer : reporter -> Event.consumer
(** The reporter's subscription: it reads search records and {!emit}s
    one heartbeat per [Phase] (rendered as itself), [Restart] (as
    ["sat.restart"]) and [Reduce] (as ["sat.db.reduce"], its survivors
    as the step); other records are not heartbeats. *)

val auto_mode : ?fd:Unix.file_descr -> unit -> mode
(** [Tty] when [fd] (default stderr) is a terminal, [Plain] otherwise —
    the [--progress auto] policy of the CLIs. *)

val to_stderr : ?clock:(unit -> float) -> ?interval:float -> ?width:int -> mode -> reporter
(** A reporter writing to stderr, as the CLIs' [--progress] subscribes
    it (through {!consumer}) for the run and {!finish}es it after. *)
