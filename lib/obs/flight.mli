(** Flight recorder: always-on, constant-memory forensics for runs that
    never reach a clean verdict.

    The ledger and the event log explain a run after it finishes; the
    runs that most need explaining — timeouts, sanitizer violations,
    hung parallel races, kill -9'd batch jobs — are exactly the ones
    that never flush a stream.  The flight recorder closes that gap: the
    rings, an {!Event.Store} with a capacity subscribed to the {!Event}
    channel, keep only the most recent [capacity] events per domain
    (plus periodic GC counter snapshots), costing a bounded amount of
    memory no matter how long the run.  Records keep their exact
    timestamps, as in the {!Event.recorder}, so a dump's event lines are
    the [--events] file's lines for the same records.  On {!Budget}
    expiry, a sanitizer violation, an uncaught exception, or
    [SIGUSR1]/[SIGTERM], the merged rings are dumped as a
    schema-versioned [flight.jsonl] into the run directory — a forensic
    trail of the last seconds instead of nothing.

    Disabled cost: arming subscribes the rings, which read search
    records only, so {!Event.enabled} turns on and guarded call sites
    start paying the (cheap, coarse) emission cost; when not armed the
    fast path is the same single flag read as before and nothing
    allocates.

    Dump files are torn-tail-safe: written to a temporary sibling and
    renamed into place, so a dump interrupted by a second signal leaves
    either the previous complete file or none — never a torn one.  The
    file is a valid {!Event} JSONL stream (same header, loadable with
    {!Event.read_jsonl} and [isr_obs top]) with one extra [flight] meta
    line and interleaved [snap] GC-snapshot lines, which event readers
    skip. *)

type meta = {
  reason : string;      (** why the dump happened ("sigusr1", "budget.time", ...) *)
  recorded : int;       (** events ever offered to the rings *)
  evicted : int;        (** events overwritten by ring wrap-around *)
  capacity : int;       (** per-domain ring capacity *)
  domains : int;        (** distinct emitting domains seen *)
}

type snap = {
  s_ts : float;            (** when the snapshot was taken ({!Clock} time) *)
  heap_words : int;        (** major heap size, in words *)
  minor_words : float;     (** words allocated in the minor heap so far *)
  minor_collections : int;
  major_collections : int;
}
(** One periodic GC counter snapshot (a dump's [snap] lines). *)

val default_capacity : int
(** Per-domain ring capacity used when [arm] is not given one (256). *)

val arm : ?capacity:int -> dir:string -> unit -> unit
(** Start recording: subscribe the rings to the {!Event} channel and set
    the signal handlers' target state.  Dumps land in [dir ^ "/flight.jsonl"].  Re-arming
    replaces any previous state. *)

val consumer : Event.consumer
(** The rings' subscription, which {!arm} subscribes: it stores each
    record in the armed rings (and does nothing while disarmed). *)

val disarm : unit -> unit
(** Stop recording and unsubscribe the rings.  Does not dump. *)

val armed : unit -> bool

val recorded : unit -> int
(** Events offered to the rings since [arm] (0 when disarmed). *)

val evicted : unit -> int
(** Events lost to ring wrap-around since [arm] — the flight recorder's
    contribution to the [obs.dropped] gauge. *)

val events : unit -> Event.t list
(** Current merged ring contents, ordered by [(ts, dom, seq)] with each
    domain's own emission order preserved ([seq] is the per-domain
    emission index, so wrap-around keeps ordering honest). *)

val dump : reason:string -> unit -> string option
(** Write the merged rings to [flight.jsonl] in the armed directory and
    return its path; [None] when disarmed.  Atomic rename; safe to call
    repeatedly (repeated dumps with the same reason are throttled to one
    per second — budget expiry re-raises through every engine layer). *)

val poll : unit -> unit
(** Honour a dump requested from a signal handler that could not take
    the ring lock.  One flag read when idle; engines call this from
    their cancellation-poll hooks. *)

val install_signals : unit -> unit
(** Route [SIGUSR1] (dump and continue) and [SIGTERM] (dump, then exit
    143) to the flight recorder.  Handlers never block: they request a
    dump and attempt it with [Mutex.try_lock]; a contended lock defers
    to the next {!poll}. *)

val guard : (unit -> 'a) -> 'a
(** Run a thunk; if it raises while armed, dump with reason
    ["exception:<name>"] and re-raise.  Wrap engine entry points so an
    uncaught exception leaves a trail. *)

val read : string -> meta option * snap option * Event.t list
(** Load a dump back in one pass: the [flight] meta line, the last GC
    snapshot (each [None] when absent, as in a plain event stream) and
    the events, via {!Event.read_jsonl}.
    @raise Failure on unreadable files or schema mismatch. *)
