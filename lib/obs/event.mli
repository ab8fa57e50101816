(** The one instrumentation channel.

    Every observation of a run leaves through this module: timed spans
    (begin/end pairs, posted by {!Trace.span}), and search records —
    solver restarts with live counters, clause-database reductions with
    an LBD snapshot, per-cut interpolant extractions, engine phase
    transitions (which double as progress heartbeats), and the lifecycle
    of a parallel race (worker spawn, bound dispatch, cancellation with
    its cause).  Each fact is posted once, to one list of {!consumer}s:
    the {!recorder}, the flight rings, the {!Profile} collector,
    the {!Chrome} writer and the {!Progress} reporter all subscribe to
    the same list.

    Two flags, both derived from that list, say whether anyone listens:
    {!Trace.enabled} (a consumer reads spans) and {!enabled} (a consumer
    reads search records).  Call sites guard payload construction with
    them, so a run with nobody listening pays one flag test per site and
    allocates nothing, and a run that only profiles spans never builds a
    search payload.

    Dispatch takes no lock: each consumer synchronises itself, because
    records arrive from every racing domain at once.  The recorder and
    the flight rings keep records in one {!Store}: a log of {!t} values
    per domain, merged deterministically on read by [(timestamp, domain
    id, per-domain sequence number)], so the same recording always
    replays in the same order. *)

val schema_version : int
(** Highest schema this reader understands; {!write_jsonl} stamps the
    {e lowest} version that covers the stream, so older readers keep
    loading recordings that use no newer feature.  Schema 2 added the
    [dead_lbd]/[dead_uses] arrays to {!kind.Reduce}; schema-1 streams
    still load (the arrays decode as empty).  Schema 3 added the
    [Exhausted] cause (and a clause-sharing ["share"] event, since
    removed); schema 4 added the engine-kernel {!kind.Step} record —
    readers skip lines they do not know (unknown events and causes
    decode as [None]), so schema-3 ["share"] lines load as nothing.
    Fields added since ([propagations] on {!kind.Restart}; [total] and
    the cumulative counters on {!kind.Phase}) are optional: older lines
    without them decode with the defaults, older readers ignore them,
    and no header version changes. *)

type cause =
  | Race_won   (** a racing worker published a definitive verdict *)
  | Deadline   (** the wall-clock or conflict budget expired *)
  | Min_depth  (** a shallower counterexample made the bound doomed *)
  | Exhausted  (** the worker ran out of work (its whole member slate
                   answered bound-limited) before any budget expired *)

val cause_name : cause -> string
(** The cause's spelling in JSONL streams (["winner"], ["deadline"],
    ["min-depth"], ["exhausted"]). *)

type kind =
  | Restart of { conflicts : int; decisions : int; learnt : int; propagations : int }
      (** solver restart: the run's cumulative [conflicts] and
          [propagations], and the solver's own decisions and live learnt
          clauses ([propagations] is 0 in streams older than the field) *)
  | Reduce of {
      kept : int;
      dropped : int;
      lbd : int array;
      dead_lbd : int array;
      dead_uses : int array;
    }
      (** learnt-database reduction; [lbd.(i)] counts surviving clauses
          of LBD [i] (last bucket: [>= length - 1]).  [dead_lbd] and
          [dead_uses] histogram the victims by LBD at death and by
          conflict-analysis uses before deletion (same bucket
          convention); both empty in schema-1 recordings. *)
  | Itp_cut of { cut : int; support : int; nodes : int }
      (** one extracted interpolant: cut index, support-variable count
          and AIG cone size *)
  | Phase of {
      phase : string;
      step : int;
      total : int;
      detail : string;
      conflicts : int;
      propagations : int;
      learnt : int;
    }
      (** engine phase transition (bound advance, frame push,
          refinement, suite position); [step] is [-1] when the phase has
          no index, [total] is [-1] unless the number of steps is known.
          The counters are the run's cumulative search effort at the
          transition (0 where the poster has none, and in streams older
          than the fields). *)
  | Spawn of { worker : int; engines : string }
      (** parallel race: worker domain spawned for these engines *)
  | Dispatch of { worker : int; bound : int }
      (** bound-parallel BMC: worker picked up this bound *)
  | Cancel of { worker : int; cause : cause; by : int }
      (** the causal cancellation edge: [worker] was cancelled by
          worker [by] for [cause] (self-edge for deadline expiry) *)
  | Verdict of { worker : int; verdict : string }
      (** a racing worker published the winning verdict *)
  | Analyze of {
      pass : string;
      ands_before : int;
      ands_after : int;
      latches_before : int;
      latches_after : int;
    }
      (** one static-analysis pass applied: model size before/after *)
  | Step of { lane : int; engine : string; n : int; pos : int; status : string }
      (** one engine-kernel step boundary: scheduler lane id, engine
          spelling, cumulative step count [n] for that instance, the
          engine's bound/round [pos] after the step, and the resulting
          status (["running"], ["proved"], ["falsified"], ["unknown"]).
          The per-domain sequence of lane ids reconstructs the exact
          interleaving, which the scheduler can re-drive verbatim. *)

type t = {
  ts : float;  (** monotonic {!Clock} time *)
  dom : int;   (** emitting domain ([Domain.self]) *)
  seq : int;   (** per-domain sequence number, in emission order *)
  kind : kind;
}

(* --- consumers --------------------------------------------------------- *)

type args = (string * string) list

type span =
  | Begin of { name : string; ts : float; tid : int; args : args }
  | End of { ts : float; tid : int; args : args }
(** A span boundary, re-exported as {!Trace.event}.  [tid] is the
    emitting domain ([Domain.self]); the Chrome writer renders one lane
    per domain and {!Profile} keeps one span stack per domain, so
    parallel runs stay well nested. *)

type consumer = {
  on_span : (span -> unit) option;
  on_record : (ts:float -> dom:int -> kind -> unit) option;
}
(** A reader of the channel: either callback may be absent.  Callbacks
    run on the emitting domain, possibly from several domains at once,
    so a consumer with state takes its own lock. *)

val subscribe : consumer -> unit
(** Add a consumer (subscribing one that is already there does nothing)
    and recompute both flags.  Subscribing and unsubscribing are
    single-domain affairs: do them before spawning workers. *)

val unsubscribe : consumer -> unit
(** Remove a consumer (by physical equality) and recompute both flags. *)

val enabled : unit -> bool
(** One flag read: true when a subscribed consumer reads search
    records.  Call sites guard payload construction with it. *)

val spans_enabled : unit -> bool
(** One flag read: true when a subscribed consumer reads spans
    ({!Trace.enabled}). *)

val emit : kind -> unit
(** Post one search record, stamped with the current clock and domain,
    to every consumer that reads records.  With none subscribed the
    record is counted as dropped and otherwise ignored. *)

val emit_span : span -> unit
(** Post one span boundary to every consumer that reads spans;
    {!Trace.span} builds them. *)

val replay : consumer -> t list -> unit
(** Feed recorded search records to a consumer, as if they were being
    emitted (used to export a stream to Chrome). *)

val dropped : unit -> int
(** Records emitted with no reader subscribed (a call site skipped its
    {!enabled} guard, or consumers were torn down mid-run).  Surfaced by
    {!Resource} as the [obs.dropped] gauge together with flight-ring
    evictions. *)

(* --- the per-domain store --------------------------------------------- *)

module Store : sig
  type event := t

  type t
  (** Per-domain logs of records, in emission order.  The store takes
      no lock: its owner guards it (the {!recorder} with its own mutex,
      {!Flight} with its state mutex). *)

  val create : ?capacity:int -> unit -> t
  (** An empty store.  Each domain's log grows as records arrive; with a
      [capacity] (at least 1) it keeps only that domain's last
      [capacity] records, overwriting the oldest.  Without one it keeps
      everything. *)

  val add : t -> ts:float -> dom:int -> kind -> unit
  (** Append one record to domain [dom]'s log, numbered by that log's
      count of records so far ([seq]); the timestamp is kept exactly. *)

  val events : t -> event list
  (** Every domain's live window, merged: sorted by [(ts, dom, seq)],
      each domain's own order preserved. *)

  val recorded : t -> int
  (** Records ever added. *)

  val evicted : t -> int
  (** Records overwritten because their domain's log was at capacity. *)

  val domains : t -> int
  (** Distinct domains that added a record. *)
end

(* --- recording ------------------------------------------------------- *)

type recorder
(** A {!Store} without a capacity, under its own lock. *)

val recorder : unit -> recorder

val recording : recorder -> consumer
(** The recorder's subscription: stores every search record under the
    recorder's own lock. *)

val events : recorder -> t list
(** Every domain's stream, merged as {!Store.events} does. *)

val count : recorder -> int
(** Records stored. *)

(* --- JSONL ----------------------------------------------------------- *)

val json_of_kind : kind -> string
(** The record's payload as one JSON object: the ["ev"] tag and its
    fields, without timestamp, domain or sequence number. *)

val json_of_event : t -> string
(** One JSON object, single line. *)

val write_jsonl : recorder -> out_channel -> unit
(** Header line (the lowest schema version covering the stream's
    features) followed by one line per merged event. *)

val event_of_json : Json.t -> t option
(** Inverse of {!json_of_event}; [None] for header or foreign lines, and
    for event lines missing a field the kind requires. *)

val read_jsonl : ?other:(Json.t -> unit) -> string -> t list
(** Load an exported stream back.  Lines that do not parse, or that lack
    a required field, are skipped; a header with an unsupported or
    missing schema version fails.  [other] sees every parsed line that
    is neither the header nor an event, in file order (how {!Flight.read}
    finds its meta and snapshot lines in the same pass).
    @raise Failure on unreadable files or a bad header, naming the file. *)
