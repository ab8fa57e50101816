(** Structured search-event log.

    Where {!Trace} answers "where did the time go" and {!Metrics}
    "how much work was done", the event log answers "what happened, in
    what order": solver restarts with live counters, clause-database
    reductions with an LBD snapshot, per-cut interpolant extractions,
    engine phase transitions, and the lifecycle of a parallel race
    (worker spawn, bound dispatch, cancellation with its cause).  A run
    recorded with events enabled can be replayed after the fact — the
    [isr_obs] CLI reconstructs who won a portfolio race and why from
    nothing but this stream.

    Emission is built for the solver's cadence, not the propagation
    loop's: events are coarse (restarts, reductions, cuts, phases), so
    one mutex around a per-domain int buffer is cheap.  When no recorder
    is installed, {!emit} is a single flag test — guard the payload
    construction with {!enabled} at call sites and the disabled path
    allocates nothing.

    Events are packed into per-domain int arrays (strings interned into
    a shared table, in the spirit of the proof store's int framing) and
    merged deterministically on read by [(timestamp, domain id,
    per-domain sequence number)], so the same recording always replays
    in the same order. *)

val schema_version : int
(** Highest schema this reader understands; {!write_jsonl} stamps the
    {e lowest} version that covers the stream, so older readers keep
    loading recordings that use no newer feature.  Schema 2 added the
    [dead_lbd]/[dead_uses] arrays to {!kind.Reduce}; schema-1 streams
    still load (the arrays decode as empty).  Schema 3 added the
    [Exhausted] cause (and a clause-sharing ["share"] event, since
    removed); schema 4 added the engine-kernel {!kind.Step} record —
    readers skip lines they do not know (unknown events and causes
    decode as [None]), so schema-3 ["share"] lines load as nothing. *)

type cause =
  | Race_won   (** a racing worker published a definitive verdict *)
  | Deadline   (** the wall-clock or conflict budget expired *)
  | Min_depth  (** a shallower counterexample made the bound doomed *)
  | Exhausted  (** the worker ran out of work (its whole member slate
                   answered bound-limited) before any budget expired *)

type kind =
  | Restart of { conflicts : int; decisions : int; learnt : int }
      (** solver restart, with the live in-call counters *)
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
  | Phase of { phase : string; step : int; detail : string }
      (** engine phase transition (bound advance, frame push,
          refinement); [step] is [-1] when the phase has no index *)
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
  seq : int;   (** per-domain sequence number, assigned at emission *)
  kind : kind;
}

(* --- recording ------------------------------------------------------- *)

type recorder

val recorder : unit -> recorder

val set_recorder : recorder -> unit
(** Install [r] as the global recorder; {!emit} appends to it from any
    domain. *)

val clear_recorder : unit -> unit

val set_tap : (ts:float -> dom:int -> kind -> unit) -> unit
(** Install a second consumer fed every emission (after the recorder,
    same timestamp and domain stamp).  The flight recorder's ring
    buffers hang off this hook; installing a tap also turns {!enabled}
    on, so guarded call sites start constructing payloads.  The tap is
    called outside any lock — it must synchronise internally. *)

val clear_tap : unit -> unit

val enabled : unit -> bool
(** One flag read; call sites guard payload construction with this so
    the disabled path costs nothing.  True when a recorder or a tap (or
    both) is installed. *)

val emit : kind -> unit
(** Record one event, stamped with the current clock and domain, into
    the recorder and/or tap.  With neither installed the event is
    counted as dropped and otherwise ignored. *)

val dropped : unit -> int
(** Emissions that found no consumer installed (a call site skipped its
    {!enabled} guard, or consumers were torn down mid-run).  Surfaced by
    {!Resource} as the [obs.dropped] gauge together with flight-ring
    evictions. *)

val events : recorder -> t list
(** Decode and deterministically merge every domain's stream: sorted by
    [(ts, dom, seq)], each domain's own order preserved. *)

val count : recorder -> int

(* --- JSONL ----------------------------------------------------------- *)

val json_of_event : t -> string
(** One JSON object, single line. *)

val write_jsonl : recorder -> out_channel -> unit
(** Header line (the lowest schema version covering the stream's
    features) followed by one line per merged event. *)

val event_of_json : Json.t -> t option
(** Inverse of {!json_of_event}; [None] for header or foreign lines. *)

val read_jsonl : string -> t list
(** Load an exported stream back.  Unknown lines are skipped; a header
    with an unsupported schema version fails.
    @raise Failure on unreadable files or version mismatch. *)

val to_chrome : t list -> string
(** Render a merged stream as a Chrome trace-event JSON document
    (instant events, one lane per domain). *)
