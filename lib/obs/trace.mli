(** Nested span tracing on the monotonic clock.

    Spans are one kind of traffic on the {!Event} channel: [span] posts
    a begin/end pair to every subscribed consumer that reads spans (the
    {!Profile} collector, the {!Chrome} writer).  With none subscribed
    the fast path is a single flag test — [span] calls its thunk
    directly and allocates nothing.

    Span arguments are pre-rendered [(key, value)] string pairs; end
    arguments are supplied as a thunk that only runs when tracing is
    enabled, so instrumentation sites pay nothing for building counter
    deltas in the common disabled case. *)

type args = Event.args

type event = Event.span =
  | Begin of { name : string; ts : float; tid : int; args : args }
  | End of { ts : float; tid : int; args : args }
(** [tid] is the integer id of the emitting domain ({!Domain.self}). *)

val enabled : unit -> bool
(** True when a subscribed consumer reads spans ({!Event.spans_enabled}).
    Callers may use this to guard expensive argument construction. *)

val span : ?args:args -> ?end_args:(unit -> args) -> string -> (unit -> 'a) -> 'a
(** [span name f] brackets [f ()] in a begin/end pair.  [end_args] is
    evaluated after [f] returns normally; when [f] raises, the end event
    carries the exception name instead and the exception is re-raised.
    With tracing disabled this is exactly [f ()]. *)

val set_sink : Event.consumer -> unit
(** Subscribe one consumer (usually a {!Profile.collector}) to the
    channel; {!clear_sink} unsubscribes it again. *)

val clear_sink : unit -> unit
(** Unsubscribe the consumer of the last {!set_sink}, if any. *)
