(** The Chrome trace-event JSON writer.

    One writer renders the whole {!Event} channel for Perfetto
    (https://ui.perfetto.dev) or chrome://tracing: spans as [B]/[E]
    records and search records as thread-scoped instant ([i]) markers,
    one lane per domain.  It subscribes like any other consumer for a
    live [--trace] file, and [isr_obs export] replays a recorded stream
    through it ({!Event.replay}).

    Wire rules, all in this module: pid is always 1, the emitting domain
    id becomes thread id [dom + 1], timestamps convert from seconds to
    microseconds with one decimal, span arguments are escaped strings,
    and an instant carries its record's payload ({!Event.json_of_kind})
    as its ["json"] argument plus the ["s":"t"] scope Perfetto needs to
    draw it. *)

val writer : out_channel -> Event.consumer * (unit -> unit)
(** A consumer writing one JSON array to the channel, and the function
    that closes it: the first call terminates the array and closes the
    channel, later calls do nothing, and anything posted after the close
    is dropped.  The writer owns the channel and serialises posts from
    several domains under its own lock. *)
