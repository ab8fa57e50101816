(** GC/memory accounting for verification runs.

    [attach reg] pushes a registry onto the attachment stack; while any
    registry is attached, {!sample} (called at attach and detach and by
    the heartbeat reporter at every rendered heartbeat) folds a
    [Gc.quick_stat] into the innermost registry:

    - [gc.heap_words] (gauge) — current major-heap words
    - [gc.peak_heap_words] (gauge, max-kept) — the run's heap high-water mark
    - [gc.minor_words] (counter) — words allocated in the minor heap
    - [gc.minor_collections] / [gc.major_collections] (counters)
    - [gc.minor_alloc_rate] (gauge) — minor words per second since attach

    The stack nests: a portfolio member's registry attaches inside the
    portfolio's, and samples land in the innermost one.  Engines wrap
    their run in {!with_attached}, which also samples once on entry and
    once on exit so short runs still get their final figures. *)

val attach : ?clock:(unit -> float) -> Metrics.t -> unit
(** Push a registry and take an initial sample.  [clock] (default
    {!Clock.now}) only feeds the allocation-rate gauge. *)

val detach : unit -> unit
(** Final sample into the innermost registry, then pop it. *)

val with_attached : ?clock:(unit -> float) -> Metrics.t -> (unit -> 'a) -> 'a
(** [attach]/[detach] bracket, exception-safe. *)

val attached : unit -> bool

val sample : unit -> unit
(** Fold one [Gc.quick_stat] into the innermost attached registry; no-op
    when nothing is attached. *)
