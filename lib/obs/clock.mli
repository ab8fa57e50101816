(** The single time base of the observability layer: wall-clock seconds
    since process start, clamped to be monotonically non-decreasing so
    spans and budgets survive NTP adjustments.  Every engine, the budget
    enforcement and the event channel read this clock — CPU time
    ([Sys.time]) is reserved for nothing anymore, so per-engine timings
    and the deadline agree with each other. *)

val now : unit -> float
(** Seconds since the process started, never decreasing. *)

val now_us : unit -> float
(** Same instant in microseconds (the unit of Chrome trace events). *)
