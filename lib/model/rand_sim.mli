(** Bit-parallel random simulation: sequential frames over 64 packed
    executions, plus a cheap falsification front-end.

    Runs 64 executions at a time, packing one execution per bit of an
    [int64] word, and evaluates each frame as one compiled cone program
    ({!Isr_aig.Prog}) over the bad and next-state cones.  The same
    frames drive {!falsify}, semantic fingerprinting and the static
    analyzer's depth-0 witness search; Fraig's sweeping signatures run
    {!Isr_aig.Prog} directly. *)

val init64 : Model.t -> int64 array
(** Latch words broadcast from the initial values. *)

type frame64 = { bad : int64; next : int64 array }

val frame64 :
  ?latch_mask:(int -> bool) -> Model.t -> state:int64 array -> input:(int -> int64) ->
  frame64
(** One sequential frame over 64 packed executions: evaluates the bad
    cone and every next-state function (restricted to [latch_mask] when
    given; masked-out latches get [0L]).  Applied to the model alone,
    [frame64 ?latch_mask model] compiles the program once (reading
    [latch_mask] once per latch) and returns the per-frame function. *)

val falsify :
  ?rounds:int -> ?max_depth:int -> ?seed:int -> Model.t -> Trace.t option
(** [falsify model] runs [rounds] (default 16) batches of 64 random
    executions.  Each execution checks the bad state at depths 0 to
    [max_depth] (default 64), that is in [max_depth] + 1 frames, and the
    first hit becomes a concrete trace.  The returned trace always
    replays ({!Sim.check_trace}). *)
