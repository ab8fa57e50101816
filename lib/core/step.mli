(** The step-wise engine kernel.

    Every engine exposes its verification loop in the given-clause
    shape: an explicit state ['st], an [init] that builds it without
    solving anything, and a [step] that performs one bounded unit of
    work — one BMC depth, one interpolation-sequence bound or column
    inclusion test, one k-induction depth, one PDR obligation round or
    frame propagation — and answers a final verdict or [None] to go on.
    Engines are packaged existentially, so heterogeneous engines compose
    under one scheduler ({!Sched}) and one driver ({!drive}).  The
    kernel owns the run around the search: it creates the {!run} (limits,
    budget, stats), and every step goes through the same bound cap,
    budget guard and finish ({!step}), so an engine is its search alone.

    Step granularity is the preemption and checkpoint granularity: a
    state is snapshotable at {e every} moment because the fields a
    {!engine.snapshot} reads are only replaced wholesale at bound
    boundaries (snapshots capture the entry of the current bound, and a
    resumed run re-does that bound from scratch — deterministic, so the
    interrupted-then-resumed run reproduces the uninterrupted verdict,
    convergence depths and certificate). *)

open Isr_model

type status = Running | Done of (Verdict.t * Verdict.stats)

(** What the kernel sets up for one run of an engine, before the
    engine's [init] or [restore] sees it. *)
type run = {
  model : Model.t;
  limits : Budget.limits;
  budget : Budget.t;  (** started by {!start} or {!restore} *)
  stats : Verdict.stats;  (** the run's fresh registry *)
}

type 'st engine = {
  name : string;
      (** the {!Engine.name} spelling — recorded in checkpoints and
          [Event.Step] records *)
  init : run -> 'st;  (** allocate the state; must not solve *)
  step : 'st -> Verdict.t option;
      (** one unit of work; [Some v] ends the run with [v].  Budget
          exhaustion, the bound cap, the run's time and its stats are
          the kernel's business (see {!step}). *)
  at_end : 'st -> unit;
      (** called once, when the run's verdict is final however it came
          (the engine's own, budget exhaustion or the bound cap): writes
          gauges that describe the state a run ends in.  Only a run that
          ends writes them — a lane that loses a race reports none.
          [ignore] for engines without such gauges. *)
  bound : 'st -> int;
      (** current bound/round, for the bound cap, events and meta *)
  snapshot : 'st -> string;
      (** marshalled pure-data payload describing the entry of the
          current bound; valid whatever the in-step progress *)
  restore : run -> string -> 'st;
      (** rebuild a state from a payload on a fresh model (possibly in a
          fresh process); inverse of [snapshot] up to re-doing the
          current bound *)
}

type packed = Packed : 'st engine -> packed

val cex_depth : Model.t -> k:int -> Trace.t -> int
(** The depth a counterexample found at bound [k] is reported at: its
    first bad frame, else [k]. *)

(** {1 Instances} *)

type inst
(** A started engine: its run, packed state, step counter and lane
    stamp. *)

val start :
  ?lane:int -> ?limits:Budget.limits -> ?cancel:bool Atomic.t -> packed -> Model.t -> inst
(** Creates the {!run} — the budget starts ticking here, under [cancel]
    when given ({!Budget.start}) — then the engine's [init].  The
    instance may be stepped from any domain, one at a time. *)

val name : inst -> string
val lane : inst -> int
val steps_done : inst -> int
val bound : inst -> int
val stats : inst -> Verdict.stats
val status : inst -> status

val step : inst -> status
(** Execute one step (no-op once [Done]).  A bound past the limits'
    [bound_limit] answers [Unknown (Bound_limit _)] without calling the
    engine; {!Budget.Out_of_time} / {!Budget.Out_of_conflicts} from the
    engine's step answer [Unknown] with the matching reason, while
    {!Budget.Cancelled} propagates.  Either way the step counts.  A final
    verdict stamps the run's time and comes paired with the run's stats.
    When events are enabled, every executed step emits a schema-4
    [Event.Step] record — the stream from which [isr_obs steps]
    reconstructs and {!Sched.run} re-drives an interleaving. *)

(** {1 Checkpoint / resume} *)

val snapshot : inst -> Checkpoint.t
(** The instance's checkpoint.  Its [elapsed] covers every session: a
    restored instance adds the restored checkpoint's [elapsed] to the
    time of its own budget. *)

val restore :
  ?lane:int ->
  ?limits:Budget.limits ->
  ?cancel:bool Atomic.t ->
  packed ->
  Model.t ->
  Checkpoint.t ->
  inst
(** @raise Invalid_argument when the checkpoint's engine spelling or
    model signature do not match. *)

val request_checkpoint : unit -> unit
(** Signal-handler-safe: raise a flag that makes the next {!drive} step
    boundary (or its [Budget.Cancelled] unwind) write the checkpoint
    and exit 143.  Pair it with setting the instance's cancel token
    ({!start}'s [cancel]) so an in-flight SAT call aborts promptly. *)

val checkpoint_requested : unit -> bool

(** {1 Driving} *)

val drive : ?checkpoint:string -> inst -> Verdict.t * Verdict.stats
(** Run to completion: [Step.drive (Step.start …)] is how every single
    engine runs ({!Engine.run}, {!Bmc.run}).  Attaches the instance's
    metrics registry for the duration (GC/RSS accounting, as before).

    With [checkpoint]: a [Done (Unknown _)] verdict (budget or bound
    exhaustion) writes the checkpoint before returning, and a
    {!request_checkpoint} flag — SIGTERM — is honoured at the next step
    boundary or budget-poll unwind: checkpoint written, flight recorder
    dumped (when armed), process exits 143. *)
