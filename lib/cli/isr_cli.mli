(** The command-line session shared by [itpseq_mc verify] and every
    [isr-bench] command that runs engines.

    It owns each flag the front ends have in common — the budget
    ([--time], [--bound], [--conflicts], with the caller's defaults), the
    sanitizer level ([--check]) and the observability outputs
    ([--trace], [--metrics], [--ledger], [--profile], [--progress],
    [--flight]) — and one bracket, {!run}, that turns them into a live
    session: it sets the level, opens every output file, subscribes the
    Chrome writer, the profile collector, the heartbeat reporter and any
    extra consumer the caller passes to the {!Isr_obs.Event} channel,
    arms the flight recorder, and closes all of it on return, on raise
    and in the [at_exit] path a SIGTERM checkpoint exit takes.  A command
    that does not take a flag gets the flag's off value. *)

(** {1 Budget} *)

type budget = { time : float; bound : int; conflicts : int }

val bound : int -> int Cmdliner.Term.t
(** [--bound] with the given default. *)

val conflicts : int -> int Cmdliner.Term.t
(** [--conflicts] with the given default. *)

val budget : time:float -> bound:int -> conflicts:int -> budget Cmdliner.Term.t
(** [--time], [--bound] and [--conflicts] with the given defaults.  Each
    of the three refuses a value below 0 as the command line is read,
    with an error that names the flag. *)

val limits : ?reduce:Isr_sat.Solver.reduce_policy -> budget -> Isr_core.Budget.limits
(** The engine limits of a budget; [reduce] defaults to
    {!Isr_sat.Solver.default_reduce}. *)

val config : budget -> (string * string) list
(** The budget's fields of the ledger's configuration fingerprint. *)

(** {1 Observability flags} *)

type obs = {
  check : Isr_check.level;
  trace : string option;
  metrics : string option;
  ledger : string option;
  profile : bool;
  progress : Isr_obs.Progress.mode option;
  flight : int option;  (** ring capacity; [Some 0] is the default capacity *)
}

val obs :
  ?metrics:bool -> ?ledger:bool -> ?profile:bool -> ?progress:bool -> ?flight:bool ->
  unit -> obs Cmdliner.Term.t
(** [--check] and [--trace], plus each flag whose argument is [true]
    (all default to [false]). *)

(** {1 The session} *)

type t

val run :
  tool:string ->
  ?config:(string * string) list ->
  ?collect_profile:bool ->
  ?consumers:(Isr_obs.Event.consumer * (unit -> unit)) list ->
  obs ->
  (t -> 'a) ->
  'a
(** [run ~tool obs body] runs [body] inside the session.  [config] is
    fingerprinted into every ledger entry.  A profile is collected under
    [--profile] or when [collect_profile].  Each of [consumers] is
    subscribed with the others and its closer runs with theirs.  The
    flight recorder dumps into the ledger's [events/] directory when
    [--ledger] is given, else into the working directory, and dumps when
    [body] raises.  An output file that cannot be opened exits 2 with
    ["tool: message"] on stderr before [body] runs. *)

val finish : t -> Isr_obs.Profile.node option
(** End the observed region: unsubscribe every consumer, end the
    heartbeats and disarm the flight recorder.  Returns the collected
    profile.  Idempotent; {!run} calls it when [body] returns or raises. *)

val record :
  t -> ?events_path:string -> ?profile_path:string -> Isr_exp.Runner.record ->
  Isr_obs.Ledger.entry option
(** Record one engine run: project it once ({!Isr_exp.Runner.entry}),
    write that as a [--metrics] line and append it to the [--ledger].
    Returns the stored ledger entry.  Without either flag nothing is
    projected. *)

val ledger : t -> Isr_obs.Ledger.t option

val fail : tool:string -> string -> 'a
(** Print ["tool: message"] on stderr and exit 2. *)
