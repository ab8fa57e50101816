(** Append-only proof store, decoupled from the solver's clause database.

    The solver's in-memory clause database holds only what propagation
    needs (literals, LBD, activity) and may delete learned clauses;
    everything proof-shaped — input tags, resolution chains, deletion
    events — lives here, packed into a flat integer arena.  Step ids are
    assigned by append order and are {e stable}: they never move when the
    clause database compacts, so they are the id space of
    {!Proof.t}, of LRAT exports, and of the unsat-core-to-latch mapping
    in [Isr_model.Unroll].

    Layout (one record per step at [index.(id)]):
    {v
      input:    [-(tag+1); nlits; lit...]
      derived:  [first;    nlits; lit...; nchain; pivot; aid; ...]
    v}
    The head word disambiguates: tags are [>= 0] so the input marker is
    [<= -1], while a derived step's [first] antecedent id is [>= 0].
    Deletion events are [(pos, id)] pairs in a side vector, where [pos]
    is the number of steps that existed when the deletion happened. *)

type t

val create : ?record:bool -> unit -> t
(** With [record = false] (default [true]) the log only hands out step
    ids: nothing is stored, {!bytes} stays 0, deletions are ignored, and
    {!is_input}, {!tag} and {!to_proof} raise [Invalid_argument].  For
    solvers whose answers are never justified by a proof. *)

val recording : t -> bool

val n_steps : t -> int
(** Number of steps appended so far (= the next id to be assigned). *)

val n_inputs : t -> int
(** Number of input steps appended so far. *)

val n_deletions : t -> int
(** Number of deletion events recorded so far. *)

val bytes : t -> int
(** Current footprint of the packed arena in bytes (payload + index +
    deletion events) — the quantity behind the ["proof.bytes"] gauge. *)

val add_input : t -> tag:int -> Lit.t array -> int
(** Appends an input clause ([tag >= 0]) and returns its step id.
    The literal array is copied at append time. *)

val add_derived : t -> lits:Lit.t array -> first:int -> chain:(int * int) list -> int
(** Appends a derived clause with its trivial resolution chain (in
    resolution order) and returns its step id. *)

val delete : t -> int -> unit
(** Records a database deletion event for the given step id.  The step
    itself stays in the log — deletion only marks the point in the step
    sequence after which the clause left the solver's database. *)

val is_input : t -> int -> bool

val tag : t -> int -> int
(** Partition tag of an input step; [-1] for derived steps. *)

val to_proof : ?trim:bool -> t -> empty:int -> nvars:int -> Proof.t
(** Materializes the log as a {!Proof.t} rooted at the [empty] step.
    With [trim] (the default), derived steps outside the used cone of
    [empty] become {!Proof.Trimmed} placeholders; input steps are always
    materialized because interpolation labels variables over {e all}
    input clauses.  Deletion events are carried over verbatim. *)
