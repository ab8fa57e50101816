(** Append-only proof store, decoupled from the solver's clause database.

    The solver's in-memory clause database holds only what propagation
    needs (literals, LBD, activity) and may delete learned clauses;
    everything proof-shaped — input tags, resolution chains, deletion
    events — lives here, packed into pages of integers.  Step ids are
    assigned by append order and are {e stable}: they never move when the
    clause database compacts, so they are the id space of
    {!Proof.t}, of LRAT exports, and of the unsat-core-to-latch mapping
    in [Isr_model.Unroll].

    Layout (one record per step, at the page and offset that
    [index.(id)] encodes; see {!Proof.of_packed}):
    {v
      input:    [-(tag+1); nlits; lit...]
      derived:  [first;    nlits; lit...; nchain; pivot; aid; ...]
    v}
    The head word disambiguates: tags are [>= 0] so the input marker is
    [<= -1], while a derived step's [first] antecedent id is [>= 0].
    A record never straddles two pages.  Pages are opened on demand:
    the first holds 256 words and each later one twice its
    predecessor's length, up to {!page_words} (so a small log costs what
    one growing array would); a record that does not fit the current
    page opens the next, and one longer than that page gets a page of
    its own length.  No record is ever copied.
    Deletion events are [(pos, id)] pairs in a side array, where [pos]
    is the number of steps that existed when the deletion happened.
    {!Proof} reads these records in place through {!view}: this layout
    is the contract between the two modules. *)

type t

val page_words : int
(** Words in a full page: [1 lsl Proof.page_bits]. *)

val create : ?record:bool -> unit -> t
(** With [record = false] (default [true]) the log only hands out step
    ids: nothing is stored, {!bytes} stays 0, deletions are ignored, and
    {!tag} and {!view} raise [Invalid_argument].  For
    solvers whose answers are never justified by a proof. *)

val recording : t -> bool

val n_steps : t -> int
(** Number of steps appended so far (= the next id to be assigned). *)

val n_inputs : t -> int
(** Number of input steps appended so far. *)

val n_deletions : t -> int
(** Number of deletion events recorded so far. *)

val bytes : t -> int
(** Footprint of the log in bytes: the words of every record, one index
    word per step and two words per deletion event — the quantity
    behind the ["proof.bytes"] gauge.  Unused page tails do not count,
    so the figure does not depend on the page size. *)

val reserve_steps : t -> int -> unit
(** [reserve_steps t n] sizes the step index for [n] more steps at once.
    Capacity only; a log that records nothing ignores it.
    @raise Invalid_argument when [n < 0]. *)

val add_input : t -> tag:int -> Lit.t array -> int
(** Appends an input clause ([tag >= 0]) and returns its step id.
    The literal array is copied at append time. *)

val add_derived : t -> lits:Lit.t array -> first:int -> chain:Vec.t -> int
(** Appends a derived clause with its trivial resolution chain and
    returns its step id.  [chain] holds the resolution steps in order,
    flattened as [pivot; antecedent id; pivot; antecedent id; ...]; it is
    copied, so the caller may reuse it. *)

val delete : t -> int -> unit
(** Records a database deletion event for the given step id.  The step
    itself stays in the log — deletion only marks the point in the step
    sequence after which the clause left the solver's database. *)

val tag : t -> int -> int
(** Partition tag of an input step; [-1] for derived steps. *)

val view : t -> empty:int -> nvars:int -> Proof.t
(** The log as a {!Proof.t} rooted at the [empty] step, without copying
    a record: the view shares the log's pages, step index and deletion
    events, holds its own copy of the page table, and covers the steps
    and deletion events recorded so far.  Appending afterwards never
    changes what the view reads: new records land in page space the
    view does not reach (above its extent in the current page, or in
    pages opened later), and the step index and the deletion events are
    written past the view's extent or, when full, grow into fresh
    arrays, leaving the view's ones as they were.
    @raise Invalid_argument when [empty] is not a step id. *)
