(** Resolution proofs produced by the solver on unsatisfiable instances.

    Clauses are numbered by creation order: every antecedent of a derived
    clause has a smaller id, so a single in-order pass suffices to compute
    any inductive attribute of the proof (interpolants in particular).

    A derived clause records a {e trivial resolution chain}: starting from
    clause [first], each [(pivot, id)] pair resolves the running resolvent
    with clause [id] on variable [pivot].  The final resolvent equals the
    derived clause (as a set of literals).  The last step of the proof
    derives the empty clause.

    A proof is a read-only {e view} of the solver's paged, append-only
    {!Proof_log}: it shares the log's pages and fixes the step count when
    it is made, so nothing is copied.  The view stays valid while the log
    grows: a page is never written below its fill, the log appends only
    above the view's extent, and the arrays that do grow (the step index,
    the deletion events, the first page until it reaches full size) are
    copied into fresh ones, so every record the view can reach is
    frozen.  The accessors read the log's records in place; {!step}
    builds one step as a value, for tests and cold paths.

    Every step of the log is reachable through the view, used or not.
    Interpolation labels variables by their occurrences across {e all}
    input clauses, so inputs outside the used cone still matter; derived
    steps outside it never do, and {!used} lists the ones that do. *)

type t

val page_bits : int
(** Pages hold at most [1 lsl page_bits] words (the first one fewer
    while it grows), except one opened for a single longer record. *)

val address : page:int -> offset:int -> int
(** A record's address: its page and its offset there, packed in one
    int.  The offset must be below [1 lsl page_bits]. *)

val page_of : int -> int
(** The page of an {!address}. *)

val offset_of : int -> int
(** The offset of an {!address} in its page. *)

val of_packed :
  index:int array ->
  pages:int array array ->
  nsteps:int ->
  deletions:int array ->
  ndeletions:int ->
  empty:int ->
  nvars:int ->
  t
(** The view behind {!Proof_log.view}: steps [0 .. nsteps - 1] laid out
    as {!Proof_log} describes, step [id]'s record whole within page
    [pages.(page_of index.(id))] from offset [offset_of index.(id)], and [ndeletions] flattened
    [(pos, id)] pairs in [deletions].  The arrays are shared, not copied
    (the page table excepted, which the view owns): the caller must
    never write them below these extents.
    @raise Invalid_argument when [empty] is not a step id. *)

val n_steps : t -> int
(** Steps in the view: ids are [0 .. n_steps - 1]. *)

val empty : t -> int
(** Id of the (derived or input) empty clause. *)

val nvars : t -> int
(** Number of variables in the instance. *)

(** {2 Reading steps in place} *)

val is_input : t -> int -> bool

val tag : t -> int -> int
(** Partition tag of an input step (0 when untagged); [-1] for a derived
    step. *)

val nlits : t -> int -> int

val lit : t -> int -> int -> Lit.t
(** [lit p id k] is the [k]-th literal of step [id], [0 <= k < nlits]. *)

val lits : t -> int -> Lit.t array
(** A fresh copy of the literals of step [id]. *)

val fold_lits : t -> int -> ('a -> Lit.t -> 'a) -> 'a -> 'a
(** [fold_lits p id f acc] folds [f] over the literals of step [id] in
    order. *)

val first : t -> int -> int
(** First antecedent of a derived step. *)

val chain_length : t -> int -> int
(** Resolutions in the chain of a derived step. *)

val pivot : t -> int -> int -> int
(** [pivot p id k]: the pivot variable of the [k]-th resolution. *)

val antecedent : t -> int -> int -> int
(** [antecedent p id k]: the clause id resolved in at the [k]-th
    resolution. *)

val fold_chain : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a
(** [fold_chain p id f acc] folds [f acc pivot antecedent] over the
    resolution chain of derived step [id], in resolution order. *)

type step =
  | Input of { lits : Lit.t array; tag : int }
      (** An original clause with its partition tag (0 when untagged). *)
  | Derived of { lits : Lit.t array; first : int; chain : (int * int) array }
      (** A learned clause: [chain] is an array of [(pivot_var, clause_id)]. *)

val step : t -> int -> step
(** Step [id] built as a value. *)

val tag_range : t -> int * int
(** Smallest and largest partition tag among input clauses. *)

val var_tag_ranges : t -> int array * int array
(** [(minp, maxp)]: for every variable, the smallest and the largest tag
    of an input clause it occurs in ([max_int] and [0] when it occurs in
    none). *)

val n_deletions : t -> int
(** Database deletion events in the view.  Event [(pos, id)] says clause
    [id] left the solver's clause database when [pos] steps existed —
    between the creation of steps [pos - 1] and [pos].  Deleted clauses
    remain valid proof steps (the log is append-only); the events only
    gate {!to_lrat}'s [d] lines. *)

(** {2 The used cone} *)

val used : t -> int array
(** Ids reachable from the empty clause through antecedent edges, in
    ascending order — the part of the proof that actually derives
    unsatisfiability; its last element is {!empty}.  Solvers log every
    learned clause, so typically most of the proof is unused.  Computed
    by one backward sweep on first use and memoised in the view; the
    array is shared, so callers must not write it. *)

val is_used : t -> int -> bool

val core : t -> int list
(** Ids of the {e input} clauses in the used part, ascending: the
    unsatisfiable core.  Proof-based abstraction keys on which
    transition clauses appear here. *)

val core_tags : t -> int list
(** Sorted distinct partition tags occurring in the core. *)

(** {2 Exports} *)

val to_dimacs : t -> string
(** DIMACS CNF rendering of the input clauses.  Clause [i] of the file
    (1-based) is the [i]-th input step of the proof — the implicit id
    numbering {!to_lrat} hints refer to. *)

val to_lrat : t -> string
(** Compact LRAT rendering of the refutation: one
    [<id> <lit>* 0 <hint>* 0] line per {e used} derived step, ids
    continuing after the input clauses of {!to_dimacs}.  The hints of
    each step are its reversed resolution chain followed by its first
    antecedent, which is exactly unit-propagation order, so the export
    is checkable by reverse unit propagation alone (see
    [Isr_check.Lrat_check]) with no knowledge of the solver.

    Database deletions are interleaved as [<id> d <id>* 0] lines at
    their recorded positions (events whose clause is an unused derived
    step, or that fall after the last used step, are dropped).  A
    deleted clause is by construction never a hint of a later step — the
    solver can only resolve against clauses still in its database — so
    the export checks under strict deletion semantics.  Empty when an
    input clause itself is empty. *)
