(** A model's transition frame compiled to CNF once.

    Every unrolling of a model encodes the same next-state cones at
    every frame.  A compiled frame records their Tseitin walk once — the
    clauses in the order and literal order the context
    emits them, the point where it allocates each variable, where it
    first reads a primary input (the frame's PI block is allocated
    there), the frame's one [const_false] variable, the fresh variable
    of each frozen latch in latch order, and which latch each
    state-equality clause belongs to — over template variables, and
    {!instantiate} replays it into a solver by variable map.  The clause
    stream a solver receives, its variable numbering and its branching
    order are those of the walk itself.

    The walk is {!Isr_cnf.Tseitin}'s, through {!Isr_cnf.Tseitin.of_sink}:
    frames and one-off cones share one encoding. *)

open Isr_sat
open Isr_aig

type t

val instantiate :
  t ->
  Solver.t ->
  tag:int ->
  state:Lit.t array ->
  pis:Lit.t array option ->
  attribute:(int -> unit) ->
  Lit.t array * Lit.t array option
(** Adds one frame to the solver, from the state literals [state] of
    the frame it starts from and that frame's PIs when an earlier
    encoding allocated them.  [attribute i] is called right before each
    state-equality clause of latch [i] is added.  Returns the next
    state's literals, and the frame's PIs when the frame allocated them. *)

val vars : t -> int
(** Variables one {!instantiate} allocates at most: the frame's own and,
    when it reads a primary input, its PI block (allocated only when no
    earlier encoding did). *)

val clauses : t -> int
(** Clauses one {!instantiate} adds. *)

val lits : t -> int
(** Literals of those clauses, in all: what they take of the solver's
    clause store at most (duplicate literals are merged on intake). *)

val equalities : t -> int
(** State-equality clauses among them (two per latch not frozen). *)

type cache
(** At most two compiled frames: the unfrozen one and the latest frozen
    mask's (all that abstraction refinement asks for).  Safe to share
    between domains: entries are immutable and swapped atomically. *)

val cache : unit -> cache
(** An empty cache; nothing is compiled until {!find} asks. *)

val find :
  cache ->
  man:Aig.man ->
  num_inputs:int ->
  next:Aig.lit array ->
  frozen:(int -> bool) option ->
  t
(** The compiled frame of the next-state functions [next] (latch [i]
    reads AIG input [num_inputs + i]) in this manager, compiled on a
    miss.  A latch selected by [frozen] gets a fresh unconstrained
    next-state variable; a frozen set selecting no latch is the unfrozen
    frame. *)
