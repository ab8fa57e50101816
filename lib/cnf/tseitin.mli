(** Tseitin encoding of AIG cones into a SAT solver.

    A context represents one {e instantiation} of a combinational cone:
    it owns a private node→variable cache, a fixed partition [tag] stamped
    on every emitted clause, and an [input_lit] callback resolving AIG
    inputs to SAT literals (typically the time-frame variables of an
    unrolling).  Distinct contexts never share internal variables, which
    keeps interpolation partitions disjoint even when two contexts encode
    overlapping cones. *)

open Isr_sat
open Isr_aig

type t

val create : man:Aig.man -> solver:Solver.t -> tag:int -> input_lit:(int -> Lit.t) -> t
(** [input_lit i] must return the SAT literal standing for AIG input [i];
    it is called at most once per input per context. *)

val of_sink :
  man:Aig.man ->
  fresh:(unit -> Lit.t) ->
  emit:(Lit.t list -> unit) ->
  input_lit:(int -> Lit.t) ->
  t
(** The same encoding into a caller's sink instead of a solver: [fresh]
    hands out a new variable (as a positive literal) wherever {!create}'s
    context would allocate one, and [emit] receives each clause, in the
    order and literal order {!create}'s context would add it.  This is
    how [Isr_model.Frame_cnf] compiles a transition frame once, so the
    frames and the one-off cones share one definition. *)

val lit : t -> Aig.lit -> Lit.t
(** Encodes the cone of an AIG literal (emitting the defining clauses of
    every new AND node) and returns the corresponding SAT literal. *)

val assert_lit : t -> Aig.lit -> unit
(** Encodes the literal and asserts it with a unit clause.  Asserting
    [Aig.lit_true] is a no-op; asserting [Aig.lit_false] adds the empty
    clause. *)

val assert_clause : t -> Aig.lit list -> unit
(** Encodes each literal and adds their disjunction as one clause. *)

val tag : t -> int
val solver : t -> Solver.t
(** The tag and solver of a {!create} context.
    @raise Invalid_argument on an {!of_sink} context. *)

val man : t -> Aig.man

val fold_nodes : t -> init:'a -> f:('a -> int -> Lit.t -> 'a) -> 'a
(** Folds over the node→literal cache in unspecified order (the constant
    node, when encoded, appears as node 0).  Exposed for the CNF linter
    of [Isr_check]. *)
