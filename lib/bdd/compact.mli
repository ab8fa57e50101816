(** BDD-based compaction of state predicates.

    Interpolation engines accumulate invariants by conjunction and
    disjunction of interpolant circuits, so the final certificates carry
    a lot of structural redundancy.  Round-tripping a predicate through a
    BDD (over its latch support only) and rebuilding the AIG from the
    canonical form usually shrinks it by an order of magnitude — see the
    certified_proof example.

    Compaction is semantic-preserving by construction and bounded: a
    predicate whose BDD exceeds the node budget is returned unchanged. *)

open Isr_aig
open Isr_model

val column : ?max_nodes:int -> Model.t -> Aig.lit -> Aig.lit * int * int
(** [column model p] rebuilds the circuit [p] (over the model's latch
    literals) in BDD canonical form and keeps whichever of the two is
    structurally smaller.  It returns the literal kept and the cone sizes
    (AND nodes) of [p] and of that literal.  A predicate that reads a
    primary input, or whose BDD exceeds [max_nodes] (default 20k), comes
    back unchanged, with equal sizes.

    ITPSEQ runs it on every column ℐ_j at every bound, so the BDD manager
    is sized to the cone: its initial capacity is
    [min 1024 (cone_size p + 2)] nodes, with the unique table and the
    [ite] cache at four times that ({!Bdd.create}).  A column is usually
    small, and a default-sized manager per column per bound goes
    straight to the major heap.  The size never changes the result. *)

val state_predicate : ?max_nodes:int -> Model.t -> Aig.lit -> Aig.lit
(** [state_predicate model p] is the literal {!column} keeps, with a
    default budget of 200k nodes: the one-off compaction of a final
    invariant. *)
