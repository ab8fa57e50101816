(** Reduced Ordered Binary Decision Diagrams.

    Classic implementation with a unique table (hash-consing), memoized
    [ite], quantification and variable permutation.  Nodes are plain
    integer handles into a manager; the variable order is the variable
    index (0 at the top).  There is no garbage collection — managers are
    intended to be short-lived per verification task — but a node budget
    can be set, raising {!Overflow} when exceeded, which the reachability
    engines report as the paper's [ovf] entries. *)

exception Overflow

type man
type t = int

val create : ?max_nodes:int -> ?size_hint:int -> nvars:int -> unit -> man
(** [max_nodes] default is unlimited.  [nvars] is just the initial
    declared count; {!var} accepts any index below it.  [size_hint]
    (default 1024) is the initial node capacity, with the unique table
    and the [ite] cache at four times that; both grow on demand, so the
    hint changes only the allocation, never a result.  A manager built
    for one small BDD should ask for little: the default arrays go
    straight to the major heap. *)

val bfalse : t
val btrue : t
val var : man -> int -> t
val nvar : man -> int -> t

val num_nodes : man -> int
(** Nodes allocated so far (including the two terminals). *)

val size : man -> t -> int
(** Number of nodes in one BDD. *)

val bnot : man -> t -> t
val band : man -> t -> t -> t
val bor : man -> t -> t -> t
val bxor : man -> t -> t -> t
val bimp : man -> t -> t -> t
val biff : man -> t -> t -> t
val ite : man -> t -> t -> t -> t

val exists : man -> (int -> bool) -> t -> t
(** [exists m in_set t] quantifies away every variable selected by
    [in_set]. *)

val and_exists : man -> (int -> bool) -> t -> t -> t
(** Relational product: [exists m in_set (band m a b)] computed without
    building the full conjunction. *)

val permute : man -> (int -> int) -> t -> t
(** Renames variables; the mapping must be injective on the support and
    order-preserving (a requirement satisfied by the interleaved
    current/next encoding used in {!Reach}). *)

val eval : man -> (int -> bool) -> t -> bool

val any_sat : man -> t -> (int * bool) list
(** One satisfying path: assignments along a path to the true terminal.
    @raise Not_found on the false BDD. *)

val count_sat : man -> nvars:int -> t -> float
(** Number of satisfying assignments over the given variable universe. *)

val of_aig : man -> Isr_aig.Aig.man -> input_var:(int -> t) -> Isr_aig.Aig.lit -> t
(** Builds the BDD of an AIG cone, mapping AIG inputs through
    [input_var]. *)

val to_aig :
  man -> Isr_aig.Aig.man -> var_lit:(int -> Isr_aig.Aig.lit) -> t -> Isr_aig.Aig.lit
(** Rebuilds a BDD as an AIG (one mux per node, fully shared), mapping
    BDD variables through [var_lit].  Composing [of_aig] and [to_aig]
    yields a canonical-form restructuring of a cone — often far smaller
    than interpolant circuits accumulated by conjunction. *)
