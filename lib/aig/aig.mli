(** Hash-consed And-Inverter Graphs.

    A manager owns a table of nodes: the constant node, input nodes and
    two-input AND nodes.  Edges are {e literals} — a node index with a
    complement bit — so negation is free.  Structural hashing guarantees
    that syntactically equal AND nodes are shared, and the constructors
    apply the usual one-level simplifications (constant folding,
    idempotence, complement cancellation). *)

type man

type lit = int
(** [2*node + complement].  [lit_false = 0] and [lit_true = 1] denote the
    constant node's two phases. *)

val create : ?nodes:int -> unit -> man
(** [nodes] sizes the node table and the structural hash up front, for a
    caller that knows how many nodes it will make. *)

val lit_false : lit
val lit_true : lit

val fresh_input : man -> lit
(** Allocates the next input node and returns its positive literal. *)

val input : man -> int -> lit
(** Positive literal of the [i]-th input.
    @raise Invalid_argument if the input does not exist. *)

val copy : man -> man
(** A private duplicate: the same nodes under the same indices, so every
    literal of the original means the same in the copy.  Nodes added to
    one afterwards do not appear in the other. *)

val num_inputs : man -> int
val num_nodes : man -> int
(** Total node count, including the constant and the inputs. *)

val num_ands : man -> int

(* Structure access *)

val node_of : lit -> int
val is_complemented : lit -> bool
val is_const : man -> lit -> bool
val is_input : man -> lit -> bool
val is_and : man -> lit -> bool

val input_index : man -> lit -> int
(** Index of an input literal's node.
    @raise Invalid_argument on non-input literals. *)

val fanins : man -> lit -> lit * lit
(** Fanins of an AND literal (complement bit of the literal ignored).
    @raise Invalid_argument on non-AND literals. *)

val fanin0 : man -> int -> lit
val fanin1 : man -> int -> lit
(** [fanin0 m node] and [fanin1 m node]: the fanins of AND node [node],
    without a tuple; [fanin0 >= fanin1].  Unspecified on other nodes.
    For walks over node indices such as {!Prog.compile}. *)

(* Constructors *)

val not_ : lit -> lit
val and_ : man -> lit -> lit -> lit
val or_ : man -> lit -> lit -> lit
val xor_ : man -> lit -> lit -> lit
val iff_ : man -> lit -> lit -> lit
val implies : man -> lit -> lit -> lit
val ite : man -> lit -> lit -> lit -> lit
val big_and : man -> lit list -> lit
val big_or : man -> lit list -> lit

(* Semantics *)

val eval : man -> (int -> bool) -> lit -> bool
(** [eval m env l] evaluates [l] with input [i] set to [env i].
    Memoized over the cone of [l]. *)

val eval64 : ?memo:(int, int64) Hashtbl.t -> man -> (int -> int64) -> lit -> int64
(** 64 parallel evaluations packed in an [int64] word.  [memo] (default:
    a fresh table) caches node values across calls; it stays valid only
    while [env] answers the same. *)

val support : man -> lit -> int list
(** Sorted input indices the literal structurally depends on. *)

val supports : man -> lit list -> int list
(** Sorted input indices of the union of the cones — one traversal with
    one shared seen-table, not one walk per root. *)

val cone_size : man -> lit -> int
(** Number of AND nodes in the literal's cone. *)

val cone_sizes : man -> lit list -> int
(** Number of AND nodes in the union of the cones, each counted once. *)

val substitute : man -> (int -> lit) -> lit -> lit
(** [substitute m sigma l] replaces every input [i] by [sigma i],
    rebuilding (and re-hashing) the cone bottom-up. *)

val fold_cone : man -> lit -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Folds over the node indices of the cone in topological order. *)

val iter_cones : man -> lit list -> f:(int -> unit) -> unit
(** Visits every node in the union of the given cones exactly once,
    fanins before fanouts.  The shared traversal primitive behind
    {!fold_cone}, {!support} and every multi-root cone walk. *)

val fold_cones : man -> lit list -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Fold form of {!iter_cones}. *)

val copier : src:man -> dst:man -> map:(int -> lit) -> lit -> lit
(** [copier ~src ~dst ~map] is a memoizing cross-manager copy function:
    it rebuilds cones of [src] inside [dst], sending input [i] of [src]
    to the [dst] literal [map i].  The memo table persists across calls
    to the returned closure. *)

val pp : man -> Format.formatter -> lit -> unit
(** Small textual rendering (for debugging and error messages). *)

val to_dot :
  ?input_name:(int -> string) -> man -> (string * lit) list -> string
(** GraphViz rendering of the union of the given cones; each root gets a
    named output box.  Dashed edges mark complemented fanins. *)
