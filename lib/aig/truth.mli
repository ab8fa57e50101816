(** Truth tables of Boolean functions over at most {!max_vars}
    variables, 64 states to a word.

    State [s] assigns variable [v] the bit [v] of [s].  A table over
    [n] variables holds one word up to 6 variables and [2{^(n-6)}]
    words above.  Word [w] covers states [64w .. 64w + 63], so
    variables 0 to 5 vary inside a word and variables 6 and up select
    the word.  Below 6 variables the one word
    repeats the [2{^n}] states, so every operation stays exact.

    Tables are values: no operation changes its arguments.  They serve
    state predicates of models with few latches, where a whole function
    fits in at most 16 words and conjunction, disjunction and inclusion
    are word operations. *)

type t

val max_vars : int
(** 10: a table is at most 16 words. *)

val const : nvars:int -> bool -> t
(** @raise Invalid_argument unless [0 <= nvars <= max_vars]. *)

val var : nvars:int -> int -> t
(** The projection on variable [v].
    @raise Invalid_argument unless [0 <= v < nvars]. *)

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t

val implies : t -> t -> bool
(** [implies a b]: every state of [a] is a state of [b]. *)

val get : t -> int -> bool
(** [get t s] is the function's value in state [s], [0 <= s < 2{^n}]. *)

val of_lits : Aig.man -> nvars:int -> var:(int -> int) -> Aig.lit array -> t array
(** The tables of the literals, in one dense simulation of their union
    cone ({!Prog.compile}, then one {!Prog.eval64} per word).  [var]
    maps each AIG input of the cone to its variable.
    @raise Invalid_argument if [var] answers a value outside
    [0 .. nvars - 1]. *)

val to_aig : Aig.man -> var_lit:(int -> Aig.lit) -> t -> Aig.lit
(** A circuit for the function, by Shannon expansion with the highest
    variable at the top: an ordered decision diagram whose equal
    subfunctions hash-cons to one node.  [var_lit v] is variable [v]'s
    literal in [man]. *)
