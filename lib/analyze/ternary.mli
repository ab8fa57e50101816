(** Three-valued (0/1/X) simulation over AIGs.

    The abstract domain behind the static analyzer: [X] stands for "any
    value", the operators are the standard Kleene extensions, and every
    evaluation is monotone under X-refinement — if a ternary result is a
    constant, every concrete completion of the inputs evaluates to that
    constant.  {!lfp} runs the induced reachability fixpoint from the
    initial state to find stuck-at latches. *)

open Isr_aig
open Isr_model

type tv = F | T | X

val of_bool : bool -> tv

val to_bool : tv -> bool option
(** [None] exactly on [X]. *)

val to_string : tv -> string
(** ["0"], ["1"] or ["x"]. *)

val join : tv -> tv -> tv
(** Least upper bound: equal values stay, differing values give [X]. *)

val refines : tv -> tv -> bool
(** [refines a b]: [a] is at least as defined as [b] ([b = X] or
    [a = b]). *)

val tnot : tv -> tv
val tand : tv -> tv -> tv

type values
(** Ternary values of a union cone, evaluated by one compiled program
    ({!Isr_aig.Prog}). *)

val node_values : Aig.man -> env:(int -> tv) -> Aig.lit list -> values
(** Ternary value of every node in the union of the root cones; [env]
    assigns a value to each AIG input. *)

val lit_value : values -> Aig.lit -> tv
(** Literal value out of {!node_values} (complement applied).
    @raise Not_found if the literal's node was not under any root. *)

val iter_ands : values -> f:(int -> tv -> unit) -> unit
(** [iter_ands v ~f] calls [f node value] on every AND node of the cone,
    in ascending node order. *)

val env_of : Model.t -> state:tv array -> inputs:tv array -> int -> tv
(** Standard model environment: primary inputs from [inputs] (missing
    indices are [X]), latches from [state]. *)

val eval_lit : Model.t -> state:tv array -> inputs:tv array -> Aig.lit -> tv

val step : Model.t -> state:tv array -> inputs:tv array -> tv array
(** All next-state functions, evaluated by one program. *)

val bad_now : Model.t -> state:tv array -> inputs:tv array -> tv

val lfp : Model.t -> tv array
(** Least fixpoint of ternary reachability: starts at the concrete
    initial state and joins step images under all-[X] inputs until
    stable.  A latch still constant in the result is stuck at that value
    in {e every} reachable state of the model.  The next-state program
    is compiled once and re-evaluated per iteration. *)
