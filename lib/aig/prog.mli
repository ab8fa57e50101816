(** Compiled cone programs: dense simulation over the union cone of a
    set of roots.

    {!compile} numbers every node of the union cone into a dense slot,
    in node-index order.  That order is topological, because an AND node
    is always created after its fanins.  Each AND slot stores its two
    fanins as [2 * slot + complement], so evaluating the program is one
    forward loop over arrays, with no hashing and no recursion.  The
    same program runs in two domains, each over a caller-owned buffer:

    - 64 lanes: one [int64] word per slot, one execution per bit, kept
      unboxed in a [Bytes.t] ({!words}, {!eval64});
    - ternary: one byte per slot holding two bits, "may be 1" and "may
      be 0", so that [X] is both ({!trits}, {!eval3}).

    A program reads the manager only while it is compiled, so nodes
    added to the manager later do not disturb it.  [Sim] and
    {!Aig.eval} stay independent of this module: they are the
    reference that replays traces. *)

type t

val compile : Aig.man -> Aig.lit list -> t
(** [compile man roots] numbers the union of the roots' cones.  One
    backward marking sweep runs from the largest root node down to the
    constant, and one forward pass assigns the slots. *)

val size : t -> int
(** Number of slots. *)

val slot : t -> Aig.lit -> int
(** Slot of the literal's node (its complement bit is ignored).
    @raise Not_found if the node is outside the cone. *)

val node : t -> int -> int
(** AIG node of a slot. *)

val is_and : t -> int -> bool
(** Is the slot an AND node (not an input or the constant)? *)

(** {2 64 lanes} *)

val words : t -> Bytes.t
(** A fresh buffer for {!eval64}: 8 bytes per slot. *)

val eval64 : t -> Bytes.t -> (int -> int64) -> unit
(** [eval64 p buf input] writes every slot's word: input [i] gets
    [input i] (called once per input slot, in slot order), the constant
    gets [0L], and each AND the conjunction of its fanins. *)

val word : Bytes.t -> int -> int64
(** Word of a slot, as {!eval64} left it. *)

val lit_word : t -> Bytes.t -> Aig.lit -> int64
(** Word of a literal, complement applied.
    @raise Not_found if the literal's node is outside the cone. *)

(** {2 Ternary} *)

val t_false : int
val t_true : int
val t_x : int
(** The three ternary codes: [t_false] may only be 0, [t_true] may only
    be 1 and [t_x] may be both.  The join of two codes is their
    [lor]. *)

val trits : t -> Bytes.t
(** A fresh buffer for {!eval3}: one byte per slot. *)

val eval3 : t -> Bytes.t -> (int -> int) -> unit
(** [eval3 p buf input]: {!eval64} in the ternary domain, with Kleene's
    AND and NOT.  [input i] must be one of the three codes. *)

val trit : Bytes.t -> int -> int
(** Code of a slot, as {!eval3} left it. *)

val lit_trit : t -> Bytes.t -> Aig.lit -> int
(** Code of a literal, complement applied.
    @raise Not_found if the literal's node is outside the cone. *)
