(** Sequential models: an AIG with latches, an initial state and a safety
    property.

    Inside the combinational manager, AIG inputs [0 .. num_inputs-1] are
    the primary inputs and inputs [num_inputs .. num_inputs+num_latches-1]
    are the current-state latch outputs. *)

open Isr_aig

type t = {
  name : string;
  man : Aig.man;
  num_inputs : int;
  num_latches : int;
  next : Aig.lit array;  (** next-state function of each latch *)
  init : bool array;     (** initial value of each latch *)
  bad : Aig.lit;         (** bad-state indicator: [not p] *)
  frames : Frame_cnf.cache;
      (** the transition frame compiled to CNF, filled by the first
          unrolling: build a model, or copy one with another [man] or
          [next], with a fresh [Frame_cnf.cache ()] *)
}

val input_lit : t -> int -> Aig.lit
(** Literal of primary input [i]. *)

val latch_lit : t -> int -> Aig.lit
(** Current-state literal of latch [i]. *)

val prop : t -> Aig.lit
(** The property literal [p = not bad]. *)

val init_lit : t -> Aig.lit
(** The initial-state predicate over the latch literals. *)

val init_state : t -> bool array
(** Copy of the initial latch values. *)

val state_space : t -> t
(** [state_space t] has the inputs, latches and initial values of [t]
    over a fresh manager, and no transition logic: [next] is empty and
    [bad] is false.  It holds state predicates an engine builds for
    itself, so that they add no node to [t]'s manager; a lit of one
    manager is copied into the other with {!Aig.copier}, inputs mapped
    by index. *)

val validate : t -> (unit, string) Result.t
(** Checks structural sanity: array lengths agree, [next] and [bad] cones
    only reach declared inputs and latches. *)

type observables = { obs_latches : bool array; obs_inputs : bool array }
(** Which latches and primary inputs a set of roots can observe. *)

val observable : t -> Aig.lit list -> observables
(** [observable t roots] is the least set of latches containing the
    latch support of [roots] and closed under the support of kept
    next-state functions, together with every primary input read along
    the way — the sequential cone of influence shared by {!Coi.reduce},
    fingerprinting and the static analyzer. *)

val num_ands : t -> int
val pp_stats : Format.formatter -> t -> unit
