(** Independent replay of resolution proofs.

    Used by the test suite to certify that every clause the solver learns
    really follows from its recorded chain, and that the proof ends in the
    empty clause. *)

type error =
  | Missing_pivot of { clause : int; pivot : int }
      (** A chain step resolves on a variable absent from one side. *)
  | Wrong_result of { clause : int }
      (** The replayed resolvent differs from the recorded literals. *)
  | Empty_not_empty
      (** The step registered as the empty clause has literals. *)

val pp_error : Format.formatter -> error -> unit

val check : Proof.t -> (unit, error) Result.t
(** Replays every derived clause in the used cone of the proof. *)
