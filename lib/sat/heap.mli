(** Indexed binary max-heap over variables, ordered by activity.

    The heap shares the solver's activity array: {!set_activity} must be
    called whenever the solver reallocates it. *)

type t

val create : unit -> t

val set_activity : t -> float array -> unit
(** Installs the array used for comparisons.  Elements already in the heap
    keep their positions; callers must only grow the array. *)

val reserve : t -> int -> unit
(** [reserve h n] makes room for variables [0 .. n - 1], so that
    inserting them allocates nothing.  The heap is unchanged. *)

val in_heap : t -> int -> bool
val insert : t -> int -> unit
(** No-op when the variable is already present. *)

val decrease : t -> int -> unit
(** Restores the heap property after the variable's activity increased
    (a higher activity moves it towards the root). *)

val pop : t -> int
(** Removes and returns the variable with the highest activity; [-1]
    when the heap is empty. *)

val size : t -> int
val rebuild : t -> unit
(** Re-heapifies after a bulk activity rescale. *)
