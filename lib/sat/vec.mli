(** Growable integer vectors, used pervasively in the solver hot paths. *)

type t

val blit_ints : int array -> int -> int array -> int -> int -> unit
(** [blit_ints src soff dst doff n] is [Array.blit] for int arrays, but
    stores directly instead of through the write barrier, which
    [Array.blit] takes for every element of a destination in the major
    heap.  Unchecked: the ranges must be in bounds.  Moving within one
    array is safe when [doff <= soff]. *)

val create : ?cap:int -> unit -> t
val size : t -> int
val get : t -> int -> int
val unsafe_get : t -> int -> int
(** [get] without the bounds check, for loops whose index is in range by
    construction. *)

val set : t -> int -> int -> unit
val push : t -> int -> unit

val reserve : t -> int -> unit
(** [reserve v n] makes room for [n] elements in all, so that pushes up
    to that size allocate nothing.  Contents and size are unchanged. *)

val pop : t -> int
(** Removes and returns the last element.  Requires a non-empty vector. *)

val last : t -> int
val clear : t -> unit
val shrink : t -> int -> unit
(** [shrink v n] truncates [v] to its first [n] elements. *)

val iter : (int -> unit) -> t -> unit
val to_array : t -> int array
val of_array : int array -> t
val mem : t -> int -> bool
val remove : t -> int -> unit
(** Removes the first occurrence of the element if present (swap-with-last). *)
