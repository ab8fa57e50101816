(** Call-tree profiles over span event streams.

    A profile aggregates spans by call path: every node of the tree is a
    span name under its parent chain, with a call count, total wall time
    (children included) and self time (total minus direct children).
    The root is a synthetic ["(root)"] node whose total is the event
    window ([last ts - first ts]) — for a run traced end to end this is
    the run's wall time — or, when spans from several domains overlap
    and add up to more than the window, their sum.

    Build one either from a recorded list of spans ({!of_events}) or
    live through {!collector}, a consumer of the {!Event} channel that
    folds spans as they arrive (constant memory in the span count). *)

type node = {
  name : string;
  calls : int;
  total : float;  (** wall seconds inside this span, children included *)
  self : float;   (** [total] minus the totals of direct children *)
  children : node list;  (** sorted by total, descending *)
}

val of_events : Trace.event list -> node
(** Fold a recorded stream into a profile.  Unbalanced streams are
    tolerated: stray [End]s are dropped and spans still open at the end
    of the stream are charged up to the last seen timestamp. *)

val collector : unit -> Event.consumer * (unit -> node)
(** A live folding consumer (it reads spans only) and its snapshot
    function.  Spans from several domains are folded under the
    collector's own lock.  Snapshots are cheap and non-destructive: open
    spans are charged provisionally, and a later snapshot (after more
    spans) supersedes the provisional charge. *)

val root_total : node -> float
(** The event-window total of a (root) node. *)

val hot : node -> (string * int * float * float) list
(** Flat per-name aggregation over the whole tree as
    [(name, calls, total, self)], sorted by self time descending.
    Self and calls sum across all occurrences; total skips spans nested
    inside a same-named ancestor, so recursion is not double-charged. *)

val pp : ?top:int -> ?max_depth:int -> ?min_frac:float -> Format.formatter -> node -> unit
(** Text rendering: the call tree (pruned at [max_depth], default 6, and
    below [min_frac] of the root total, default 0.2%) followed by the
    [top] (default 12) hottest span names by self time. *)

val to_json : node -> string
(** Nested JSON: [{"name","calls","total_s","self_s","children":[...]}]. *)

val read_self_times : string -> (string * float) list option
(** Read a {!to_json} dump back from a file as its call paths
    (["(root)/engine/bmc.bound"]) with their self seconds, in reverse
    pre-order; [None] when the file cannot be read or parsed. *)
