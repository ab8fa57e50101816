(** A registry of named counters, gauges and log-bucketed histograms.

    Registries are values: every verification run owns one (embedded in
    its [Verdict.stats]), so concurrent or repeated runs never bleed
    into each other, and a portfolio merges member registries with
    {!merge}.  Handles ([counter], [gauge], [histogram]) are resolved
    once by name and then updated by direct mutation — no lookup on the
    hot path.

    Histograms bucket by powers of two: bucket 0 holds values [<= 1],
    bucket [i >= 1] holds values in [(2^(i-1), 2^i]]; the last bucket
    absorbs everything beyond [2^62].  Exact count, sum, min and max are
    kept alongside, so means survive the bucketing. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-create.  @raise Invalid_argument when the name is already
    registered as a different metric kind. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

(* Counters *)
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(* Gauges *)
val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** Keeps the maximum of the current and the new value. *)

val gauge_value : gauge -> float

(* Histograms *)
val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_min : histogram -> float
(** 0 when empty. *)

val hist_max : histogram -> float
(** 0 when empty. *)

val hist_mean : histogram -> float
(** Exact mean ([sum/count]); 0 when empty. *)

val hist_quantile : histogram -> float -> float
(** [hist_quantile h q] estimates the [q]-quantile ([q] clamped to
    [0,1]) from the bucket counts: the bucket containing rank
    [q * count] is located and the value interpolated linearly inside
    it, with the bucket edges tightened by the exact min/max.  The
    estimate is exact when all observations share a bucket and is
    otherwise off by at most the width of one power-of-two bucket.
    Pinned at the tracked extremes: [q <= 0] returns the exact minimum
    and [q >= 1] the exact maximum.  0 when empty.
    @raise Invalid_argument when [q] is NaN. *)

val bucket_of : float -> int
(** The bucket index a value falls into (exposed for tests). *)

val bucket_upper : int -> float
(** Inclusive upper bound of a bucket: [2^i]. *)

val hist_buckets : histogram -> (float * int) list
(** Non-empty buckets as [(inclusive upper bound, count)], ascending. *)

val merge : into:t -> t -> unit
(** Counters add, gauges keep the maximum, histograms merge bucket-wise
    (metrics absent from [into] are created). *)

val names : t -> string list
(** Registration order. *)

val to_json : t -> string
(** One JSON object: counters and gauges as numbers, histograms as
    [{"count","sum","max","buckets":[{"le","n"},...]}]. *)

(** One metric of a snapshot read back: counters and gauges alike as
    numbers (the JSON does not tell them apart), histograms as their
    exact count, sum and maximum and their non-empty buckets. *)
type reading =
  | Number of float
  | Histogram of { count : int; sum : float; max : float; buckets : (float * int) list }

val of_json : string -> (string * reading) list
(** Read back a snapshot written by {!to_json}, in its order.  Values
    that are neither numbers nor objects are skipped; a histogram field
    that is missing reads as 0.
    @raise Failure when the text is not a JSON object. *)

val pp : Format.formatter -> t -> unit
(** Human-readable snapshot, one metric per line. *)
