(** Shared machinery for the experiment reproductions: runs engines over
    registry entries, collecting times, verdicts and depth measures. *)

open Isr_core
open Isr_suite

type engine_result = {
  engine : Engine.t;
  verdict : Verdict.t;
  stats : Verdict.stats;
}

type row = {
  entry : Registry.entry;
  pis : int;
  ffs : int;
  results : engine_result list;
}

type record = {
  bench : string;
  engine_name : string;
  instance_hash : string;
      (** semantic fingerprint of the property cone
          ({!Isr_fraig.Fraig.property_hash}), shared by every engine run
          on the same instance *)
  verdict : Verdict.t;
  stats : Verdict.stats;
}
(** One engine run on one benchmark — the unit of the per-run JSON stats
    stream ([--metrics]) and of the run ledger ([--ledger]). *)

val entry :
  ?config:string ->
  ?events_path:string ->
  ?profile_path:string ->
  record ->
  Isr_obs.Ledger.entry
(** The one projection of a run record, shared by the [--metrics] line
    and the persistent ledger: an unstamped entry ([id] and [time] are
    assigned by {!Isr_obs.Ledger.append}) carrying the metrics-registry
    snapshot as one line of JSON. *)

val json_of_entry : Isr_obs.Ledger.entry -> string
(** The [--metrics] line of an entry: a single-line JSON object with
    bench, engine, verdict tag, hash when known, kfp/jfp when defined,
    and the full metrics-registry snapshot under ["metrics"]. *)

type progress = {
  p_bench : string;   (** registry entry name *)
  p_engine : string;  (** engine display name *)
  p_index : int;      (** 0-based run index within the batch *)
  p_total : int;      (** runs in the batch *)
}
(** Announced just {e before} each engine run starts. *)

val obs_progress : progress -> unit
(** The default progress sink: a ["suite.run"] {!Isr_obs.Event.kind.Phase}
    record with the position as step and total, which the progress
    reporter renders as a heartbeat (no-op with nobody listening). *)

val globalize : index:int -> total:int -> (progress -> unit) -> progress -> unit
(** [globalize ~index ~total sink] rebases a per-entry progress (engine
    index out of the entry's engine count) to suite-wide coordinates,
    treating the entry as the [index]-th of [total]. *)

val run_entry :
  ?progress:(progress -> unit) ->
  ?record:(record -> unit) ->
  limits:Budget.limits ->
  engines:Engine.t list ->
  Registry.entry ->
  row

val run_suite :
  ?progress:(progress -> unit) ->
  ?record:(record -> unit) ->
  limits:Budget.limits ->
  engines:Engine.t list ->
  Registry.entry list ->
  row list

val ok_mark : Registry.entry -> Verdict.t -> string
(** ["!"] when the verdict contradicts the ground truth, [""] otherwise. *)

val time_cell : Verdict.t -> Verdict.stats -> string
(** Table I style: the time, or [ovf(k)] on resource exhaustion. *)

val kfp_cell : Verdict.t -> string
val jfp_cell : Verdict.t -> string
