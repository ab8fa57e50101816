(** Versioned checkpoint envelopes for the step-wise engine kernel.

    A checkpoint is one file: a single JSON meta line (stream tag,
    envelope version, engine spelling, model identity, driver step
    count, engine bound, elapsed seconds, payload byte count) followed
    by the engine's opaque binary payload.  The meta line is readable by
    any JSON tool, and {!read} is its one decoder ([isr_obs ckpt]
    pretty-prints what it returns); the payload is private to the engine
    that wrote it.

    Payloads must be {e pure data}: no closures, no solver handles, no
    manager-relative AIG literals.  Engines serialize the AIG part of
    their state as explicit {!cone} structures and rebuild them on the
    restored model's manager, where hash-consing reproduces the same
    shared nodes. *)

open Isr_aig
open Isr_model

(** {1 Portable AIG cones} *)

type node =
  | Const         (** the constant node *)
  | Input of int  (** manager input index (PI or latch output) *)
  | And of int    (** index into the cone's [ands] array *)

type edge = { inv : bool; node : node }  (** complement bit + target *)

type cone = { ands : (edge * edge) array; root : edge }
(** A literal's cone in topological order: [ands.(i)]'s edges only
    reference inputs, the constant, or AND entries [< i]. *)

val cone_of_lit : Aig.man -> Aig.lit -> cone
val lit_of_cone : Aig.man -> cone -> Aig.lit
(** [lit_of_cone man (cone_of_lit man l) = l] on the same (or a
    structurally identical) manager — hash-consing guarantees it. *)

val cones_of_lits : Aig.man -> Aig.lit array -> cone array
val lits_of_cones : Aig.man -> cone array -> Aig.lit array

(** {1 Envelope} *)

val version : int
(** Current envelope version; {!read} rejects newer files. *)

type t = {
  version : int;
  engine : string;     (** {!Engine.name} spelling — routes {!Engine.of_name} on resume *)
  model : string;      (** model name, informational *)
  model_sig : string;  (** structural signature; {!check_model} enforces it *)
  steps : int;         (** driver steps completed before the snapshot *)
  bound : int;         (** the engine's bound/round at the snapshot *)
  elapsed : float;     (** wall seconds consumed before the snapshot *)
  payload : string;    (** engine-private marshalled state *)
}

val model_signature : Model.t -> string
(** Stable structural identity: input/latch counts, initial state and
    property-cone size.  Deliberately {e not} the manager's node count,
    which grows as engines build interpolants. *)

val make :
  engine:string ->
  model:Model.t ->
  steps:int ->
  bound:int ->
  elapsed:float ->
  payload:string ->
  t

val check_model : t -> Model.t -> (unit, string) Result.t
(** Does this checkpoint belong to (a structurally identical twin of)
    [model]?  Mismatched signatures make {!lit_of_cone} meaningless. *)

val meta_json : t -> string
(** The meta line (no trailing newline). *)

val write : string -> t -> unit
(** Atomic (write-then-rename), like the flight recorder's dumps.
    @raise Sys_error on unwritable paths. *)

val read : string -> t
(** @raise Failure on missing files, foreign content, a newer envelope
    version, a meta line that lacks a field or mistypes it, and a
    payload whose length is not the announced byte count (a truncated
    file).  The payload itself is not validated. *)
