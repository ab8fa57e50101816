(** AIGER reading and writing, both the ASCII ([aag]) and the binary
    ([aig]) encodings — the formats the HWMCC benchmark sets are
    distributed in: AIGER 1.0 with the 1.9 latch-reset extension (a
    third field on latch lines holding 0 or 1).

    One decoder knows the grammar of both encodings.  {!decode} turns a
    file into a {!netlist}, the definitions as the file states them
    before any reference is resolved, and never raises: it keeps going
    past a malformed line and records it, so {!Isr_check.Lint_aig} runs
    one set of checks on either encoding.  {!models} builds models from
    a netlist without defects.  The single output — or the first [B]
    badness line, when present — is taken as the bad-state literal.
    ASCII AND definitions may appear in any order; {!models} defines
    them in dependency order (the binary encoding is ordered by
    construction). *)

(** {1 Decoding} *)

type loc = Line of int  (** 1-based *) | And of int  (** index in the binary AND section *)
type part = Input | Latch | Output | And_gate

type problem =
  | Empty  (** no header at all *)
  | Bad_header  (** not [aag|aig M I L O A \[B\]] *)
  | Bad_max_var of { m : int; defined : int }
      (** [M < I + L + A] (ASCII) or [M <> I + L + A] (binary) *)
  | Truncated of { needed : int; present : int }
      (** more definition lines (ASCII), or at least more bytes after the
          header (binary), than the file holds *)
  | Malformed of part
      (** a token that is not a number, the wrong number of fields, or a
          definition by a complemented literal *)
  | Negative of part  (** a negative number, never a literal *)
  | Cycle of int
      (** an AND gate that depends on itself, named by its variable: a
          binary AND whose first delta is 0 (the format requires
          [lhs > rhs0]), or, from {!models}, an ASCII cycle through AND
          gates *)

type defect = loc * problem
(** Header problems sit at the header line. *)

type header = { m : int; i : int; l : int; o : int; a : int; b : int }

type netlist = {
  binary : bool;
  header : header option;  (** [None] after [Empty] or [Bad_header] *)
  inputs : (int * loc) list;  (** defining literal *)
  latches : (int * int * int list * loc) list;
      (** defining literal, next-state literal, reset fields ([] if none) *)
  outputs : (int * loc) list;  (** the outputs, then the bad lines *)
  ands : (int * int * int * loc) list;  (** lhs, rhs0, rhs1 *)
  defects : defect list;  (** in the order met; malformed lines are left out above *)
}
(** Every header count is bounded by the input before anything is sized
    by it: by the non-blank lines (ASCII) or by the bytes (binary). *)

val decode : string -> netlist
(** Auto-detects [aig] vs [aag] by the header. *)

val describe : netlist -> problem -> string
val string_of_loc : loc -> string

val models : ?name:string -> netlist -> (Model.t list, string) Result.t
(** One model per output/bad line (sharing one AIG manager, differing
    only in the bad literal and a [_pN] name suffix); no outputs yield
    one model with a constant-false bad.  A netlist with defects, or
    whose definitions do not resolve, is an [Error]. *)

(** {1 Reading} *)

val parse_string : ?name:string -> string -> (Model.t, string) Result.t
(** The model of the first output/bad line. *)

val parse_string_multi : ?name:string -> string -> (Model.t list, string) Result.t
(** [models (decode text)]. *)

(** {1 Writing} *)

val to_string : Model.t -> string
(** ASCII encoding. *)

val to_binary_string : Model.t -> string

val write_file : ?format:[ `Ascii | `Binary ] -> Model.t -> string -> unit
(** Default [`Ascii]. *)

(** {1 Witnesses} *)

val witness_to_string : Model.t -> Trace.t -> string
(** HWMCC witness format for a counterexample: status line [1], property
    line [b0], the initial latch values, one input line per frame, and a
    terminating [.]. *)

val witness_of_string : Model.t -> string -> (Trace.t, string) Result.t
(** Parses a witness back; checks line widths against the model. *)
