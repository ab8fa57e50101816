(** Append-only ledger of completed verification runs.

    One directory holds everything: [ledger.jsonl] (a header line plus
    one JSON object per completed run) and an [events/] subdirectory for
    the per-run event streams ({!Event.write_jsonl}) and profile dumps
    the entries point at.  Entries are never rewritten — a re-run of the
    same instance appends a new entry, and cross-run analytics
    ([isr_obs diff]) work off the accumulated history.

    Runs are keyed three ways: the human-readable instance name, the
    structural hash of the property cone (so renamed copies of the same
    instance still compare), and the engine + configuration fingerprint.
    This layering sits below the engines, so an entry carries plain
    strings and numbers; the callers (bench harness, CLIs) project their
    verdicts and metric registries into it. *)

val schema_version : int

type entry = {
  id : string;  (** assigned at append: ["r0001"], ["r0002"], ... *)
  time : string;  (** wall-clock UTC, ["YYYY-MM-DDThh:mm:ssZ"] *)
  instance : string;  (** benchmark / model name *)
  instance_hash : string;
      (** structural hash of the property cone; [""] when unknown *)
  engine : string;
  config : string;  (** {!fingerprint} of the run configuration *)
  verdict : string;  (** ["proved"], ["falsified"], ["unknown"] *)
  kfp : int option;  (** convergence depth (outer), when defined *)
  jfp : int option;  (** convergence depth (inner), when defined *)
  wall_s : float;
  conflicts : int;
  sat_calls : int;
  itp_nodes : int;
  metrics_json : string;
      (** full metrics-registry snapshot, raw JSON ([""] when absent) *)
  events_path : string option;
      (** event stream, relative to the ledger directory *)
  profile_path : string option;
}

type t

val open_ : string -> t
(** Open (creating if needed) the ledger rooted at this directory: the
    opener of the commands that append to it. *)

val open_existing : string -> t
(** Open the ledger rooted at this directory for reading, creating
    nothing: a directory without entries reads as an empty ledger.
    @raise Sys_error when the directory does not exist. *)

val dir : t -> string

val events_dir : t -> string
(** The [events/] subdirectory (created by {!open_}). *)

val fingerprint : (string * string) list -> string
(** Canonical config fingerprint: [k=v] pairs sorted by key, joined
    with single spaces — stable under option reordering. *)

val append : t -> entry -> entry
(** Assign the next run id (the [id] field of the argument is ignored),
    append one line to [ledger.jsonl] and return the stored entry. *)

val load : t -> entry list
(** All entries, oldest first.  Malformed lines are skipped; a header
    with an unsupported or missing schema version fails.
    @raise Failure on an unreadable ledger or a bad header, naming the
    file. *)

val find : t -> string -> entry option
(** Look an entry up by run id. *)

val resolve : t -> string -> string
(** Resolve an entry-relative path (events, profile) against the ledger
    directory; absolute paths pass through. *)

val json_of_entry : entry -> string
val entry_of_json : Json.t -> entry option
