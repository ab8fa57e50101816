open Cmdliner

type budget = { time : float; bound : int; conflicts : int }

(* A budget below 0 is refused as the command line is read, naming the
   flag: a negative bound would stop every engine before its depth-0
   check. *)
let at_least_zero conv zero =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when compare v zero >= 0 -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a value >= 0" s))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let bound default =
  Arg.(value & opt (at_least_zero int 0) default & info [ "bound" ] ~doc:"Per-run bound limit.")

let conflicts default =
  Arg.(
    value
    & opt (at_least_zero int 0) default
    & info [ "conflicts" ] ~doc:"Per-run conflict budget.")

let budget ~time ~bound:b ~conflicts:c =
  let time =
    Arg.(value & opt (at_least_zero float 0.0) time & info [ "time" ] ~doc:"Per-run time limit [s].")
  in
  Term.(const (fun time bound conflicts -> { time; bound; conflicts }) $ time $ bound b $ conflicts c)

let limits ?(reduce = Isr_sat.Solver.default_reduce) b =
  { Isr_core.Budget.time_limit = b.time; conflict_limit = b.conflicts; bound_limit = b.bound;
    reduce }

let config b =
  [ ("time", Printf.sprintf "%g" b.time); ("bound", string_of_int b.bound);
    ("conflicts", string_of_int b.conflicts) ]

type obs = {
  check : Isr_check.level;
  trace : string option;
  metrics : string option;
  ledger : string option;
  profile : bool;
  progress : Isr_obs.Progress.mode option;
  flight : int option;
}

let check_arg =
  let level =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Isr_check.Level.of_string s)),
        fun fmt l -> Format.pp_print_string fmt (Isr_check.Level.to_string l) )
  in
  Arg.(
    value
    & opt level Isr_check.Off
    & info [ "check" ] ~docv:"LEVEL"
        ~doc:
          "Sanitizer level for every run: $(b,off) (the default, no overhead), \
           $(b,fast) (metered invariant probes at phase boundaries) or \
           $(b,paranoid) (additionally replay every refutation proof and lint \
           every emitted interpolant).")

let file_arg name docv doc = Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)

let trace_arg =
  file_arg "trace" "FILE"
    "Write a Chrome trace-event JSON file covering every run; open it in \
     Perfetto (ui.perfetto.dev) or chrome://tracing."

let metrics_arg =
  file_arg "metrics" "FILE"
    "Write one JSON line per engine run: benchmark, engine, verdict, instance \
     hash, kfp/jfp and the full metrics-registry snapshot."

let ledger_arg =
  file_arg "ledger" "DIR"
    "Append every engine run to the persistent run ledger rooted at $(docv): \
     instance fingerprint, engine, config, verdict, depths, the metrics snapshot \
     and, when the run recorded one, its event stream.  Inspect with \
     $(b,isr_obs) ls/show/diff."

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print a call-tree span profile after the runs: per span path the call \
           count, total and self wall time, plus the hottest spans by self time.")

let progress_arg =
  let modes = [ ("auto", `Auto); ("tty", `Tty); ("plain", `Plain); ("jsonl", `Jsonl) ] in
  let mode = function
    | `Auto -> Isr_obs.Progress.auto_mode ()
    | `Tty -> Isr_obs.Progress.Tty
    | `Plain -> Isr_obs.Progress.Plain
    | `Jsonl -> Isr_obs.Progress.Jsonl
  in
  Term.(
    const (Option.map mode)
    $ Arg.(
        value
        & opt ~vopt:(Some `Auto) (some (enum modes)) None
        & info [ "progress" ] ~docv:"MODE"
            ~doc:
              "Live heartbeats on stderr (suite position, bound/frame advanced, \
               refinements, solver restarts with conflict/propagation rates), at \
               most one per second.  $(docv) is $(b,auto) (TTY single-line \
               rewrite, plain lines when piped), $(b,tty), $(b,plain) or \
               $(b,jsonl)."))

let flight_arg =
  Arg.(
    value
    & opt ~vopt:(Some 0) (some int) None
    & info [ "flight" ] ~docv:"N"
        ~doc:
          "Arm the flight recorder: a constant-memory per-domain ring of the last \
           $(docv) search events (default 256) plus periodic GC snapshots. On \
           budget expiry, a sanitizer violation, an uncaught exception, SIGUSR1 \
           or SIGTERM the merged rings are dumped as flight.jsonl (into the \
           ledger's events/ directory when --ledger is given, else the working \
           directory). Inspect with $(b,isr_obs) top / tail.")

let obs ?(metrics = false) ?(ledger = false) ?(profile = false) ?(progress = false)
    ?(flight = false) () =
  let on taken arg off = if taken then arg else Term.const off in
  Term.(
    const (fun check trace metrics ledger profile progress flight ->
        { check; trace; metrics; ledger; profile; progress; flight })
    $ check_arg $ trace_arg
    $ on metrics metrics_arg None
    $ on ledger ledger_arg None
    $ on profile profile_arg false
    $ on progress progress_arg None
    $ on flight flight_arg None)

type t = {
  consumers : Isr_obs.Event.consumer list;
  reporter : Isr_obs.Progress.reporter option;
  profile : (unit -> Isr_obs.Profile.node) option;
  metrics_oc : out_channel option;
  ledger_t : Isr_obs.Ledger.t option;
  config : string;
  mutable finished : bool;
}

let fail ~tool msg =
  prerr_endline (tool ^ ": " ^ msg);
  exit 2

let finish t =
  if not t.finished then begin
    t.finished <- true;
    List.iter Isr_obs.Event.unsubscribe t.consumers;
    Option.iter Isr_obs.Progress.finish t.reporter;
    Isr_obs.Flight.disarm ()
  end;
  Option.map (fun snapshot -> snapshot ()) t.profile

let run ~tool ?(config = []) ?(collect_profile = false) ?(consumers = []) obs body =
  Isr_check.Level.set obs.check;
  let open_out path = try open_out path with Sys_error msg -> fail ~tool msg in
  let chrome = Option.map (fun f -> Isr_obs.Chrome.writer (open_out f)) obs.trace in
  let metrics_oc = Option.map open_out obs.metrics in
  let ledger_t =
    Option.map
      (fun d -> try Isr_obs.Ledger.open_ d with Sys_error msg -> fail ~tool msg)
      obs.ledger
  in
  let prof =
    if obs.profile || collect_profile then Some (Isr_obs.Profile.collector ()) else None
  in
  let reporter = Option.map (fun m -> Isr_obs.Progress.to_stderr m) obs.progress in
  let consumers =
    List.filter_map Fun.id
      [ Option.map fst chrome; Option.map fst prof;
        Option.map Isr_obs.Progress.consumer reporter ]
    @ List.map fst consumers
  and closers =
    Option.to_list (Option.map snd chrome)
    @ Option.to_list (Option.map (fun oc () -> close_out oc) metrics_oc)
    @ List.map snd consumers
  in
  List.iter Isr_obs.Event.subscribe consumers;
  (* One closer for every file: it runs when [body] returns or raises,
     and from [at_exit] when a SIGTERM checkpoint exit (exit 143 inside
     [Step.drive]) ends the process with the session open, so the trace
     and the stream recorded so far survive.  Each closer runs even when
     an earlier one fails. *)
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      List.iter
        (fun c -> try c () with e -> prerr_endline (tool ^ ": " ^ Printexc.to_string e))
        closers
    end
  in
  at_exit close;
  (* The flight recorder's rings also turn [Event.enabled] on, so
     --flight works without any other consumer. *)
  Option.iter
    (fun cap ->
      let dir = match ledger_t with Some lg -> Isr_obs.Ledger.events_dir lg | None -> "." in
      Isr_obs.Flight.arm ?capacity:(if cap > 0 then Some cap else None) ~dir ();
      Isr_obs.Flight.install_signals ())
    obs.flight;
  let t =
    { consumers; reporter; profile = Option.map snd prof; metrics_oc; ledger_t;
      config = Isr_obs.Ledger.fingerprint config; finished = false }
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (finish t);
      close ())
    (fun () -> Isr_obs.Flight.guard (fun () -> body t))

let record t ?events_path ?profile_path r =
  if t.metrics_oc = None && t.ledger_t = None then None
  else begin
    let e = Isr_exp.Runner.entry ~config:t.config ?events_path ?profile_path r in
    Option.iter
      (fun oc ->
        output_string oc (Isr_exp.Runner.json_of_entry e);
        output_char oc '\n';
        flush oc)
      t.metrics_oc;
    Option.map (fun lg -> Isr_obs.Ledger.append lg e) t.ledger_t
  end

let ledger t = t.ledger_t
