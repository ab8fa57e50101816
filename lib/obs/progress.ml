(* Live progress heartbeats.  Engines post search records (bound
   advanced, frame pushed, refinement, solver restart) on the Event
   channel; a subscribed reporter turns the heartbeat records into ticks,
   rate-limits them to one rendered line per configured interval and
   renders for the output at hand: single-line
   rewrite on a TTY, one line per heartbeat when piped, or JSON lines
   for tooling.  Each accepted heartbeat also samples the GC through
   [Resource], so memory tracks time in the run's registry. *)

type tick = {
  phase : string;
  step : int option;
  total : int option;
  detail : string;
  conflicts : int;
  propagations : int;
  learnt : int;
}

let mk_tick ?step ?total ?(detail = "") ?(conflicts = 0) ?(propagations = 0) ?(learnt = 0)
    phase =
  { phase; step; total; detail; conflicts; propagations; learnt }

type mode = Tty | Plain | Jsonl

type reporter = {
  mode : mode;
  interval : float;
  clock : unit -> float;
  write : string -> unit;
  width : int; (* TTY columns; rewrites are clamped to width - 1 *)
  t0 : float;
  lock : Mutex.t; (* ticks arrive from every racing domain *)
  mutable last_emit : float; (* negative: nothing emitted yet *)
  mutable last_conflicts : int;
  mutable last_time : float;
  mutable emitted : int;
  mutable dirty : bool; (* a TTY line is pending termination *)
}

(* A rewritten line longer than the terminal wraps, and the next [\r]
   then rewrites only the last visual row — every earlier row stays
   behind as garbage.  Clamp to the terminal width instead (COLUMNS per
   POSIX; 80 when absent or nonsense, as on most CI runners). *)
let default_width () =
  match Sys.getenv_opt "COLUMNS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some n when n > 1 -> n | _ -> 80)
  | None -> 80

let make ?(clock = Clock.now) ?(interval = 1.0) ?width ~mode write =
  let t0 = clock () in
  let width =
    match width with Some w when w > 1 -> w | Some _ -> 80 | None -> default_width ()
  in
  {
    mode;
    interval;
    clock;
    write;
    width;
    t0;
    lock = Mutex.create ();
    last_emit = Float.neg_infinity;
    last_conflicts = 0;
    last_time = t0;
    emitted = 0;
    dirty = false;
  }

let emitted r = r.emitted

let json_escape = Json.escape

(* 1234567 -> "1.2M": heartbeats are for eyeballs, the registry keeps
   the exact numbers. *)
let human n =
  if n >= 10_000_000 then Printf.sprintf "%dM" (n / 1_000_000)
  else if n >= 1_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1e6)
  else if n >= 10_000 then Printf.sprintf "%dk" (n / 1000)
  else string_of_int n

let render r t now =
  let elapsed = now -. r.t0 in
  match r.mode with
  | Jsonl ->
    let b = Buffer.create 128 in
    Buffer.add_string b (Printf.sprintf "{\"t\":%.3f,\"phase\":\"%s\"" elapsed (json_escape t.phase));
    (match t.step with Some s -> Buffer.add_string b (Printf.sprintf ",\"step\":%d" s) | None -> ());
    (match t.total with Some s -> Buffer.add_string b (Printf.sprintf ",\"total\":%d" s) | None -> ());
    if t.detail <> "" then
      Buffer.add_string b (Printf.sprintf ",\"detail\":\"%s\"" (json_escape t.detail));
    Buffer.add_string b
      (Printf.sprintf ",\"conflicts\":%d,\"propagations\":%d,\"learnt\":%d}" t.conflicts
         t.propagations t.learnt);
    Buffer.contents b
  | Tty | Plain ->
    let b = Buffer.create 128 in
    Buffer.add_string b (Printf.sprintf "[%6.1fs] %s" elapsed t.phase);
    (match (t.step, t.total) with
    | Some s, Some n -> Buffer.add_string b (Printf.sprintf " %d/%d" s n)
    | Some s, None -> Buffer.add_string b (Printf.sprintf " %d" s)
    | None, _ -> ());
    if t.detail <> "" then Buffer.add_string b (" " ^ t.detail);
    if t.conflicts > 0 then begin
      Buffer.add_string b (Printf.sprintf "  confl %s" (human t.conflicts));
      let dt = now -. r.last_time in
      if dt > 0.0 && t.conflicts >= r.last_conflicts && r.emitted > 0 then
        Buffer.add_string b
          (Printf.sprintf " (%s/s)" (human (int_of_float (float_of_int (t.conflicts - r.last_conflicts) /. dt))));
      if t.propagations > 0 then
        Buffer.add_string b (Printf.sprintf " prop %s" (human t.propagations));
      if t.learnt > 0 then Buffer.add_string b (Printf.sprintf " learnt %s" (human t.learnt))
    end;
    Buffer.contents b

let write_line r line =
  match r.mode with
  | Tty ->
    (* Clamp to width - 1 (writing the last column would auto-wrap on
       most terminals); the trailing erase-to-EOL wipes whatever a
       longer previous line left behind. *)
    let line =
      if String.length line >= r.width then String.sub line 0 (r.width - 1) else line
    in
    r.write ("\r" ^ line ^ "\027[K");
    r.dirty <- true
  | Plain | Jsonl -> r.write (line ^ "\n")

let force_unlocked r t =
  let now = r.clock () in
  write_line r (render r t now);
  r.last_emit <- now;
  r.last_conflicts <- t.conflicts;
  r.last_time <- now;
  r.emitted <- r.emitted + 1;
  Resource.sample ()

let force r t = Mutex.protect r.lock (fun () -> force_unlocked r t)

let emit r t =
  Mutex.protect r.lock (fun () ->
      let now = r.clock () in
      if now -. r.last_emit >= r.interval then begin
        force_unlocked r t;
        true
      end
      else false)

let finish r =
  Mutex.protect r.lock (fun () ->
      if r.dirty then begin
        r.write "\n";
        r.dirty <- false
      end)

(* --- the channel's heartbeat records ------------------------------------------ *)

let tick_of_record : Event.kind -> tick option = function
  | Phase { phase; step; total; detail; conflicts; propagations; learnt } ->
    let opt n = if n >= 0 then Some n else None in
    Some { phase; step = opt step; total = opt total; detail; conflicts; propagations; learnt }
  | Restart { conflicts; propagations; learnt; _ } ->
    Some (mk_tick ~conflicts ~propagations ~learnt "sat.restart")
  | Reduce { kept; _ } -> Some (mk_tick ~step:kept "sat.db.reduce")
  | Itp_cut _ | Spawn _ | Dispatch _ | Cancel _ | Verdict _ | Analyze _ | Step _ -> None

let consumer r =
  {
    Event.on_span = None;
    on_record =
      Some (fun ~ts:_ ~dom:_ kind -> Option.iter (fun t -> ignore (emit r t)) (tick_of_record kind));
  }

(* --- CLI conveniences ------------------------------------------------------ *)

let auto_mode ?(fd = Unix.stderr) () = if Unix.isatty fd then Tty else Plain

let to_stderr ?clock ?interval ?width mode =
  make ?clock ?interval ?width ~mode (fun s ->
      output_string stderr s;
      flush stderr)
