(* Flight recorder; see the .mli for the model.

   Concurrency: the rings (an {!Event.Store} with a capacity) are
   filled through an Event subscription from every racing domain, so
   all ring state lives under one mutex (records arrive at the solver's
   coarse cadence — restarts, reductions, phases — not per
   propagation).  Signal handlers are the delicate part: OCaml runs
   them at safe points inside normal code, which may be *inside* the
   ring lock's critical section on this very thread, so a handler that
   blocked on the lock would self-deadlock.  Handlers therefore record a
   pending request and attempt the dump with [Mutex.try_lock]; a
   contended lock defers the dump to the next [poll] from an engine's
   cancellation hook. *)

type snap = {
  s_ts : float;
  heap_words : int;
  minor_words : float;
  minor_collections : int;
  major_collections : int;
}

type state = {
  capacity : int;
  dir : string;
  lock : Mutex.t;
  rings : Event.Store.t;
  mutable snaps : snap list; (* newest first, capped *)
  mutable last_snap : float;
}

type meta = {
  reason : string;
  recorded : int;
  evicted : int;
  capacity : int;
  domains : int;
}

let default_capacity = 256
let max_snaps = 64

let state : state option ref = ref None
let pending : string option Atomic.t = Atomic.make None

(* Budget expiry re-raises through every engine layer, and each raise
   site dumps; collapse the storm to one file write per second. *)
let last_dump : (string * float * string) ref = ref ("", neg_infinity, "")

let armed () = !state <> None
let recorded () = match !state with None -> 0 | Some st -> Event.Store.recorded st.rings
let evicted () = match !state with None -> 0 | Some st -> Event.Store.evicted st.rings

let take_snap (st : state) ts =
  st.last_snap <- ts;
  let g = Gc.quick_stat () in
  let s =
    {
      s_ts = ts;
      heap_words = g.Gc.heap_words;
      minor_words = g.Gc.minor_words;
      minor_collections = g.Gc.minor_collections;
      major_collections = g.Gc.major_collections;
    }
  in
  st.snaps <- s :: List.filteri (fun i _ -> i < max_snaps - 1) st.snaps

let events () =
  match !state with
  | None -> []
  | Some st -> Mutex.protect st.lock (fun () -> Event.Store.events st.rings)

let json_of_snap s =
  Printf.sprintf
    "{\"snap\":{\"ts\":%.6f,\"heap_words\":%d,\"minor_words\":%.0f,\"minor_collections\":%d,\"major_collections\":%d}}"
    s.s_ts s.heap_words s.minor_words s.minor_collections s.major_collections

(* Called under [st.lock]: everything a dump writes, so the file IO
   can happen outside the lock. *)
let snapshot ~reason st =
  let rings = st.rings in
  ( {
      reason;
      recorded = Event.Store.recorded rings;
      evicted = Event.Store.evicted rings;
      capacity = st.capacity;
      domains = Event.Store.domains rings;
    },
    Event.Store.events rings,
    List.rev st.snaps )

(* Torn-tail safety comes from the rename: a dump interrupted mid-write
   leaves the previous complete file (or nothing), never half a line. *)
let write_dump dir (m, evs, snaps) =
  let path = Filename.concat dir "flight.jsonl" in
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc
          (Printf.sprintf "{\"stream\":\"isr-events\",\"schema\":%d}\n" Event.schema_version);
        output_string oc
          (Printf.sprintf
             "{\"flight\":{\"reason\":%s,\"recorded\":%d,\"evicted\":%d,\"capacity\":%d,\"domains\":%d}}\n"
             (Json.quote m.reason) m.recorded m.evicted m.capacity m.domains);
        (* Merge GC snapshots into the event timeline by timestamp (an
           event first on a tie), so a reader scrolling the tail sees
           memory next to the search. *)
        List.iter
          (fun (_, line) ->
            output_string oc line;
            output_char oc '\n')
          (List.merge
             (fun (a, _) (b, _) -> Float.compare a b)
             (List.map (fun (e : Event.t) -> (e.Event.ts, Event.json_of_event e)) evs)
             (List.map (fun s -> (s.s_ts, json_of_snap s)) snaps)));
    Sys.rename tmp path;
    Some path
  with Sys_error _ -> None

let write_throttled st ((m, _, _) as taken) =
  let r, t, p = !last_dump in
  let now = Clock.now () in
  if r = m.reason && now -. t < 1.0 then Some p
  else
    match write_dump st.dir taken with
    | Some path ->
      last_dump := (m.reason, now, path);
      Some path
    | None -> None

let dump ~reason () =
  match !state with
  | None -> None
  | Some st -> write_throttled st (Mutex.protect st.lock (fun () -> snapshot ~reason st))

(* Handler-side dump: never block.  On contention the request stays
   pending for the next [poll]. *)
let try_dump ~reason () =
  match !state with
  | None -> Atomic.set pending None
  | Some st ->
    if Mutex.try_lock st.lock then begin
      let taken =
        Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) (fun () -> snapshot ~reason st)
      in
      Atomic.set pending None;
      ignore (write_throttled st taken)
    end

let poll () =
  match Atomic.get pending with
  | None -> ()
  | Some reason -> try_dump ~reason ()

(* One subscription serves every arming: it records into whatever state
   is armed when a record arrives. *)
let consumer =
  {
    Event.on_span = None;
    on_record =
      Some
        (fun ~ts ~dom kind ->
          match !state with
          | None -> ()
          | Some st ->
            Mutex.protect st.lock (fun () ->
                Event.Store.add st.rings ~ts ~dom kind;
                if ts -. st.last_snap >= 1.0 then take_snap st ts));
  }

let arm ?(capacity = default_capacity) ~dir () =
  let capacity = max 1 capacity in
  (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
  let st =
    {
      capacity;
      dir;
      lock = Mutex.create ();
      rings = Event.Store.create ~capacity ();
      snaps = [];
      last_snap = neg_infinity;
    }
  in
  state := Some st;
  Atomic.set pending None;
  Event.subscribe consumer

let disarm () =
  Event.unsubscribe consumer;
  state := None;
  Atomic.set pending None

let install_signals () =
  let request reason =
    Atomic.set pending (Some reason);
    try_dump ~reason ()
  in
  ignore (Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> request "sigusr1")));
  ignore
    (Sys.signal Sys.sigterm
       (Sys.Signal_handle
          (fun _ ->
            request "sigterm";
            exit 143)))

let guard f =
  try f ()
  with e when armed () ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (dump ~reason:("exception:" ^ Printexc.exn_slot_name e) ());
    Printexc.raise_with_backtrace e bt

let read path =
  let meta = ref None and snap = ref None in
  let other j =
    let int k o = Option.value ~default:0 (Json.opt_int_field k o) in
    let num k o = match Json.field k o with Some (Json.Num f) -> f | _ -> 0.0 in
    match (Json.field "flight" j, Json.field "snap" j) with
    | Some m, _ ->
      if !meta = None then
        meta :=
          Some
            {
              reason = Option.value ~default:"" (Json.opt_str_field "reason" m);
              recorded = int "recorded" m;
              evicted = int "evicted" m;
              capacity = int "capacity" m;
              domains = int "domains" m;
            }
    | None, Some s ->
      snap :=
        Some
          {
            s_ts = num "ts" s;
            heap_words = int "heap_words" s;
            minor_words = num "minor_words" s;
            minor_collections = int "minor_collections" s;
            major_collections = int "major_collections" s;
          }
    | None, None -> ()
  in
  let events = Event.read_jsonl ~other path in
  (!meta, !snap, events)
