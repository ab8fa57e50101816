(* Flight recorder; see the .mli for the model.

   Concurrency: the rings are filled through an Event subscription from
   every racing domain, so all ring state lives under one mutex (records
   arrive
   at the solver's coarse cadence — restarts, reductions, phases — not
   per propagation).  Signal handlers are the delicate part: OCaml runs
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

type ring = { evs : Event.t array; mutable n : int }

type state = {
  capacity : int;
  dir : string;
  lock : Mutex.t;
  rings : (int, ring) Hashtbl.t; (* domain id -> ring *)
  mutable recorded : int;
  mutable evicted : int;
  mutable snaps : snap list; (* newest first, capped *)
  mutable nsnaps : int;
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

let dummy_event =
  { Event.ts = 0.0; dom = 0; seq = -1; kind = Event.Dispatch { worker = 0; bound = 0 } }

let armed () = !state <> None
let recorded () = match !state with None -> 0 | Some st -> st.recorded
let evicted () = match !state with None -> 0 | Some st -> st.evicted

let ring_of (st : state) dom =
  match Hashtbl.find_opt st.rings dom with
  | Some r -> r
  | None ->
    let r = { evs = Array.make st.capacity dummy_event; n = 0 } in
    Hashtbl.add st.rings dom r;
    r

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
  st.snaps <- s :: (if st.nsnaps >= max_snaps then List.filteri (fun i _ -> i < max_snaps - 1) st.snaps else st.snaps);
  st.nsnaps <- min (st.nsnaps + 1) max_snaps

(* Called under [st.lock]. *)
let record_locked (st : state) ~ts ~dom kind =
  let r = ring_of st dom in
  let seq = r.n in
  r.evs.(seq mod st.capacity) <- { Event.ts; dom; seq; kind };
  if seq >= st.capacity then st.evicted <- st.evicted + 1;
  r.n <- seq + 1;
  st.recorded <- st.recorded + 1;
  if ts -. st.last_snap >= 1.0 then take_snap st ts

(* Called under [st.lock]: each ring's live window in emission order. *)
let ring_events (st : state) =
  Hashtbl.fold
    (fun _dom r acc ->
      let len = min r.n st.capacity in
      let first = r.n - len in
      let out = ref acc in
      for i = first to r.n - 1 do
        out := r.evs.(i mod st.capacity) :: !out
      done;
      !out)
    st.rings []

let sort_events =
  List.sort (fun (a : Event.t) (b : Event.t) ->
      if a.Event.ts <> b.Event.ts then compare a.Event.ts b.Event.ts
      else if a.Event.dom <> b.Event.dom then compare a.Event.dom b.Event.dom
      else compare a.Event.seq b.Event.seq)

let events () =
  match !state with
  | None -> []
  | Some st -> sort_events (Mutex.protect st.lock (fun () -> ring_events st))

let json_of_snap s =
  Printf.sprintf
    "{\"snap\":{\"ts\":%.6f,\"heap_words\":%d,\"minor_words\":%.0f,\"minor_collections\":%d,\"major_collections\":%d}}"
    s.s_ts s.heap_words s.minor_words s.minor_collections s.major_collections

(* File IO happens outside the ring lock, on a snapshot of the state.
   Torn-tail safety comes from the rename: a dump interrupted mid-write
   leaves the previous complete file (or nothing), never half a line. *)
let write_dump ~reason (st : state) evs snaps =
  let path = Filename.concat st.dir "flight.jsonl" in
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
             (Json.quote reason) st.recorded st.evicted st.capacity
             (Hashtbl.length st.rings));
        (* Merge GC snapshots into the event timeline by timestamp, so a
           reader scrolling the tail sees memory next to the search. *)
        let rec interleave evs snaps =
          match (evs, snaps) with
          | [], [] -> ()
          | (e : Event.t) :: evs', s :: _ when e.Event.ts <= s.s_ts ->
            output_string oc (Event.json_of_event e);
            output_char oc '\n';
            interleave evs' snaps
          | (e : Event.t) :: evs', [] ->
            output_string oc (Event.json_of_event e);
            output_char oc '\n';
            interleave evs' snaps
          | evs, s :: snaps' ->
            output_string oc (json_of_snap s);
            output_char oc '\n';
            interleave evs snaps'
        in
        interleave evs snaps);
    Sys.rename tmp path;
    Some path
  with Sys_error _ -> None

let dump_of_snapshot ~reason st evs snaps =
  let r, t, p = !last_dump in
  let now = Clock.now () in
  if r = reason && now -. t < 1.0 then Some p
  else
    match write_dump ~reason st evs snaps with
    | Some path ->
      last_dump := (reason, now, path);
      Some path
    | None -> None

let dump ~reason () =
  match !state with
  | None -> None
  | Some st ->
    let evs, snaps =
      Mutex.protect st.lock (fun () -> (ring_events st, List.rev st.snaps))
    in
    dump_of_snapshot ~reason st (sort_events evs) snaps

(* Handler-side dump: never block.  On contention the request stays
   pending for the next [poll]. *)
let try_dump ~reason () =
  match !state with
  | None -> Atomic.set pending None
  | Some st ->
    if Mutex.try_lock st.lock then begin
      let evs, snaps =
        Fun.protect
          ~finally:(fun () -> Mutex.unlock st.lock)
          (fun () -> (ring_events st, List.rev st.snaps))
      in
      Atomic.set pending None;
      ignore (dump_of_snapshot ~reason st (sort_events evs) snaps)
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
          | Some st -> Mutex.protect st.lock (fun () -> record_locked st ~ts ~dom kind));
  }

let arm ?(capacity = default_capacity) ~dir () =
  let capacity = max 1 capacity in
  (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
  let st =
    {
      capacity;
      dir;
      lock = Mutex.create ();
      rings = Hashtbl.create 4;
      recorded = 0;
      evicted = 0;
      snaps = [];
      nsnaps = 0;
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
  let events = Event.read_jsonl path in
  let meta = ref None in
  let ic = try open_in path with Sys_error msg -> failwith ("Flight.read: " ^ msg) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while !meta = None do
          let line = input_line ic in
          if String.trim line <> "" then
            match Json.parse line with
            | exception Json.Parse_error _ -> ()
            | j -> (
              match Json.field "flight" j with
              | Some fj ->
                meta :=
                  Some
                    {
                      reason = Option.value ~default:"" (Json.opt_str_field "reason" fj);
                      recorded = Option.value ~default:0 (Json.opt_int_field "recorded" fj);
                      evicted = Option.value ~default:0 (Json.opt_int_field "evicted" fj);
                      capacity = Option.value ~default:0 (Json.opt_int_field "capacity" fj);
                      domains = Option.value ~default:0 (Json.opt_int_field "domains" fj);
                    }
              | None -> ())
        done
      with End_of_file -> ());
  (!meta, events)
