(* The instrumentation channel and its per-domain event store; see the
   .mli for the model. *)

(* Schema 2 extends Reduce with the victims' LBD and use-count
   histograms (clause-lifecycle analytics); readers accept schema-1
   streams, where those arrays decode as empty.  Schema 3 adds the
   [Exhausted] cancellation cause (and a clause-sharing ["share"] event,
   since removed: its lines load as unknown events and are skipped).
   Schema 4 adds the [Step] engine-kernel record.  [write_jsonl] stamps
   the lowest schema that covers the stream, so a recording without
   newer features stays loadable by older readers (which skip unknown
   events/causes anyway).  Optional fields added later (Restart's
   [propagations], Phase's [total] and counters) need no new version:
   readers default them and older readers ignore them. *)
let schema_version = 4

let min_schema_version = 1

type cause = Race_won | Deadline | Min_depth | Exhausted

type kind =
  | Restart of { conflicts : int; decisions : int; learnt : int; propagations : int }
  | Reduce of {
      kept : int;
      dropped : int;
      lbd : int array;
      dead_lbd : int array;
      dead_uses : int array;
    }
  | Itp_cut of { cut : int; support : int; nodes : int }
  | Phase of {
      phase : string;
      step : int;
      total : int;
      detail : string;
      conflicts : int;
      propagations : int;
      learnt : int;
    }
  | Spawn of { worker : int; engines : string }
  | Dispatch of { worker : int; bound : int }
  | Cancel of { worker : int; cause : cause; by : int }
  | Verdict of { worker : int; verdict : string }
  | Analyze of {
      pass : string;
      ands_before : int;
      ands_after : int;
      latches_before : int;
      latches_after : int;
    }
  | Step of { lane : int; engine : string; n : int; pos : int; status : string }

type t = { ts : float; dom : int; seq : int; kind : kind }

let cause_name = function
  | Race_won -> "winner"
  | Deadline -> "deadline"
  | Min_depth -> "min-depth"
  | Exhausted -> "exhausted"

let cause_of_name = function
  | "winner" -> Some Race_won
  | "deadline" -> Some Deadline
  | "min-depth" -> Some Min_depth
  | "exhausted" -> Some Exhausted
  | _ -> None

(* --- the channel ----------------------------------------------------------- *)

type args = (string * string) list

type span =
  | Begin of { name : string; ts : float; tid : int; args : args }
  | End of { ts : float; tid : int; args : args }

type consumer = {
  on_span : (span -> unit) option;
  on_record : (ts:float -> dom:int -> kind -> unit) option;
}

(* The subscriber list is an immutable list swapped whole on
   (un)subscription, so an emitting domain reads one consistent list
   without a lock; each consumer locks its own state.  The reader lists
   are derived from it, and their emptiness is the whole fast path of
   [emit] and [Trace.span]. *)
let subscribers : consumer list ref = ref []
let span_readers : (span -> unit) list ref = ref []
let record_readers : (ts:float -> dom:int -> kind -> unit) list ref = ref []

let refresh () =
  span_readers := List.filter_map (fun c -> c.on_span) !subscribers;
  record_readers := List.filter_map (fun c -> c.on_record) !subscribers

let subscribe c =
  if not (List.memq c !subscribers) then begin
    subscribers := !subscribers @ [ c ];
    refresh ()
  end

let unsubscribe c =
  subscribers := List.filter (fun c' -> c' != c) !subscribers;
  refresh ()

let enabled () = match !record_readers with [] -> false | _ -> true
let spans_enabled () = match !span_readers with [] -> false | _ -> true

(* Records posted with no reader at all: a call site skipped its
   [enabled] guard, or the consumers were torn down mid-run.  Visible
   through {!dropped} (surfaced as the [obs.dropped] gauge) instead of
   vanishing silently. *)
let dropped_n = Atomic.make 0
let dropped () = Atomic.get dropped_n

let emit kind =
  match !record_readers with
  | [] -> Atomic.incr dropped_n
  | readers ->
    let ts = Clock.now () in
    let dom = (Domain.self () :> int) in
    List.iter (fun f -> f ~ts ~dom kind) readers

let emit_span s = List.iter (fun f -> f s) !span_readers

let replay c evs =
  Option.iter (fun f -> List.iter (fun e -> f ~ts:e.ts ~dom:e.dom e.kind) evs) c.on_record

(* --- the per-domain store ------------------------------------------------ *)

type event = t

module Store = struct
  (* One growable array per domain, in emission order: it doubles up to
     the capacity and then wraps, so slot [i mod length] holds the
     domain's [i]-th record and the live window is the last
     [min n length] of them. *)
  type log = { mutable evs : event array; mutable n : int }

  type t = {
    capacity : int;
    logs : (int, log) Hashtbl.t; (* domain id -> log *)
    mutable recorded : int;
    mutable evicted : int;
  }

  let create ?(capacity = max_int) () =
    { capacity = max 1 capacity; logs = Hashtbl.create 4; recorded = 0; evicted = 0 }

  let add st ~ts ~dom kind =
    let l =
      match Hashtbl.find_opt st.logs dom with
      | Some l -> l
      | None ->
        let l = { evs = [||]; n = 0 } in
        Hashtbl.add st.logs dom l;
        l
    in
    let e = { ts; dom; seq = l.n; kind } in
    let len = Array.length l.evs in
    if l.n < len then l.evs.(l.n) <- e
    else if len < st.capacity then begin
      (* The grown array is filled with [e], which puts it in slot [n]. *)
      let evs = Array.make (min (max 64 (2 * len)) st.capacity) e in
      Array.blit l.evs 0 evs 0 len;
      l.evs <- evs
    end
    else begin
      l.evs.(l.n mod len) <- e;
      st.evicted <- st.evicted + 1
    end;
    l.n <- l.n + 1;
    st.recorded <- st.recorded + 1

  let recorded st = st.recorded
  let evicted st = st.evicted
  let domains st = Hashtbl.length st.logs

  (* Merged order is a pure function of the store: (ts, dom, seq) is a
     total order — seq breaks ties inside a domain (the clock is
     monotonic but not strictly), dom breaks ties across domains. *)
  let events st =
    let window _dom l acc =
      let len = Array.length l.evs in
      let out = ref acc in
      for i = l.n - 1 downto max 0 (l.n - len) do
        out := l.evs.(i mod len) :: !out
      done;
      !out
    in
    List.sort
      (fun a b ->
        if a.ts <> b.ts then compare a.ts b.ts
        else if a.dom <> b.dom then compare a.dom b.dom
        else compare a.seq b.seq)
      (Hashtbl.fold window st.logs [])
end

(* --- recording --------------------------------------------------------- *)

type recorder = { store : Store.t; lock : Mutex.t }

let recorder () = { store = Store.create (); lock = Mutex.create () }

let recording r =
  let record ~ts ~dom kind = Mutex.protect r.lock (fun () -> Store.add r.store ~ts ~dom kind) in
  { on_span = None; on_record = Some record }

let count r = Mutex.protect r.lock (fun () -> Store.recorded r.store)
let events r = Mutex.protect r.lock (fun () -> Store.events r.store)

(* --- JSONL --------------------------------------------------------------- *)

(* Appends the ["ev"] tag and the fields of [kind] to an open object. *)
let add_kind b kind =
  Buffer.add_string b "\"ev\":";
  match kind with
  | Restart { conflicts; decisions; learnt; propagations } ->
    Buffer.add_string b
      (Printf.sprintf
         "\"restart\",\"conflicts\":%d,\"decisions\":%d,\"learnt\":%d,\"propagations\":%d"
         conflicts decisions learnt propagations)
  | Reduce { kept; dropped; lbd; dead_lbd; dead_uses } ->
    let arr name a =
      Buffer.add_string b (Printf.sprintf ",\"%s\":[" name);
      Array.iteri
        (fun i n ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (string_of_int n))
        a;
      Buffer.add_char b ']'
    in
    Buffer.add_string b (Printf.sprintf "\"reduce\",\"kept\":%d,\"dropped\":%d" kept dropped);
    arr "lbd" lbd;
    if Array.length dead_lbd > 0 then arr "dead_lbd" dead_lbd;
    if Array.length dead_uses > 0 then arr "dead_uses" dead_uses
  | Itp_cut { cut; support; nodes } ->
    Buffer.add_string b
      (Printf.sprintf "\"itp.cut\",\"cut\":%d,\"support\":%d,\"nodes\":%d" cut support
         nodes)
  | Phase { phase; step; total; detail; conflicts; propagations; learnt } ->
    let int_field name v = Buffer.add_string b (Printf.sprintf ",\"%s\":%d" name v) in
    Buffer.add_string b (Printf.sprintf "\"phase\",\"phase\":%s" (Json.quote phase));
    if step >= 0 then int_field "step" step;
    if total >= 0 then int_field "total" total;
    if detail <> "" then
      Buffer.add_string b (Printf.sprintf ",\"detail\":%s" (Json.quote detail));
    if conflicts > 0 then int_field "conflicts" conflicts;
    if propagations > 0 then int_field "propagations" propagations;
    if learnt > 0 then int_field "learnt" learnt
  | Spawn { worker; engines } ->
    Buffer.add_string b
      (Printf.sprintf "\"spawn\",\"worker\":%d,\"engines\":%s" worker
         (Json.quote engines))
  | Dispatch { worker; bound } ->
    Buffer.add_string b (Printf.sprintf "\"dispatch\",\"worker\":%d,\"bound\":%d" worker bound)
  | Cancel { worker; cause; by } ->
    Buffer.add_string b
      (Printf.sprintf "\"cancel\",\"worker\":%d,\"cause\":\"%s\",\"by\":%d" worker
         (cause_name cause) by)
  | Verdict { worker; verdict } ->
    Buffer.add_string b
      (Printf.sprintf "\"verdict\",\"worker\":%d,\"verdict\":%s" worker
         (Json.quote verdict))
  | Analyze { pass; ands_before; ands_after; latches_before; latches_after } ->
    Buffer.add_string b
      (Printf.sprintf
         "\"analyze\",\"pass\":%s,\"ands_before\":%d,\"ands_after\":%d,\"latches_before\":%d,\"latches_after\":%d"
         (Json.quote pass) ands_before ands_after latches_before latches_after)
  | Step { lane; engine; n; pos; status } ->
    Buffer.add_string b
      (Printf.sprintf
         "\"step\",\"lane\":%d,\"engine\":%s,\"n\":%d,\"pos\":%d,\"status\":%s" lane
         (Json.quote engine) n pos (Json.quote status))

let json_of_kind kind =
  let b = Buffer.create 96 in
  Buffer.add_char b '{';
  add_kind b kind;
  Buffer.add_char b '}';
  Buffer.contents b

let json_of_event e =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "{\"ts\":%.6f,\"dom\":%d,\"seq\":%d," e.ts e.dom e.seq);
  add_kind b e.kind;
  Buffer.add_char b '}';
  Buffer.contents b

(* The lowest header version that covers the stream: older readers must
   keep loading recordings that use none of the newer features. *)
let schema_needed evs =
  let has p = List.exists (fun e -> p e.kind) evs in
  if has (function Step _ -> true | _ -> false) then schema_version
  else if has (function Cancel { cause = Exhausted; _ } -> true | _ -> false) then 3
  else 2

let write_jsonl r oc =
  let evs = events r in
  output_string oc
    (Printf.sprintf "{\"stream\":\"isr-events\",\"schema\":%d}\n" (schema_needed evs));
  List.iter
    (fun e ->
      output_string oc (json_of_event e);
      output_char oc '\n')
    evs

(* A line missing a field its kind requires decodes as [None] and is
   skipped like a torn line: the typed accessors raise [Parse_error]
   naming the field, and that is the only error this function can meet. *)
let event_of_json j =
  match Json.field "ev" j with
  | Some (Json.Str ev) -> (
    let num name = int_of_float (Json.num_field name j) in
    let onum ~default name = Option.value ~default (Json.opt_int_field name j) in
    let ostr name = Option.value ~default:"" (Json.opt_str_field name j) in
    try
      let kind =
        match ev with
        | "restart" ->
          Some
            (Restart
               {
                 conflicts = num "conflicts";
                 decisions = num "decisions";
                 learnt = num "learnt";
                 propagations = onum ~default:0 "propagations";
               })
        | "reduce" ->
          (* Missing arrays decode as empty, which is also how schema-1
             lines (no dead_* fields) stay loadable. *)
          let arr name =
            match Json.field name j with
            | Some (Json.Arr xs) ->
              Array.of_list
                (List.filter_map
                   (function Json.Num f -> Some (int_of_float f) | _ -> None)
                   xs)
            | _ -> [||]
          in
          Some
            (Reduce
               {
                 kept = num "kept";
                 dropped = num "dropped";
                 lbd = arr "lbd";
                 dead_lbd = arr "dead_lbd";
                 dead_uses = arr "dead_uses";
               })
        | "itp.cut" ->
          Some (Itp_cut { cut = num "cut"; support = num "support"; nodes = num "nodes" })
        | "phase" ->
          Some
            (Phase
               {
                 phase = Json.str_field "phase" j;
                 step = onum ~default:(-1) "step";
                 total = onum ~default:(-1) "total";
                 detail = ostr "detail";
                 conflicts = onum ~default:0 "conflicts";
                 propagations = onum ~default:0 "propagations";
                 learnt = onum ~default:0 "learnt";
               })
        | "spawn" -> Some (Spawn { worker = num "worker"; engines = ostr "engines" })
        | "dispatch" -> Some (Dispatch { worker = num "worker"; bound = num "bound" })
        | "cancel" -> (
          match cause_of_name (Json.str_field "cause" j) with
          | Some cause -> Some (Cancel { worker = num "worker"; cause; by = num "by" })
          | None -> None)
        | "verdict" ->
          Some (Verdict { worker = num "worker"; verdict = Json.str_field "verdict" j })
        | "analyze" ->
          Some
            (Analyze
               {
                 pass = Json.str_field "pass" j;
                 ands_before = num "ands_before";
                 ands_after = num "ands_after";
                 latches_before = num "latches_before";
                 latches_after = num "latches_after";
               })
        | "step" ->
          Some
            (Step
               {
                 lane = num "lane";
                 engine = ostr "engine";
                 n = num "n";
                 pos = num "pos";
                 status = ostr "status";
               })
        | _ -> None
      in
      Option.map
        (fun kind ->
          { ts = Json.num_field "ts" j; dom = num "dom"; seq = onum ~default:(-1) "seq"; kind })
        kind
    with Json.Parse_error _ -> None)
  | _ -> None

let read_jsonl ?(other = ignore) path =
  let ic =
    try open_in path with Sys_error msg -> failwith ("Event.read_jsonl: " ^ msg)
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let out = ref [] in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then begin
             match Json.parse line with
             | exception Json.Parse_error _ -> ()
             | j -> (
               match Json.field "stream" j with
               | Some (Json.Str "isr-events") -> (
                 match Json.opt_int_field "schema" j with
                 | Some v when v >= min_schema_version && v <= schema_version -> ()
                 | Some v ->
                   failwith
                     (Printf.sprintf
                        "Event.read_jsonl %s: unsupported schema %d (expected %d..%d)" path
                        v min_schema_version schema_version)
                 | None ->
                   failwith (Printf.sprintf "Event.read_jsonl %s: header without a schema" path))
               | _ -> (
                 match event_of_json j with Some e -> out := e :: !out | None -> other j))
           end
         done
       with End_of_file -> ());
      List.rev !out)
