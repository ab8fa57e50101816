(* The instrumentation channel and its packed recorder; see the .mli
   for the model.

   On-the-wire layout (per-domain int buffers): each record is
     [code; ts_ns; payload...]
   with a fixed payload arity per code (the Reduce LBD snapshot is
   length-prefixed).  Strings are interned into one shared table, so a
   phase name costs one int per event no matter how often it fires. *)

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

let cause_code = function Race_won -> 0 | Deadline -> 1 | Min_depth -> 2 | Exhausted -> 3
let cause_of_code = function 0 -> Race_won | 1 -> Deadline | 3 -> Exhausted | _ -> Min_depth

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

(* --- recording --------------------------------------------------------- *)

type buf = { mutable a : int array; mutable len : int }

let mk_buf () = { a = Array.make 256 0; len = 0 }

let push b x =
  if b.len = Array.length b.a then begin
    let a' = Array.make (2 * b.len) 0 in
    Array.blit b.a 0 a' 0 b.len;
    b.a <- a'
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

type recorder = {
  mutable strings : string array; (* id -> string *)
  mutable nstrings : int;
  ids : (string, int) Hashtbl.t;
  bufs : (int, buf) Hashtbl.t; (* domain id -> packed stream *)
  mutable nevents : int;
  lock : Mutex.t;
}

let recorder () =
  {
    strings = Array.make 16 "";
    nstrings = 0;
    ids = Hashtbl.create 16;
    bufs = Hashtbl.create 4;
    nevents = 0;
    lock = Mutex.create ();
  }

(* Call under [r.lock]. *)
let intern r s =
  match Hashtbl.find_opt r.ids s with
  | Some id -> id
  | None ->
    if r.nstrings = Array.length r.strings then begin
      let a' = Array.make (2 * r.nstrings) "" in
      Array.blit r.strings 0 a' 0 r.nstrings;
      r.strings <- a'
    end;
    let id = r.nstrings in
    r.strings.(id) <- s;
    r.nstrings <- id + 1;
    Hashtbl.add r.ids s id;
    id

let buf_of r dom =
  match Hashtbl.find_opt r.bufs dom with
  | Some b -> b
  | None ->
    let b = mk_buf () in
    Hashtbl.add r.bufs dom b;
    b

(* Nanosecond timestamps keep the packed stream all-int without losing
   clock resolution (the process clock starts at 0, so 63 bits last
   centuries). *)
let ns_of_ts ts = int_of_float (ts *. 1e9)
let ts_of_ns ns = float_of_int ns *. 1e-9

let record r ~ts ~dom kind =
  Mutex.protect r.lock (fun () ->
        let b = buf_of r dom in
        let str s = intern r s in
        push b
          (match kind with
          | Restart _ -> 0
          | Reduce _ -> 1
          | Itp_cut _ -> 2
          | Phase _ -> 3
          | Spawn _ -> 4
          | Dispatch _ -> 5
          | Cancel _ -> 6
          | Verdict _ -> 7
          | Analyze _ -> 8
          (* 9 is unused, so the codes of the other kinds keep their values. *)
          | Step _ -> 10);
        push b (ns_of_ts ts);
        (match kind with
        | Restart { conflicts; decisions; learnt; propagations } ->
          push b conflicts;
          push b decisions;
          push b learnt;
          push b propagations
        | Reduce { kept; dropped; lbd; dead_lbd; dead_uses } ->
          push b kept;
          push b dropped;
          push b (Array.length lbd);
          Array.iter (push b) lbd;
          push b (Array.length dead_lbd);
          Array.iter (push b) dead_lbd;
          push b (Array.length dead_uses);
          Array.iter (push b) dead_uses
        | Itp_cut { cut; support; nodes } ->
          push b cut;
          push b support;
          push b nodes
        | Phase { phase; step; total; detail; conflicts; propagations; learnt } ->
          push b (str phase);
          push b step;
          push b (str detail);
          push b total;
          push b conflicts;
          push b propagations;
          push b learnt
        | Spawn { worker; engines } ->
          push b worker;
          push b (str engines)
        | Dispatch { worker; bound } ->
          push b worker;
          push b bound
        | Cancel { worker; cause; by } ->
          push b worker;
          push b (cause_code cause);
          push b by
        | Verdict { worker; verdict } ->
          push b worker;
          push b (str verdict)
        | Analyze { pass; ands_before; ands_after; latches_before; latches_after } ->
          push b (str pass);
          push b ands_before;
          push b ands_after;
          push b latches_before;
          push b latches_after
        | Step { lane; engine; n; pos; status } ->
          push b lane;
          push b (str engine);
          push b n;
          push b pos;
          push b (str status));
        r.nevents <- r.nevents + 1)

let recording r = { on_span = None; on_record = Some (record r) }

let count r = Mutex.protect r.lock (fun () -> r.nevents)

(* --- decoding and deterministic merge ----------------------------------- *)

let decode_domain r dom (b : buf) =
  let s id = r.strings.(id) in
  let out = ref [] in
  let seq = ref 0 in
  let i = ref 0 in
  while !i < b.len do
    let code = b.a.(!i) and ts = ts_of_ns b.a.(!i + 1) in
    let p = !i + 2 in
    let kind, next =
      match code with
      | 0 ->
        ( Restart
            {
              conflicts = b.a.(p);
              decisions = b.a.(p + 1);
              learnt = b.a.(p + 2);
              propagations = b.a.(p + 3);
            },
          p + 4 )
      | 1 ->
        let n = b.a.(p + 2) in
        let q = p + 3 + n in
        let nd = b.a.(q) in
        let nu = b.a.(q + 1 + nd) in
        ( Reduce
            {
              kept = b.a.(p);
              dropped = b.a.(p + 1);
              lbd = Array.sub b.a (p + 3) n;
              dead_lbd = Array.sub b.a (q + 1) nd;
              dead_uses = Array.sub b.a (q + 2 + nd) nu;
            },
          q + 2 + nd + nu )
      | 2 ->
        (Itp_cut { cut = b.a.(p); support = b.a.(p + 1); nodes = b.a.(p + 2) }, p + 3)
      | 3 ->
        ( Phase
            {
              phase = s b.a.(p);
              step = b.a.(p + 1);
              detail = s b.a.(p + 2);
              total = b.a.(p + 3);
              conflicts = b.a.(p + 4);
              propagations = b.a.(p + 5);
              learnt = b.a.(p + 6);
            },
          p + 7 )
      | 4 -> (Spawn { worker = b.a.(p); engines = s b.a.(p + 1) }, p + 2)
      | 5 -> (Dispatch { worker = b.a.(p); bound = b.a.(p + 1) }, p + 2)
      | 6 ->
        ( Cancel { worker = b.a.(p); cause = cause_of_code b.a.(p + 1); by = b.a.(p + 2) },
          p + 3 )
      | 7 -> (Verdict { worker = b.a.(p); verdict = s b.a.(p + 1) }, p + 2)
      | 8 ->
        ( Analyze
            {
              pass = s b.a.(p);
              ands_before = b.a.(p + 1);
              ands_after = b.a.(p + 2);
              latches_before = b.a.(p + 3);
              latches_after = b.a.(p + 4);
            },
          p + 5 )
      | 10 ->
        ( Step
            {
              lane = b.a.(p);
              engine = s b.a.(p + 1);
              n = b.a.(p + 2);
              pos = b.a.(p + 3);
              status = s b.a.(p + 4);
            },
          p + 5 )
      | c -> invalid_arg (Printf.sprintf "Event.decode: bad code %d" c)
    in
    out := { ts; dom; seq = !seq; kind } :: !out;
    incr seq;
    i := next
  done;
  List.rev !out

(* Merged order is a pure function of the recording: (ts, dom, seq) is a
   total order — seq breaks ties inside a domain (the clock is
   monotonic but not strictly), dom breaks ties across domains. *)
let events r =
  Mutex.protect r.lock (fun () ->
      let streams =
        Hashtbl.fold (fun dom b acc -> decode_domain r dom b :: acc) r.bufs []
      in
      List.sort
        (fun a b ->
          if a.ts <> b.ts then compare a.ts b.ts
          else if a.dom <> b.dom then compare a.dom b.dom
          else compare a.seq b.seq)
        (List.concat streams))

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

let read_jsonl path =
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
                 match event_of_json j with Some e -> out := e :: !out | None -> ()))
           end
         done
       with End_of_file -> ());
      List.rev !out)
