(* Tests for the observability library: span emission order and nesting,
   exception safety, histogram bucket boundaries, Chrome trace JSON
   well-formedness (via a small parser), the unsubscribed fast path, and
   the end-to-end span structure of a real engine run. *)

open Isr_obs

(* A consumer that keeps every span, for the extent of [f]. *)
let with_span_log f =
  let log = ref [] in
  let c = { Event.on_span = Some (fun e -> log := e :: !log); on_record = None } in
  Event.subscribe c;
  Fun.protect ~finally:(fun () -> Event.unsubscribe c) (fun () -> f (fun () -> List.rev !log))

let phase ?(step = -1) ?(total = -1) ?(detail = "") ?(conflicts = 0) ?(propagations = 0)
    ?(learnt = 0) name =
  Event.Phase { phase = name; step; total; detail; conflicts; propagations; learnt }

(* --- spans ---------------------------------------------------------------- *)

let test_span_order () =
  with_span_log (fun events ->
      let r =
        Trace.span "outer" ~args:[ ("k", "1") ] (fun () ->
            Trace.span "inner" (fun () -> 42))
      in
      Alcotest.(check int) "result" 42 r;
      match events () with
      | [ Trace.Begin b1; Trace.Begin b2; Trace.End e2; Trace.End e1 ] ->
        Alcotest.(check string) "outer name" "outer" b1.name;
        Alcotest.(check string) "inner name" "inner" b2.name;
        Alcotest.(check (list (pair string string))) "args" [ ("k", "1") ] b1.args;
        let ts = [ b1.ts; b2.ts; e2.ts; e1.ts ] in
        Alcotest.(check bool) "timestamps sorted" true (List.sort compare ts = ts);
        Alcotest.(check bool) "non-negative" true (b1.ts >= 0.0)
      | evs -> Alcotest.failf "unexpected event shape (%d events)" (List.length evs))

let test_span_exception () =
  with_span_log (fun events ->
      (try Trace.span "boom" (fun () -> failwith "no") with Failure _ -> ());
      match events () with
      | [ Trace.Begin _; Trace.End e ] ->
        Alcotest.(check (list (pair string string)))
          "exception arg"
          [ ("exception", "Failure") ]
          e.args
      | _ -> Alcotest.fail "expected exactly Begin/End")

(* The two flags follow the subscriber list: a span reader turns spans
   on and leaves search payloads off, and a record reader the reverse. *)
let test_span_and_record_flags () =
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  Alcotest.(check bool) "records off by default" false (Event.enabled ());
  with_span_log (fun events ->
      Alcotest.(check bool) "enabled with sink" true (Trace.enabled ());
      Alcotest.(check bool) "a span reader leaves records off" false (Event.enabled ());
      Trace.span "mark" ~args:[ ("x", "y") ] (fun () -> ());
      match events () with
      | [ Trace.Begin b; Trace.End _ ] -> Alcotest.(check string) "name" "mark" b.name
      | _ -> Alcotest.fail "expected one span");
  Alcotest.(check bool) "disabled after clear" false (Trace.enabled ());
  let reader = { Event.on_span = None; on_record = Some (fun ~ts:_ ~dom:_ _ -> ()) } in
  Event.subscribe reader;
  Fun.protect
    ~finally:(fun () -> Event.unsubscribe reader)
    (fun () ->
      Alcotest.(check bool) "a record reader turns records on" true (Event.enabled ());
      Alcotest.(check bool) "a record reader leaves spans off" false (Trace.enabled ()));
  Alcotest.(check bool) "records off after unsubscribe" false (Event.enabled ())

(* The disabled fast path must not allocate: a span with a pre-built
   thunk is a flag test plus a call. *)
let test_null_sink_no_alloc () =
  Trace.clear_sink ();
  let f = fun () -> 0 in
  ignore (Trace.span "warm" f);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Trace.span "hot" f)
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "minor words (%.0f) below bound" delta)
    true (delta < 100.0)

(* --- histograms ----------------------------------------------------------- *)

let test_bucket_boundaries () =
  let check v b =
    Alcotest.(check int) (Printf.sprintf "bucket_of %g" v) b (Metrics.bucket_of v)
  in
  check 0.0 0;
  check 0.5 0;
  check 1.0 0;
  check 1.5 1;
  check 2.0 1;
  check 2.1 2;
  check 4.0 2;
  check 1024.0 10;
  check 1025.0 11;
  Alcotest.(check (float 0.0)) "upper of 10" 1024.0 (Metrics.bucket_upper 10);
  (* The defining invariant: v fits its bucket but not the one below. *)
  List.iter
    (fun v ->
      let b = Metrics.bucket_of v in
      Alcotest.(check bool) "v <= upper" true (v <= Metrics.bucket_upper b);
      if b > 0 then
        Alcotest.(check bool) "v > upper of previous" true
          (v > Metrics.bucket_upper (b - 1)))
    [ 0.3; 1.0; 1.0001; 3.0; 7.9; 8.0; 8.1; 100.0; 65536.0; 1e12 ]

let test_histogram_observe () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "h" in
  List.iter (Metrics.observe h) [ 1.0; 1.0; 3.0; 100.0 ];
  Alcotest.(check int) "count" 4 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 105.0 (Metrics.hist_sum h);
  Alcotest.(check (float 0.0)) "max" 100.0 (Metrics.hist_max h);
  Alcotest.(check (list (pair (float 0.0) int)))
    "buckets"
    [ (1.0, 2); (4.0, 1); (128.0, 1) ]
    (Metrics.hist_buckets h)

(* --- registry ------------------------------------------------------------- *)

let test_counters_gauges () =
  let r = Metrics.create () in
  let c = Metrics.counter r "c" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.value c);
  Alcotest.(check int) "find-or-create" 5 (Metrics.value (Metrics.counter r "c"));
  let g = Metrics.gauge r "g" in
  Metrics.set g 3.0;
  Metrics.set_max g 2.0;
  Alcotest.(check (float 0.0)) "set_max keeps max" 3.0 (Metrics.gauge_value g);
  Metrics.set_max g 7.0;
  Alcotest.(check (float 0.0)) "set_max raises" 7.0 (Metrics.gauge_value g);
  Alcotest.check_raises "kind clash" (Invalid_argument "Metrics.gauge: c is not a gauge")
    (fun () -> ignore (Metrics.gauge r "c"));
  Alcotest.(check (list string)) "names in order" [ "c"; "g" ] (Metrics.names r)

let test_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add (Metrics.counter a "n") 2;
  Metrics.add (Metrics.counter b "n") 3;
  Metrics.set (Metrics.gauge a "g") 5.0;
  Metrics.set (Metrics.gauge b "g") 4.0;
  Metrics.observe (Metrics.histogram b "h") 3.0;
  Metrics.add (Metrics.counter b "only_b") 9;
  Metrics.merge ~into:a b;
  Alcotest.(check int) "counters add" 5 (Metrics.value (Metrics.counter a "n"));
  Alcotest.(check (float 0.0)) "gauges max" 5.0
    (Metrics.gauge_value (Metrics.gauge a "g"));
  Alcotest.(check int) "histogram copied" 1
    (Metrics.hist_count (Metrics.histogram a "h"));
  Alcotest.(check int) "absent metric created" 9
    (Metrics.value (Metrics.counter a "only_b"));
  (* Source unchanged. *)
  Alcotest.(check int) "src intact" 3 (Metrics.value (Metrics.counter b "n"))

let test_hist_mean_quantile () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "h" in
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Metrics.hist_mean h);
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Metrics.hist_quantile h 0.5);
  (* Constant distribution: the min/max clamp makes every quantile exact. *)
  List.iter (Metrics.observe h) [ 4.0; 4.0; 4.0; 4.0 ];
  Alcotest.(check (float 1e-9)) "constant mean" 4.0 (Metrics.hist_mean h);
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "constant q=%g" q)
        4.0 (Metrics.hist_quantile h q))
    [ 0.0; 0.25; 0.5; 1.0 ];
  (* 1..8: exact mean and endpoints, monotone interpolation in between. *)
  let h2 = Metrics.histogram r "h2" in
  List.iter (fun v -> Metrics.observe h2 (float_of_int v)) [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Alcotest.(check (float 1e-9)) "mean 1..8" 4.5 (Metrics.hist_mean h2);
  Alcotest.(check (float 1e-9)) "q0 is min" 1.0 (Metrics.hist_quantile h2 0.0);
  Alcotest.(check (float 1e-9)) "q1 is max" 8.0 (Metrics.hist_quantile h2 1.0);
  Alcotest.(check (float 1e-9)) "median" 4.0 (Metrics.hist_quantile h2 0.5);
  let qs = List.map (Metrics.hist_quantile h2) [ 0.0; 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ] in
  Alcotest.(check bool) "monotone" true (List.sort compare qs = qs);
  List.iter
    (fun q ->
      let v = Metrics.hist_quantile h2 q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%g within [min,max]" q)
        true
        (v >= 1.0 && v <= 8.0))
    [ 0.05; 0.33; 0.66; 0.95 ];
  (* Out-of-range ranks clamp; nan is refused. *)
  Alcotest.(check (float 1e-9)) "q<0 clamps" 1.0 (Metrics.hist_quantile h2 (-3.0));
  Alcotest.(check (float 1e-9)) "q>1 clamps" 8.0 (Metrics.hist_quantile h2 2.0);
  Alcotest.check_raises "nan refused" (Invalid_argument "Metrics.hist_quantile: nan")
    (fun () -> ignore (Metrics.hist_quantile h2 Float.nan))

let test_merge_edge_cases () =
  (* Merging an empty registry is a no-op, whatever the destination. *)
  let a = Metrics.create () in
  Metrics.merge ~into:a (Metrics.create ());
  Alcotest.(check (list string)) "empty into empty" [] (Metrics.names a);
  Metrics.add (Metrics.counter a "n") 2;
  Metrics.merge ~into:a (Metrics.create ());
  Alcotest.(check int) "empty into populated" 2 (Metrics.value (Metrics.counter a "n"));
  (* Merging into an empty registry copies everything... *)
  let src = Metrics.create () in
  Metrics.add (Metrics.counter src "c") 3;
  Metrics.set (Metrics.gauge src "g") 2.5;
  List.iter (Metrics.observe (Metrics.histogram src "h")) [ 1.0; 100.0 ];
  let dst = Metrics.create () in
  Metrics.merge ~into:dst src;
  Alcotest.(check int) "counter copied" 3 (Metrics.value (Metrics.counter dst "c"));
  Alcotest.(check (float 0.0)) "gauge copied" 2.5 (Metrics.gauge_value (Metrics.gauge dst "g"));
  (* ...and a second merge doubles counters and histograms but keeps the
     gauge maximum. *)
  Metrics.merge ~into:dst src;
  Alcotest.(check int) "counter doubled" 6 (Metrics.value (Metrics.counter dst "c"));
  Alcotest.(check (float 0.0)) "gauge max kept" 2.5 (Metrics.gauge_value (Metrics.gauge dst "g"));
  let h = Metrics.histogram dst "h" in
  Alcotest.(check int) "hist count doubled" 4 (Metrics.hist_count h);
  (* The bucket-wise sums survive the derived statistics: min/max carry
     over from the sources, so the quantile endpoints stay exact. *)
  Alcotest.(check (float 0.0)) "merged min" 1.0 (Metrics.hist_min h);
  Alcotest.(check (float 0.0)) "merged max" 100.0 (Metrics.hist_max h);
  Alcotest.(check (float 1e-9)) "merged q0" 1.0 (Metrics.hist_quantile h 0.0);
  Alcotest.(check (float 1e-9)) "merged q1" 100.0 (Metrics.hist_quantile h 1.0);
  Alcotest.(check (float 1e-9)) "merged mean" 50.5 (Metrics.hist_mean h);
  (* Disjoint histograms combine bucket-wise. *)
  let x = Metrics.create () and y = Metrics.create () in
  List.iter (Metrics.observe (Metrics.histogram x "l")) [ 1.0; 1.0 ];
  Metrics.observe (Metrics.histogram y "l") 8.0;
  Metrics.merge ~into:x y;
  Alcotest.(check (list (pair (float 0.0) int)))
    "bucket-wise" [ (1.0, 2); (8.0, 1) ]
    (Metrics.hist_buckets (Metrics.histogram x "l"))

(* --- a small JSON parser for the parse-back tests ------------------------- *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jlist of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let bad msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\n' | '\t' | '\r' ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else bad (Printf.sprintf "expected %c" c) in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '\000' -> bad "unterminated string"
      | '"' ->
        incr pos;
        Buffer.contents b
      | '\\' ->
        incr pos;
        let c = peek () in
        incr pos;
        (match c with
        | '"' | '\\' | '/' -> Buffer.add_char b c
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' ->
          pos := !pos + 4;
          Buffer.add_char b '?'
        | _ -> bad "bad escape");
        go ()
      | c ->
        incr pos;
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while num_char (peek ()) do
      incr pos
    done;
    if !pos = start then bad "expected number";
    Jnum (float_of_string (String.sub s start (!pos - start)))
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else bad "bad literal"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Jstr (parse_string ())
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        Jobj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          if peek () = ',' then begin
            incr pos;
            members ((k, v) :: acc)
          end
          else begin
            expect '}';
            List.rev ((k, v) :: acc)
          end
        in
        Jobj (members [])
      end
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        Jlist []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          if peek () = ',' then begin
            incr pos;
            elems (v :: acc)
          end
          else begin
            expect ']';
            List.rev (v :: acc)
          end
        in
        Jlist (elems [])
      end
    | 't' -> literal "true" (Jbool true)
    | 'f' -> literal "false" (Jbool false)
    | 'n' -> literal "null" Jnull
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then bad "trailing garbage";
  v

let member k = function Jobj kv -> List.assoc_opt k kv | _ -> None

let member_exn k j =
  match member k j with Some v -> v | None -> Alcotest.failf "missing field %s" k

let jstr = function Jstr s -> s | _ -> Alcotest.fail "expected string"
let jnum = function Jnum f -> f | _ -> Alcotest.fail "expected number"

(* --- Chrome trace JSON ---------------------------------------------------- *)

(* Runs [f] with a Chrome writer subscribed and returns what it wrote.
   [f] gets the writer's close function. *)
let chrome_text f =
  let path = Filename.temp_file "isr_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let writer, close = Chrome.writer (open_out path) in
      Event.subscribe writer;
      Fun.protect
        ~finally:(fun () ->
          Event.unsubscribe writer;
          close ())
        (fun () -> f close);
      In_channel.with_open_bin path In_channel.input_all)

let test_chrome_json () =
  let text =
    chrome_text (fun _ ->
        Trace.span "outer" ~args:[ ("k", "2"); ("q\"uote", "a\nb") ] (fun () ->
            Event.emit (phase "tick");
            Trace.span "inner" (fun () -> ())))
  in
  let events =
    match parse_json text with
    | Jlist evs -> evs
    | _ -> Alcotest.fail "expected a top-level array"
  in
  let phases = List.map (fun e -> jstr (member_exn "ph" e)) events in
  Alcotest.(check (list string)) "phases" [ "B"; "i"; "B"; "E"; "E" ] phases;
  (* Balanced B/E with depth never negative. *)
  let depth =
    List.fold_left
      (fun d e ->
        match jstr (member_exn "ph" e) with
        | "B" -> d + 1
        | "E" ->
          Alcotest.(check bool) "depth positive at E" true (d > 0);
          d - 1
        | _ -> d)
      0 events
  in
  Alcotest.(check int) "balanced" 0 depth;
  (* Timestamps are non-decreasing microseconds. *)
  let ts = List.map (fun e -> jnum (member_exn "ts" e)) events in
  Alcotest.(check bool) "ts sorted" true (List.sort compare ts = ts);
  (* Escaped args survive the round trip. *)
  let first = List.hd events in
  Alcotest.(check string) "name" "outer" (jstr (member_exn "name" first));
  let args = member_exn "args" first in
  Alcotest.(check string) "escaped key" "a\nb" (jstr (member_exn "q\"uote" args));
  (* Instants carry a scope. *)
  let inst = List.nth events 1 in
  Alcotest.(check string) "instant scope" "t" (jstr (member_exn "s" inst))

let test_chrome_channel_file () =
  let text =
    chrome_text (fun close ->
        Trace.span "s" (fun () -> ());
        (* The finaliser closes again: both paths are routinely reached
           (the end of a run and the exit handler), and the second close
           must not emit a second "]". *)
        close ())
  in
  match parse_json text with
  | Jlist [ b; e ] ->
    Alcotest.(check string) "B" "B" (jstr (member_exn "ph" b));
    Alcotest.(check string) "E" "E" (jstr (member_exn "ph" e))
  | _ -> Alcotest.fail "expected two events"

let test_metrics_json () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "sat.calls") 3;
  Metrics.set (Metrics.gauge r "engine.time_s") 1.5;
  Metrics.observe (Metrics.histogram r "sat.learnt_len") 5.0;
  let j = parse_json (Metrics.to_json r) in
  Alcotest.(check (float 0.0)) "counter" 3.0 (jnum (member_exn "sat.calls" j));
  Alcotest.(check (float 0.0)) "gauge" 1.5 (jnum (member_exn "engine.time_s" j));
  let h = member_exn "sat.learnt_len" j in
  Alcotest.(check (float 0.0)) "hist count" 1.0 (jnum (member_exn "count" h));
  match member_exn "buckets" h with
  | Jlist [ b ] ->
    Alcotest.(check (float 0.0)) "le" 8.0 (jnum (member_exn "le" b));
    Alcotest.(check (float 0.0)) "n" 1.0 (jnum (member_exn "n" b))
  | _ -> Alcotest.fail "expected one bucket"

(* [Metrics.of_json] reads back what [to_json] wrote, in registration
   order; anything but a JSON object is refused with [Failure]. *)
let test_metrics_read_back () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "sat.calls") 3;
  Metrics.set (Metrics.gauge r "engine.time_s") 1.5;
  let h = Metrics.histogram r "sat.learnt_len" in
  List.iter (Metrics.observe h) [ 1.0; 5.0; 6.0 ];
  (match Metrics.of_json (Metrics.to_json r) with
  | [ ("sat.calls", Metrics.Number 3.0);
      ("engine.time_s", Metrics.Number 1.5);
      ("sat.learnt_len", Metrics.Histogram { count = 3; sum = 12.0; max = 6.0; buckets }) ] ->
    Alcotest.(check (list (pair (float 0.0) int))) "buckets" (Metrics.hist_buckets h) buckets
  | _ -> Alcotest.fail "the snapshot did not read back");
  List.iter
    (fun text ->
      match Metrics.of_json text with
      | _ -> Alcotest.failf "%S was read as a snapshot" text
      | exception Failure _ -> ())
    [ ""; "[1]"; "{\"a\":" ]

let test_chrome_flush_idempotent () =
  let path = Filename.temp_file "isr_trace" ".json" in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let writer, close = Chrome.writer (open_out path) in
      Event.subscribe writer;
      Fun.protect
        ~finally:(fun () -> Event.unsubscribe writer)
        (fun () ->
          Trace.span "s" (fun () -> Event.emit (phase "i"));
          close ();
          let first = read () in
          (match parse_json first with
          | Jlist l -> Alcotest.(check int) "three events" 3 (List.length l)
          | _ -> Alcotest.fail "expected an array");
          close ();
          Alcotest.(check string) "second flush is a no-op" first (read ());
          Event.emit (phase "late");
          Trace.span "late" (fun () -> ());
          close ();
          Alcotest.(check string) "events after close are dropped" first (read ())))

(* --- profiles -------------------------------------------------------------- *)

let ev_b name ts = Trace.Begin { name; ts; tid = 0; args = [] }
let ev_e ts = Trace.End { ts; tid = 0; args = [] }

let find_child name (n : Profile.node) =
  match List.find_opt (fun (c : Profile.node) -> c.Profile.name = name) n.Profile.children with
  | Some c -> c
  | None -> Alcotest.failf "no child %s under %s" name n.Profile.name

let test_profile_tree () =
  let root =
    Profile.of_events
      [
        ev_b "a" 0.0;
        ev_b "b" 1.0;
        ev_e 3.0;
        ev_b "b" 4.0;
        ev_e 6.0;
        ev_e 8.0;
        ev_b "c" 8.5;
        ev_e 9.5;
      ]
  in
  Alcotest.(check string) "root name" "(root)" root.Profile.name;
  (* The acceptance bar: root total tracks the event window within 5%
     (here it is exact by construction). *)
  let wall = 9.5 in
  Alcotest.(check bool) "root total within 5% of wall" true
    (Float.abs (Profile.root_total root -. wall) <= 0.05 *. wall);
  Alcotest.(check (float 1e-9)) "root total exact" 9.5 (Profile.root_total root);
  let a = find_child "a" root and c = find_child "c" root in
  Alcotest.(check int) "a calls" 1 a.Profile.calls;
  Alcotest.(check (float 1e-9)) "a total" 8.0 a.Profile.total;
  (* Self excludes children: 8 s minus two 2 s calls of b. *)
  Alcotest.(check (float 1e-9)) "a self" 4.0 a.Profile.self;
  let bn = find_child "b" a in
  Alcotest.(check int) "b calls merged" 2 bn.Profile.calls;
  Alcotest.(check (float 1e-9)) "b total" 4.0 bn.Profile.total;
  Alcotest.(check (float 1e-9)) "b self" 4.0 bn.Profile.self;
  Alcotest.(check (float 1e-9)) "c total" 1.0 c.Profile.total;
  (* Root self is the untraced gap (8.0 .. 8.5). *)
  Alcotest.(check (float 1e-9)) "root self" 0.5 root.Profile.self;
  (match root.Profile.children with
  | [ x; y ] ->
    Alcotest.(check string) "hottest child first" "a" x.Profile.name;
    Alcotest.(check string) "then c" "c" y.Profile.name
  | l -> Alcotest.failf "expected two root children, got %d" (List.length l));
  (* The invariant the renderer relies on: total = self + children,
     everywhere in the tree. *)
  let rec invariant (n : Profile.node) =
    let child_total =
      List.fold_left (fun acc (ch : Profile.node) -> acc +. ch.Profile.total) 0.0 n.Profile.children
    in
    Alcotest.(check (float 1e-9))
      (n.Profile.name ^ ": self + children = total")
      n.Profile.total
      (n.Profile.self +. child_total);
    List.iter invariant n.Profile.children
  in
  invariant root

let test_profile_hot () =
  (* f calls itself: self times sum, but the total of the inner call must
     not be double-charged into f's flat total. *)
  let root =
    Profile.of_events
      [
        ev_b "f" 0.0;
        ev_b "g" 1.0;
        ev_e 2.0;
        ev_b "f" 2.0;
        ev_e 5.0;
        ev_e 6.0;
        ev_b "g" 6.0;
        ev_e 7.0;
      ]
  in
  match Profile.hot root with
  | [ (n1, c1, t1, s1); (n2, c2, t2, s2) ] ->
    Alcotest.(check string) "hottest by self" "f" n1;
    Alcotest.(check int) "f calls" 2 c1;
    Alcotest.(check (float 1e-9)) "f total skips recursion" 6.0 t1;
    Alcotest.(check (float 1e-9)) "f self sums" 5.0 s1;
    Alcotest.(check string) "g second" "g" n2;
    Alcotest.(check int) "g calls" 2 c2;
    Alcotest.(check (float 1e-9)) "g total" 2.0 t2;
    Alcotest.(check (float 1e-9)) "g self" 2.0 s2
  | l -> Alcotest.failf "expected two hot rows, got %d" (List.length l)

let test_profile_collector () =
  let sink, snapshot = Profile.collector () in
  let feed = Option.get sink.Event.on_span in
  Alcotest.(check bool) "reads spans only" true (sink.Event.on_record = None);
  feed (ev_b "a" 0.0);
  feed (ev_b "b" 1.0);
  (* Open spans are charged provisionally up to the last timestamp... *)
  let s1 = snapshot () in
  Alcotest.(check (float 1e-9)) "provisional a" 1.0 (find_child "a" s1).Profile.total;
  feed (ev_e 2.0);
  feed (ev_e 5.0);
  (* ...and a later snapshot supersedes the provisional charge. *)
  let s2 = snapshot () in
  let a = find_child "a" s2 in
  Alcotest.(check (float 1e-9)) "final a" 5.0 a.Profile.total;
  Alcotest.(check (float 1e-9)) "final b" 1.0 (find_child "b" a).Profile.total;
  Alcotest.(check int) "single call" 1 a.Profile.calls;
  Alcotest.(check (float 1e-9)) "window" 5.0 (Profile.root_total s2)

let test_profile_json () =
  let root = Profile.of_events [ ev_b "a" 0.0; ev_b "b" 0.25; ev_e 0.75; ev_e 1.0 ] in
  let j = parse_json (Profile.to_json root) in
  Alcotest.(check string) "root name" "(root)" (jstr (member_exn "name" j));
  Alcotest.(check (float 1e-6)) "root total" 1.0 (jnum (member_exn "total_s" j));
  match member_exn "children" j with
  | Jlist [ a ] -> (
    Alcotest.(check string) "child name" "a" (jstr (member_exn "name" a));
    Alcotest.(check (float 1e-6)) "a self" 0.5 (jnum (member_exn "self_s" a));
    match member_exn "children" a with
    | Jlist [ b ] ->
      Alcotest.(check (float 1e-6)) "b total" 0.5 (jnum (member_exn "total_s" b))
    | _ -> Alcotest.fail "expected one grandchild")
  | _ -> Alcotest.fail "expected one child"

(* --- progress heartbeats --------------------------------------------------- *)

let test_progress_rate_limit () =
  let now = ref 0.0 in
  let lines = ref [] in
  let r =
    Progress.make
      ~clock:(fun () -> !now)
      ~interval:1.0 ~mode:Progress.Plain
      (fun s -> lines := s :: !lines)
  in
  let t = Progress.mk_tick ~step:1 ~conflicts:100 "bmc.bound" in
  Alcotest.(check bool) "first heartbeat renders" true (Progress.emit r t);
  now := 0.4;
  Alcotest.(check bool) "within interval suppressed" false (Progress.emit r t);
  now := 0.999;
  Alcotest.(check bool) "still suppressed" false (Progress.emit r t);
  now := 1.0;
  Alcotest.(check bool) "renders at the interval" true (Progress.emit r t);
  now := 1.5;
  Progress.force r t;
  Alcotest.(check int) "emitted" 3 (Progress.emitted r);
  Alcotest.(check int) "one line per render" 3 (List.length !lines);
  now := 1.6;
  Alcotest.(check bool) "force resets the limiter" false (Progress.emit r t)

let test_progress_jsonl () =
  let now = ref 10.0 in
  let lines = ref [] in
  let r =
    Progress.make
      ~clock:(fun () -> !now)
      ~mode:Progress.Jsonl
      (fun s -> lines := s :: !lines)
  in
  now := 12.5;
  Progress.force r
    (Progress.mk_tick ~step:3 ~total:8 ~detail:"vending11/itpseq" ~conflicts:1234
       ~propagations:9999 ~learnt:55 "suite.run");
  match !lines with
  | [ line ] ->
    let j = parse_json (String.trim line) in
    Alcotest.(check (float 1e-6)) "elapsed" 2.5 (jnum (member_exn "t" j));
    Alcotest.(check string) "phase" "suite.run" (jstr (member_exn "phase" j));
    Alcotest.(check (float 0.0)) "step" 3.0 (jnum (member_exn "step" j));
    Alcotest.(check (float 0.0)) "total" 8.0 (jnum (member_exn "total" j));
    Alcotest.(check string) "detail" "vending11/itpseq" (jstr (member_exn "detail" j));
    Alcotest.(check (float 0.0)) "conflicts" 1234.0 (jnum (member_exn "conflicts" j));
    Alcotest.(check (float 0.0)) "propagations" 9999.0 (jnum (member_exn "propagations" j));
    Alcotest.(check (float 0.0)) "learnt" 55.0 (jnum (member_exn "learnt" j))
  | l -> Alcotest.failf "expected one JSON line, got %d" (List.length l)

let test_progress_tty_finish () =
  let now = ref 0.0 in
  let buf = Buffer.create 64 in
  let r = Progress.make ~clock:(fun () -> !now) ~mode:Progress.Tty (Buffer.add_string buf) in
  Progress.force r (Progress.mk_tick ~step:2 "pdr.frame");
  let s = Buffer.contents buf in
  Alcotest.(check bool) "rewrites in place" true (String.length s > 0 && s.[0] = '\r');
  Alcotest.(check bool) "no newline while pending" false (String.contains s '\n');
  Progress.finish r;
  let s = Buffer.contents buf in
  Alcotest.(check bool) "finish terminates the line" true (s.[String.length s - 1] = '\n');
  let len = Buffer.length buf in
  Progress.finish r;
  Alcotest.(check int) "finish is idempotent" len (Buffer.length buf)

(* A TTY rewrite longer than the terminal would wrap, and the next \r
   would then leave the earlier visual rows behind as garbage — the line
   must be clamped below the width and end with an erase-to-eol. *)
let test_progress_width_clamp () =
  let buf = Buffer.create 64 in
  let r =
    Progress.make
      ~clock:(fun () -> 0.0)
      ~width:20 ~mode:Progress.Tty (Buffer.add_string buf)
  in
  Progress.force r
    (Progress.mk_tick ~step:123456 ~conflicts:99999999 ~propagations:123456789
       ~detail:"a-very-long-detail-that-overflows-any-terminal" "bmc.bound");
  let s = Buffer.contents buf in
  Alcotest.(check bool) "rewrites in place" true (String.length s > 0 && s.[0] = '\r');
  let erase = "\027[K" in
  let el = String.length erase in
  Alcotest.(check string) "erases the stale tail" erase
    (String.sub s (String.length s - el) el);
  Alcotest.(check bool) "visible text clamped below the width" true
    (String.length s - 1 - el <= 19);
  Alcotest.(check bool) "width sanity" true (Progress.default_width () > 1)

let test_progress_global () =
  Alcotest.(check bool) "disabled by default" false (Event.enabled ());
  Event.emit (phase "ignored") (* must be a silent no-op without a reporter *);
  let now = ref 0.0 in
  let lines = ref [] in
  let reporter =
    Progress.consumer
      (Progress.make
         ~clock:(fun () -> !now)
         ~interval:1.0 ~mode:Progress.Plain
         (fun s -> lines := s :: !lines))
  in
  Event.subscribe reporter;
  Fun.protect
    ~finally:(fun () -> Event.unsubscribe reporter)
    (fun () ->
      Alcotest.(check bool) "enabled with reporter" true (Event.enabled ());
      Event.emit (phase ~step:1 "bmc.bound");
      now := 0.1;
      Event.emit (phase ~step:2 "bmc.bound");
      Alcotest.(check int) "global ticks rate-limited" 1 (List.length !lines);
      (* Records that are not heartbeats never render, even on time. *)
      now := 5.0;
      Event.emit (Event.Dispatch { worker = 0; bound = 1 });
      Alcotest.(check int) "only heartbeat records render" 1 (List.length !lines);
      Event.emit (phase ~step:3 ~total:8 ~detail:"vending11/itpseq" "suite.run");
      Alcotest.(check (list string)) "a phase renders as itself"
        [ "[   5.0s] suite.run 3/8 vending11/itpseq\n" ]
        [ List.hd !lines ]);
  Alcotest.(check bool) "disabled after clear" false (Event.enabled ())

(* --- resource sampling ----------------------------------------------------- *)

let test_resource_sampling () =
  Alcotest.(check bool) "nothing attached" false (Resource.attached ());
  Resource.sample () (* no-op without an attachment *);
  let r = Metrics.create () in
  Resource.with_attached r (fun () ->
      Alcotest.(check bool) "attached inside" true (Resource.attached ());
      (* Small blocks, so the allocation actually goes through the minor
         heap (large arrays go straight to the major heap). *)
      ignore (Sys.opaque_identity (List.init 1000 (fun i -> (i, i))));
      Resource.sample ());
  Alcotest.(check bool) "detached after" false (Resource.attached ());
  let names = Metrics.names r in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [
      "gc.heap_words";
      "gc.peak_heap_words";
      "gc.minor_words";
      "gc.minor_collections";
      "gc.major_collections";
      "gc.minor_alloc_rate";
    ];
  Alcotest.(check bool) "live heap measured" true
    (Metrics.gauge_value (Metrics.gauge r "gc.heap_words") > 0.0);
  Alcotest.(check bool) "peak >= current" true
    (Metrics.gauge_value (Metrics.gauge r "gc.peak_heap_words")
    >= Metrics.gauge_value (Metrics.gauge r "gc.heap_words"));
  Alcotest.(check bool) "minor allocation counted" true
    (Metrics.value (Metrics.counter r "gc.minor_words") > 0)

(* --- end to end ----------------------------------------------------------- *)

(* A real engine run must produce the nested structure the tooling relies
   on: engine > bmc.bound > sat.call, balanced throughout. *)
let test_engine_span_structure () =
  let open Isr_core in
  let entry =
    match Isr_suite.Registry.find "vending7bug" with
    | Some e -> e
    | None -> Alcotest.fail "no vending7bug entry"
  in
  let model = Isr_suite.Registry.build_validated entry in
  let limits =
    { Budget.time_limit = 30.0; conflict_limit = 2_000_000; bound_limit = 60; reduce = Isr_sat.Solver.default_reduce }
  in
  let events =
    with_span_log (fun events ->
        let verdict, stats = Engine.run (Engine.Itpseq Bmc.Assume) ~limits model in
        Alcotest.(check bool) "falsified" true (Verdict.is_falsified verdict);
        Alcotest.(check bool) "sat calls counted" true (Verdict.sat_calls stats > 0);
        events ())
  in
  (* Track the open-span stack; record ancestor chains of each begin. *)
  let stack = ref [] in
  let seen_chain = ref [] in
  List.iter
    (function
      | Trace.Begin { name; _ } ->
        stack := name :: !stack;
        seen_chain := !stack :: !seen_chain
      | Trace.End _ -> (
        match !stack with
        | _ :: tl -> stack := tl
        | [] -> Alcotest.fail "unbalanced end"))
    events;
  Alcotest.(check (list string)) "all spans closed" [] !stack;
  let has_chain pred = List.exists pred !seen_chain in
  Alcotest.(check bool) "an engine root span" true
    (has_chain (fun c -> c = [ "engine" ]));
  Alcotest.(check bool) "bmc.bound under engine" true
    (has_chain (fun c ->
         match c with "bmc.bound" :: rest -> List.mem "engine" rest | _ -> false));
  Alcotest.(check bool) "sat.call under bmc.bound" true
    (has_chain (fun c ->
         match c with "sat.call" :: rest -> List.mem "bmc.bound" rest | _ -> false));
  Alcotest.(check bool) "sat.solve under sat.call" true
    (has_chain (fun c ->
         match c with "sat.solve" :: rest -> List.mem "sat.call" rest | _ -> false))

(* --- shared json helper ---------------------------------------------------- *)

(* Satellite of the escaper dedupe: the one shared escaper must cover the
   whole C0 range, and what it writes the shared reader must take back. *)
let test_json_escape_c0 () =
  let all = String.init 0x20 Char.chr ^ "\"\\plain text" in
  let e = Json.escape all in
  String.iter
    (fun c ->
      Alcotest.(check bool) "no raw control byte in escaped form" true (Char.code c >= 0x20))
    e;
  (match Json.parse ("\"" ^ e ^ "\"") with
  | Json.Str s -> Alcotest.(check string) "C0 round trip" all s
  | _ -> Alcotest.fail "expected a string");
  Alcotest.(check string) "quote wraps" "\"a\\nb\"" (Json.quote "a\nb")

let test_json_parse_render () =
  let src = "{\"a\":[1,2.5,null,true,\"x\\ty\"],\"b\":{\"c\":-3}}" in
  let j = Json.parse src in
  Alcotest.(check string) "render is canonical" src (Json.render j);
  Alcotest.(check string) "render.parse fixpoint" (Json.render j)
    (Json.render (Json.parse (Json.render j)));
  (match Json.parse "\"\\u0007\"" with
  | Json.Str s -> Alcotest.(check string) "u-escape decoded" "\007" s
  | _ -> Alcotest.fail "expected a string");
  Alcotest.check_raises "trailing garbage rejected" (Json.Parse_error "trailing garbage at offset 5")
    (fun () -> ignore (Json.parse "null x"));
  Alcotest.(check string) "float_ kills nan" "0" (Json.float_ Float.nan);
  Alcotest.(check string) "float_ kills inf" "0" (Json.float_ Float.infinity);
  Alcotest.(check string) "float_ integral" "42" (Json.float_ 42.0)

(* \uXXXX decoding beyond the BMP: surrogate pairs combine, lone
   surrogates degrade to U+FFFD instead of corrupting the buffer, and
   whatever the parser produced survives a quote/parse round trip. *)
let test_json_surrogates () =
  (match Json.parse "\"\\uD83D\\uDE00\"" with
  | Json.Str s -> Alcotest.(check string) "surrogate pair combines" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected a string");
  (match Json.parse "\"a\\uD83Db\"" with
  | Json.Str s ->
    Alcotest.(check string) "lone high surrogate replaced" "a\xef\xbf\xbdb" s
  | _ -> Alcotest.fail "expected a string");
  (match Json.parse "\"\\uDC00\"" with
  | Json.Str s -> Alcotest.(check string) "lone low surrogate replaced" "\xef\xbf\xbd" s
  | _ -> Alcotest.fail "expected a string");
  (match Json.parse "\"\\uD83D\\u0041\"" with
  | Json.Str s ->
    Alcotest.(check string) "unpaired high then BMP escape" "\xef\xbf\xbdA" s
  | _ -> Alcotest.fail "expected a string");
  (* Malformed hex must fail loudly, not silently truncate. *)
  (match Json.parse "\"\\uD8G0\"" with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad hex accepted");
  (* The escaper passes non-ASCII bytes through raw, so decoded
     astral-plane text survives a full quote/parse cycle. *)
  let s = "mix \xf0\x9f\x98\x80 and \xe2\x82\xac" in
  match Json.parse (Json.quote s) with
  | Json.Str s' -> Alcotest.(check string) "UTF-8 quote round trip" s s'
  | _ -> Alcotest.fail "expected a string"

(* --- quantile pinning -------------------------------------------------------- *)

let test_quantile_pinned () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "q" in
  Alcotest.(check (float 0.0)) "empty at q=0" 0.0 (Metrics.hist_quantile h 0.0);
  Alcotest.(check (float 0.0)) "empty at q=1" 0.0 (Metrics.hist_quantile h 1.0);
  List.iter (Metrics.observe h) [ 3.0; 17.0; 1000.0; 5.5 ];
  Alcotest.(check (float 0.0)) "q=0 is the exact min" 3.0 (Metrics.hist_quantile h 0.0);
  Alcotest.(check (float 0.0)) "q=1 is the exact max" 1000.0 (Metrics.hist_quantile h 1.0);
  Alcotest.(check (float 0.0)) "q<0 clamps to min" 3.0 (Metrics.hist_quantile h (-0.5));
  Alcotest.(check (float 0.0)) "q>1 clamps to max" 1000.0 (Metrics.hist_quantile h 1.5);
  let mid = Metrics.hist_quantile h 0.5 in
  Alcotest.(check bool) "interior stays inside the extremes" true (mid >= 3.0 && mid <= 1000.0);
  Alcotest.check_raises "NaN quantile rejected"
    (Invalid_argument "Metrics.hist_quantile: nan") (fun () ->
      ignore (Metrics.hist_quantile h Float.nan))

(* --- event stream ------------------------------------------------------------ *)

let with_recorder f =
  let r = Event.recorder () in
  let c = Event.recording r in
  Event.subscribe c;
  Fun.protect ~finally:(fun () -> Event.unsubscribe c) (fun () -> f r)

let all_kinds =
  [
    Event.Restart { conflicts = 120; decisions = 4500; learnt = 37; propagations = 9100 };
    Event.Reduce
      {
        kept = 20;
        dropped = 15;
        lbd = [| 0; 3; 9; 8 |];
        dead_lbd = [| 0; 0; 1; 2; 12 |];
        dead_uses = [| 9; 4; 2 |];
      };
    Event.Itp_cut { cut = 4; support = 12; nodes = 311 };
    phase ~step:3 ~detail:"k=5" ~conflicts:77 ~propagations:4554 ~learnt:63 "itpseq.outer";
    phase "cba";
    phase ~step:2 ~total:8 ~detail:"vending11/itpseq" "suite.run";
    Event.Spawn { worker = 1; engines = "bmc+itp" };
    Event.Dispatch { worker = 1; bound = 17 };
    Event.Cancel { worker = 0; cause = Event.Race_won; by = 1 };
    Event.Cancel { worker = 2; cause = Event.Deadline; by = 2 };
    Event.Cancel { worker = 3; cause = Event.Min_depth; by = 1 };
    Event.Cancel { worker = 4; cause = Event.Exhausted; by = 4 };
    Event.Verdict { worker = 1; verdict = "proved" };
    Event.Analyze
      {
        pass = "const";
        ands_before = 412;
        ands_after = 377;
        latches_before = 30;
        latches_after = 27;
      };
  ]

let test_event_roundtrip () =
  Alcotest.(check bool) "disabled by default" false (Event.enabled ());
  Event.emit (phase "ignored");
  with_recorder (fun r ->
      Alcotest.(check bool) "enabled with recorder" true (Event.enabled ());
      List.iter Event.emit all_kinds;
      Alcotest.(check int) "count" (List.length all_kinds) (Event.count r);
      let evs = Event.events r in
      Alcotest.(check int) "decoded all" (List.length all_kinds) (List.length evs);
      (* Single domain: merged order is emission order, and every packed
         payload survives the int-buffer encoding bit-for-bit. *)
      Alcotest.(check bool) "kinds in order" true
        (List.for_all2 (fun k e -> k = e.Event.kind) all_kinds evs);
      List.iter
        (fun e ->
          match Event.event_of_json (Json.parse (Event.json_of_event e)) with
          | None -> Alcotest.fail "event line did not parse back"
          | Some e' ->
            Alcotest.(check bool) "kind round-trips through JSONL" true
              (e.Event.kind = e'.Event.kind);
            Alcotest.(check int) "dom round-trips" e.Event.dom e'.Event.dom;
            Alcotest.(check int) "seq round-trips" e.Event.seq e'.Event.seq;
            Alcotest.(check bool) "ts close" true (Float.abs (e.Event.ts -. e'.Event.ts) < 1e-5))
        evs);
  Alcotest.(check bool) "disabled after clear" false (Event.enabled ())

let test_event_jsonl_file () =
  with_recorder (fun r ->
      List.iter Event.emit all_kinds;
      let path = Filename.temp_file "isr_events" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_text path (fun oc -> Event.write_jsonl r oc);
          let evs = Event.read_jsonl path in
          Alcotest.(check int) "read back everything" (List.length all_kinds)
            (List.length evs);
          Alcotest.(check bool) "kinds preserved" true
            (List.for_all2 (fun k e -> k = e.Event.kind) all_kinds evs)));
  (* A future schema version must fail loudly, not be misread. *)
  let path = Filename.temp_file "isr_events" ".jsonl" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"stream\":\"isr-events\",\"schema\":99}\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Event.read_jsonl path with
      | _ -> Alcotest.fail "future schema should be rejected"
      | exception Failure _ -> ())

let test_event_chrome () =
  with_recorder (fun r ->
      List.iter Event.emit all_kinds;
      (* The export path: a recorded stream replayed through the writer. *)
      let path = Filename.temp_file "isr_events" ".json" in
      let text =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let writer, close = Chrome.writer (open_out path) in
            Event.replay writer (Event.events r);
            close ();
            In_channel.with_open_bin path In_channel.input_all)
      in
      match Json.parse text with
      | Json.Arr rows ->
        Alcotest.(check int) "one trace row per event" (List.length all_kinds)
          (List.length rows);
        List.iter
          (fun row ->
            Alcotest.(check (option string)) "instant phase" (Some "i")
              (Json.opt_str_field "ph" row))
          rows
      | _ -> Alcotest.fail "chrome export is not a JSON array")

(* The deterministic-merge contract: decoding is a pure function of the
   recorded buffers — two reads give the identical sequence — and the
   per-domain sub-order is emission order even when domains interleave. *)
let test_event_merge_deterministic () =
  with_recorder (fun r ->
      let domains =
        List.init 4 (fun w ->
            Domain.spawn (fun () ->
                for i = 0 to 24 do
                  Event.emit (Event.Dispatch { worker = w; bound = i })
                done))
      in
      List.iter Domain.join domains;
      let evs = Event.events r and evs' = Event.events r in
      Alcotest.(check int) "all events decoded" 100 (List.length evs);
      Alcotest.(check bool) "two decodes are identical" true (evs = evs');
      let key e = (e.Event.ts, e.Event.dom, e.Event.seq) in
      Alcotest.(check bool) "merged order is sorted by (ts, dom, seq)" true
        (List.sort (fun a b -> compare (key a) (key b)) evs = evs);
      (* Within a domain: seq ascending and bounds in emission order. *)
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let prev = Option.value ~default:(-1) (Hashtbl.find_opt tbl e.Event.dom) in
          Alcotest.(check bool) "per-domain seq ascending" true (e.Event.seq > prev);
          (match e.Event.kind with
          | Event.Dispatch { bound; _ } ->
            Alcotest.(check int) "per-domain payload order preserved" (prev + 1) bound
          | _ -> Alcotest.fail "unexpected kind");
          Hashtbl.replace tbl e.Event.dom e.Event.seq)
        evs)

(* --- shared chrome emitter ---------------------------------------------------- *)

(* The one Chrome writer renders spans and search records alike: every
   quirk of the format (1-based tids, µs timestamps, escaped names and
   args, the "s" scope on instants) must round-trip through the JSON
   parser. *)
let test_chrome_emitter_roundtrip () =
  let path = Filename.temp_file "isr_trace" ".json" in
  let text =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let writer, close = Chrome.writer (open_out path) in
        Option.get writer.Event.on_record ~ts:1.5 ~dom:3 (phase ~detail:"a\nb" "cut \"q\"");
        Option.get writer.Event.on_span
          (Trace.Begin { name = "span"; ts = 2.0; tid = 0; args = [ ("detail", "a\nb") ] });
        close ();
        In_channel.with_open_bin path In_channel.input_all)
  in
  match Json.parse text with
  | Json.Arr [ i; bgn ] ->
    Alcotest.(check (option string)) "name escaped and back" (Some "cut \"q\"")
      (Json.opt_str_field "name" i);
    Alcotest.(check (option string)) "instant is thread-scoped" (Some "t")
      (Json.opt_str_field "s" i);
    Alcotest.(check (option int)) "tid is 1-based" (Some 4) (Json.opt_int_field "tid" i);
    (match Json.field "ts" i with
    | Some (Json.Num us) -> Alcotest.(check (float 0.01)) "seconds to us" 1.5e6 us
    | _ -> Alcotest.fail "no ts");
    (match Json.field "args" i with
    | Some a -> (
      match Json.opt_str_field "json" a with
      | Some payload ->
        Alcotest.(check (option string)) "record payload escaped and back" (Some "a\nb")
          (Json.opt_str_field "detail" (Json.parse payload))
      | None -> Alcotest.fail "no record payload")
    | None -> Alcotest.fail "no args");
    (match Json.field "args" bgn with
    | Some a ->
      Alcotest.(check (option string)) "args escaped and back" (Some "a\nb")
        (Json.opt_str_field "detail" a)
    | None -> Alcotest.fail "no span args");
    Alcotest.(check (option string)) "ph passes through" (Some "B")
      (Json.opt_str_field "ph" bgn);
    Alcotest.(check bool) "no scope on non-instant" true (Json.field "s" bgn = None)
  | _ -> Alcotest.fail "emitter output is not a two-element JSON array"

(* --- dropped accounting -------------------------------------------------------- *)

let test_event_dropped () =
  let before = Event.dropped () in
  Event.emit (phase "nobody-listening");
  Event.emit (Event.Dispatch { worker = 0; bound = 1 });
  Alcotest.(check int) "consumerless emissions counted" (before + 2) (Event.dropped ());
  with_recorder (fun _ ->
      let b = Event.dropped () in
      Event.emit (Event.Dispatch { worker = 0; bound = 2 });
      Alcotest.(check int) "consumed emissions not counted" b (Event.dropped ()))

(* A schema-1 stream (no victim histograms) still loads; the arrays
   decode as empty. *)
let test_event_schema1_compat () =
  let path = Filename.temp_file "isr_events" ".jsonl" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"stream\":\"isr-events\",\"schema\":1}\n";
      output_string oc
        "{\"ts\":0.500000,\"dom\":0,\"seq\":0,\"ev\":\"reduce\",\"kept\":5,\"dropped\":3,\"lbd\":[1,4]}\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Event.read_jsonl path with
      | [ { Event.kind = Event.Reduce { kept; dropped; lbd; dead_lbd; dead_uses }; _ } ] ->
        Alcotest.(check int) "kept" 5 kept;
        Alcotest.(check int) "dropped" 3 dropped;
        Alcotest.(check int) "lbd decoded" 2 (Array.length lbd);
        Alcotest.(check int) "dead_lbd defaults empty" 0 (Array.length dead_lbd);
        Alcotest.(check int) "dead_uses defaults empty" 0 (Array.length dead_uses)
      | evs -> Alcotest.failf "expected one reduce event, got %d" (List.length evs))

(* Schema-3 streams may hold clause-sharing ["share"] lines, an event
   kind that no longer exists: they load, the share line is skipped and
   the events around it are kept. *)
let test_event_schema3_share_skipped () =
  let path = Filename.temp_file "isr_events" ".jsonl" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"stream\":\"isr-events\",\"schema\":3}\n";
      output_string oc
        "{\"ts\":0.1,\"dom\":0,\"seq\":0,\"ev\":\"dispatch\",\"worker\":1,\"bound\":4}\n";
      output_string oc
        "{\"ts\":0.2,\"dom\":0,\"seq\":1,\"ev\":\"share\",\"worker\":1,\"exported\":120,\"imported\":34,\"dropped\":7}\n";
      output_string oc
        "{\"ts\":0.3,\"dom\":0,\"seq\":2,\"ev\":\"cancel\",\"worker\":1,\"cause\":\"exhausted\",\"by\":1}\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Event.read_jsonl path with
      | [
       { Event.kind = Event.Dispatch { worker = 1; bound = 4 }; _ };
       { Event.kind = Event.Cancel { worker = 1; cause = Event.Exhausted; by = 1 }; _ };
      ] ->
        ()
      | evs -> Alcotest.failf "expected dispatch then cancel, got %d events" (List.length evs))

(* [write_jsonl] stamps the lowest schema that covers the stream: a
   recording using no schema-3 feature (the Exhausted cause) must stay
   loadable by schema-2 readers, which reject higher headers. *)
let test_event_minimal_schema () =
  let header_of emits =
    with_recorder (fun r ->
        List.iter Event.emit emits;
        let path = Filename.temp_file "isr_events" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_text path (fun oc -> Event.write_jsonl r oc);
            In_channel.with_open_text path (fun ic ->
                match Json.parse (input_line ic) with
                | j -> int_of_float (Json.num_field "schema" j))))
  in
  Alcotest.(check int) "exhaustion-free stream stamps 2" 2
    (header_of
       [
         Event.Restart { conflicts = 1; decisions = 2; learnt = 3; propagations = 4 };
         Event.Cancel { worker = 0; cause = Event.Deadline; by = 0 };
       ]);
  Alcotest.(check int) "exhausted cause needs 3" 3
    (header_of [ Event.Cancel { worker = 0; cause = Event.Exhausted; by = 0 } ])

(* The decode side of the same contract: a reader faced with event kinds
   or cancel causes it does not know skips those lines and keeps the
   rest — so yesterday's binaries survive tomorrow's streams. *)
let test_event_unknown_skipped () =
  let path = Filename.temp_file "isr_events" ".jsonl" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"stream\":\"isr-events\",\"schema\":2}\n";
      output_string oc
        "{\"ts\":0.1,\"dom\":0,\"seq\":0,\"ev\":\"teleport\",\"worker\":9}\n";
      output_string oc
        "{\"ts\":0.2,\"dom\":0,\"seq\":1,\"ev\":\"cancel\",\"worker\":1,\"cause\":\"gamma-ray\",\"by\":1}\n";
      output_string oc
        "{\"ts\":0.3,\"dom\":0,\"seq\":2,\"ev\":\"dispatch\",\"worker\":1,\"bound\":4}\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Event.read_jsonl path with
      | [ { Event.kind = Event.Dispatch { worker = 1; bound = 4 }; _ } ] -> ()
      | evs -> Alcotest.failf "expected the dispatch alone, got %d events" (List.length evs))

(* --- flight recorder ----------------------------------------------------------- *)

let with_tmp_dir f =
  let dir = Filename.temp_file "isr_flight" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let with_flight ?capacity f =
  with_tmp_dir (fun dir ->
      Flight.arm ?capacity ~dir ();
      Fun.protect ~finally:Flight.disarm (fun () -> f dir))

let test_flight_wraparound () =
  with_flight ~capacity:8 (fun _dir ->
      Alcotest.(check bool) "armed" true (Flight.armed ());
      Alcotest.(check bool) "the rings turn emission on" true (Event.enabled ());
      for i = 0 to 19 do
        Event.emit (Event.Dispatch { worker = 0; bound = i })
      done;
      Alcotest.(check int) "all emissions recorded" 20 (Flight.recorded ());
      Alcotest.(check int) "overflow evicted" 12 (Flight.evicted ());
      let evs = Flight.events () in
      Alcotest.(check int) "ring keeps the last capacity events" 8 (List.length evs);
      (* Wrap-around must preserve emission order and keep exactly the
         newest window. *)
      List.iteri
        (fun i e ->
          Alcotest.(check int) "seq window" (12 + i) e.Event.seq;
          match e.Event.kind with
          | Event.Dispatch { bound; _ } -> Alcotest.(check int) "payload order" (12 + i) bound
          | _ -> Alcotest.fail "unexpected kind")
        evs);
  Alcotest.(check bool) "disarmed" false (Flight.armed ())

let test_flight_dump_read () =
  with_flight ~capacity:8 (fun dir ->
      for i = 0 to 11 do
        Event.emit (Event.Dispatch { worker = 0; bound = i })
      done;
      let live = Flight.events () in
      match Flight.dump ~reason:"test-dump" () with
      | None -> Alcotest.fail "dump produced nothing"
      | Some path ->
        Alcotest.(check string) "dump lands in the armed dir"
          (Filename.concat dir "flight.jsonl") path;
        let meta, snap, evs = Flight.read path in
        (match meta with
        | None -> Alcotest.fail "no flight metadata line"
        | Some m ->
          Alcotest.(check string) "reason" "test-dump" m.Flight.reason;
          Alcotest.(check int) "capacity" 8 m.Flight.capacity;
          Alcotest.(check int) "recorded" 12 m.Flight.recorded;
          Alcotest.(check int) "evicted" 4 m.Flight.evicted;
          Alcotest.(check int) "domains" 1 m.Flight.domains);
        (* The first record took a GC snapshot, and the same pass reads it. *)
        (match snap with
        | None -> Alcotest.fail "no GC snapshot line"
        | Some g ->
          Alcotest.(check bool) "snapshot heap" true (g.Flight.heap_words > 0);
          Alcotest.(check bool) "snapshot before the last event" true
            (g.Flight.s_ts <= (List.nth live (List.length live - 1)).Event.ts +. 1e-6));
        (* The acceptance contract: the dump's events are exactly the
           live ring window at dump time. *)
        Alcotest.(check int) "event count matches live ring" (List.length live)
          (List.length evs);
        List.iter2
          (fun (a : Event.t) (b : Event.t) ->
            Alcotest.(check bool) "kind" true (a.Event.kind = b.Event.kind);
            Alcotest.(check int) "seq" a.Event.seq b.Event.seq)
          live evs)

let test_flight_sigusr1 () =
  with_flight (fun dir ->
      Flight.install_signals ();
      for i = 0 to 9 do
        Event.emit (Event.Dispatch { worker = 0; bound = i })
      done;
      Unix.kill (Unix.getpid ()) Sys.sigusr1;
      (* The handler runs at a safe point; give the runtime some, then
         service any deferred request exactly like an engine's interrupt
         hook would. *)
      for _ = 0 to 99 do
        ignore (Sys.opaque_identity (Array.make 64 0))
      done;
      Flight.poll ();
      let path = Filename.concat dir "flight.jsonl" in
      Alcotest.(check bool) "signal left a dump" true (Sys.file_exists path);
      let meta, _, evs = Flight.read path in
      (match meta with
      | Some m -> Alcotest.(check string) "reason" "sigusr1" m.Flight.reason
      | None -> Alcotest.fail "no flight metadata");
      Alcotest.(check int) "events survived" 10 (List.length evs))

let test_flight_guard () =
  with_flight (fun dir ->
      Event.emit (phase "before-crash");
      (match Flight.guard (fun () -> failwith "boom") with
      | _ -> Alcotest.fail "guard swallowed the exception"
      | exception Failure msg -> Alcotest.(check string) "exception re-raised" "boom" msg);
      let meta, _, evs = Flight.read (Filename.concat dir "flight.jsonl") in
      (match meta with
      | Some m ->
        Alcotest.(check string) "reason names the exception" "exception:Failure"
          m.Flight.reason
      | None -> Alcotest.fail "no flight metadata");
      Alcotest.(check int) "the pre-crash tail survived" 1 (List.length evs))

(* The recorder and the flight rings keep one store: fed the same
   records, they merge to the same list, and with a smaller capacity each
   domain's flight window is the tail of that domain's recorded stream.
   Three domains, emitted out of domain order, with timestamps tied
   across domains and within one. *)
let test_flight_is_recorder () =
  let feed =
    List.init 40 (fun i ->
        (float_of_int (i / 4) *. 0.5, i * 7 mod 3, Event.Dispatch { worker = i mod 3; bound = i }))
  in
  let n = List.length feed in
  let run capacity =
    let r = Event.recorder () in
    let record = Option.get (Event.recording r).Event.on_record in
    with_flight ~capacity (fun _ ->
        let ring = Option.get Flight.consumer.Event.on_record in
        List.iter
          (fun (ts, dom, kind) ->
            record ~ts ~dom kind;
            ring ~ts ~dom kind)
          feed;
        (Event.events r, Flight.events (), Flight.recorded (), Flight.evicted ()))
  in
  let evs, ring, recorded, evicted = run n in
  Alcotest.(check int) "recorder keeps all" n (List.length evs);
  Alcotest.(check bool) "same merged list" true (evs = ring);
  Alcotest.(check int) "recorded" n recorded;
  Alcotest.(check int) "nothing evicted" 0 evicted;
  let capacity = 5 in
  let evs, ring, recorded, evicted = run capacity in
  let of_dom d = List.filter (fun e -> e.Event.dom = d) in
  for d = 0 to 2 do
    let mine = of_dom d evs in
    let tail = List.filteri (fun i _ -> i >= List.length mine - capacity) mine in
    Alcotest.(check bool)
      (Printf.sprintf "domain %d window is its recorded tail" d)
      true
      (of_dom d ring = tail)
  done;
  Alcotest.(check int) "recorded" n recorded;
  Alcotest.(check int) "evicted = n - kept" (n - List.length ring) evicted

(* --- dashboard ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let ev ts dom seq kind = { Event.ts; dom; seq; kind }

let test_dash_fixture () =
  (* A canned two-worker race: w0 (dom 4) searches and is cancelled, w1
     (dom 5) dispatches bound 3 and publishes the verdict.  Kernel steps
     name member lanes, not workers: member 3 runs on w1, and member 1
     on w0. *)
  let step ~lane pos = Event.Step { lane; engine = "pdr"; n = 1; pos; status = "running" } in
  let events =
    [
      ev 0.00 4 0 (Event.Spawn { worker = 0; engines = "itpseq" });
      ev 0.01 5 0 (Event.Spawn { worker = 1; engines = "bmc" });
      ev 0.015 5 1 (step ~lane:3 9);
      ev 0.02 5 1 (Event.Dispatch { worker = 1; bound = 3 });
      ev 0.03 4 1 (step ~lane:1 7);
      ev 0.10 4 1
        (Event.Restart { conflicts = 100; decisions = 50; learnt = 10; propagations = 0 });
      ev 0.60 4 2
        (Event.Restart { conflicts = 600; decisions = 80; learnt = 30; propagations = 0 });
      ev 0.65 4 3
        (Event.Reduce
           { kept = 20; dropped = 10; lbd = [| 20 |]; dead_lbd = [||]; dead_uses = [||] });
      ev 0.70 4 4 (phase ~step:4 "itpseq.outer");
      ev 0.90 5 2 (Event.Verdict { worker = 1; verdict = "falsified(d=3)" });
      ev 0.91 5 3 (Event.Cancel { worker = 0; cause = Event.Race_won; by = 1 });
    ]
  in
  let v = Dash.view events in
  Alcotest.(check int) "two lanes" 2 (List.length v.Dash.lanes);
  let l0 = List.nth v.Dash.lanes 0 and l1 = List.nth v.Dash.lanes 1 in
  Alcotest.(check int) "lanes sorted by worker" 0 l0.Dash.worker;
  Alcotest.(check string) "engines attributed" "itpseq" l0.Dash.engines;
  Alcotest.(check int) "dom-only events follow the spawn binding" 600 l0.Dash.conflicts;
  Alcotest.(check int) "restarts counted" 2 l0.Dash.restarts;
  Alcotest.(check int) "reduce survivors" 20 l0.Dash.kept;
  Alcotest.(check int) "phase step advances the bound" 4 l0.Dash.bound;
  Alcotest.(check bool) "conflict rate from restart deltas" true
    (Float.abs (l0.Dash.rate -. 1000.0) < 1.0);
  (match l0.Dash.cancelled with
  | Some (Event.Race_won, 1, 0.91) -> ()
  | _ -> Alcotest.fail "cancellation edge lost");
  Alcotest.(check int) "dispatch bound" 3 l1.Dash.bound;
  (match Dash.winner v with
  | Some (1, "falsified(d=3)") -> ()
  | _ -> Alcotest.fail "winner not reconstructed");
  (* What explain-race and steps render: spawn order and times, dispatch
     counts, every verdict, and the member lanes — member 1's worker was
     cancelled, member 3's was not and its domain did not decide. *)
  Alcotest.(check (list int)) "spawn order" [ 0; 1 ] v.Dash.spawns;
  Alcotest.(check (option (float 0.0))) "spawn time" (Some 0.01) l1.Dash.spawned;
  Alcotest.(check int) "dispatch count" 1 l1.Dash.dispatches;
  Alcotest.(check int) "verdicts" 1 (List.length v.Dash.verdicts);
  Alcotest.(check (list int)) "schedule" [ 3; 1 ] v.Dash.schedule;
  Alcotest.(check (list (pair int string)))
    "member lanes" [ (1, "cancelled"); (3, "running") ]
    (List.map (fun (m : Dash.member) -> (m.Dash.id, m.Dash.status)) v.Dash.members);
  (* Rendering: race state visible at full width, every line clamped at
     a narrow one. *)
  let lines = String.split_on_char '\n' (Dash.render ~width:120 v) in
  Alcotest.(check bool) "winner line present" true
    (List.exists (fun l -> contains l "w1" && contains l "falsified(d=3)") lines);
  Alcotest.(check bool) "cancellation cause shown" true
    (List.exists (fun l -> contains l "winner-verdict") lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "clamped to width" true (String.length line <= 60))
    (String.split_on_char '\n' (Dash.render ~width:60 v))

(* Streams without a race lifecycle (sequential runs) fall back to one
   lane per domain. *)
let test_dash_sequential () =
  let events =
    [
      ev 0.1 0 0 (Event.Restart { conflicts = 10; decisions = 5; learnt = 2; propagations = 0 });
      ev 0.2 0 1 (phase ~step:2 "itpseq.outer");
    ]
  in
  let v = Dash.view events in
  Alcotest.(check int) "one lane" 1 (List.length v.Dash.lanes);
  let l = List.hd v.Dash.lanes in
  Alcotest.(check string) "domain lane label" "d0" (Dash.lane_label l.Dash.worker);
  Alcotest.(check int) "conflicts folded" 10 l.Dash.conflicts

(* --- clause report -------------------------------------------------------------- *)

let clause_metrics =
  "{\"clause.born\":100,\"clause.deleted\":40,\"sat.db.reduce\":2,\"clause.birth_lbd\":{\"count\":100,\"sum\":300,\"max\":9,\"buckets\":[{\"le\":2,\"n\":50},{\"le\":4,\"n\":40},{\"le\":8,\"n\":9},{\"le\":16,\"n\":1}]},\"clause.uses_at_death\":{\"count\":40,\"sum\":20,\"max\":4,\"buckets\":[]},\"clause.lbd_drift\":{\"count\":40,\"sum\":10,\"max\":3,\"buckets\":[]},\"clause.core_birth_lbd\":{\"count\":30,\"sum\":60,\"max\":5,\"buckets\":[{\"le\":2,\"n\":20},{\"le\":4,\"n\":8},{\"le\":8,\"n\":2}]}}"

let reduce_ev ts seq ~kept ~dropped ~dead_lbd ~dead_uses =
  ev ts 0 seq (Event.Reduce { kept; dropped; lbd = [| kept |]; dead_lbd; dead_uses })

let test_clause_report () =
  let events =
    [
      reduce_ev 0.5 0 ~kept:60 ~dropped:25 ~dead_lbd:[| 0; 5; 20 |]
        ~dead_uses:[| 20; 5 |];
      reduce_ev 0.9 1 ~kept:60 ~dropped:15 ~dead_lbd:[| 0; 3; 12 |]
        ~dead_uses:[| 10; 5 |];
    ]
  in
  let r = Clause_report.of_run ~metrics:(Some (Metrics.of_json clause_metrics)) ~events in
  Alcotest.(check int) "born" 100 r.Clause_report.born;
  Alcotest.(check int) "deleted" 40 r.Clause_report.deleted;
  Alcotest.(check int) "kept pins born - deleted" 60 r.Clause_report.kept;
  Alcotest.(check int) "reductions" 2 r.Clause_report.reduces;
  (match r.Clause_report.birth_lbd with
  | Some h ->
    Alcotest.(check int) "birth hist count" 100 h.Clause_report.count;
    Alcotest.(check (float 1e-9)) "birth hist mean" 3.0 h.Clause_report.mean
  | None -> Alcotest.fail "birth_lbd hist missing");
  Alcotest.(check int) "event victims sum to deleted" 40
    (Array.fold_left ( + ) 0 r.Clause_report.ev_dead_lbd);
  Alcotest.(check int) "timeline in stream order" 2
    (List.length r.Clause_report.ev_timeline);
  Alcotest.(check (list string)) "a consistent run has no violations" []
    r.Clause_report.violations;
  (* pp must render without raising; spot-check the headline. *)
  let txt = Format.asprintf "%a" Clause_report.pp r in
  Alcotest.(check bool) "headline rendered" true
    (contains txt "born 100, deleted 40, kept 60");
  (* Buckets are per-bucket counts, as Metrics.to_json writes them. *)
  Alcotest.(check bool) "birth bucket le 4 holds 40" true (contains txt "le 4          40");
  Alcotest.(check bool) "last birth bucket rendered" true (contains txt "le 16          1");
  Alcotest.(check bool) "core fraction per bucket" true (contains txt "le 4      8/40 (20.0%)");
  (* Degraded inputs: no metrics at all still yields the event side. *)
  let r' = Clause_report.of_run ~metrics:None ~events in
  Alcotest.(check int) "no metrics: event histograms survive" 40
    (Array.fold_left ( + ) 0 r'.Clause_report.ev_dead_uses)

let test_clause_report_violations () =
  (* uses_at_death disagrees with the deleted counter, and one event's
     victim histogram does not sum to its dropped count. *)
  let metrics =
    "{\"clause.born\":10,\"clause.deleted\":4,\"clause.uses_at_death\":{\"count\":3,\"sum\":1,\"max\":1,\"buckets\":[]}}"
  in
  let events =
    [ reduce_ev 0.5 0 ~kept:6 ~dropped:4 ~dead_lbd:[| 1; 1 |] ~dead_uses:[| 4 |] ]
  in
  let r = Clause_report.of_run ~metrics:(Some (Metrics.of_json metrics)) ~events in
  Alcotest.(check int) "both violations detected" 2
    (List.length r.Clause_report.violations);
  let txt = Format.asprintf "%a" Clause_report.pp r in
  Alcotest.(check bool) "violations rendered loudly" true
    (contains txt "INVARIANT VIOLATIONS");
  (* deleted > born is the third family. *)
  let r' =
    Clause_report.of_run
      ~metrics:(Some (Metrics.of_json "{\"clause.born\":3,\"clause.deleted\":7}"))
      ~events:[]
  in
  Alcotest.(check bool) "deleted beyond born flagged" true
    (r'.Clause_report.violations <> [])

(* --- ledger -------------------------------------------------------------------- *)

let with_ledger_dir f =
  let dir = Filename.temp_file "isr_ledger" "" in
  Sys.remove dir;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let sample_entry ?(instance = "amba2g3") ?(engine = "itpseq") ?(verdict = "proved") () =
  {
    Ledger.id = "";
    time = "";
    instance;
    instance_hash = "00ff00ff00ff00ff";
    engine;
    config = Ledger.fingerprint [ ("time", "60"); ("bound", "200") ];
    verdict;
    kfp = Some 7;
    jfp = Some 3;
    wall_s = 1.25;
    conflicts = 1234;
    sat_calls = 56;
    itp_nodes = 789;
    metrics_json = "{\"sat.conflicts\":1234,\"engine.time_s\":1.25}";
    events_path = Some "events/amba2g3-1.jsonl";
    profile_path = None;
  }

let test_ledger_append_load () =
  with_ledger_dir (fun dir ->
      let lg = Ledger.open_ dir in
      let e1 = Ledger.append lg (sample_entry ()) in
      let e2 = Ledger.append lg (sample_entry ~engine:"kind" ~verdict:"unknown" ()) in
      Alcotest.(check string) "first id" "r0001" e1.Ledger.id;
      Alcotest.(check string) "second id" "r0002" e2.Ledger.id;
      Alcotest.(check bool) "time stamped" true (String.length e1.Ledger.time > 0);
      (* Reopen cold: ids continue, and everything round-trips. *)
      let lg' = Ledger.open_ dir in
      let e3 = Ledger.append lg' (sample_entry ~instance:"oski1" ()) in
      Alcotest.(check string) "id continues after reopen" "r0003" e3.Ledger.id;
      let entries = Ledger.load lg' in
      Alcotest.(check int) "all entries load" 3 (List.length entries);
      let first = List.hd entries in
      Alcotest.(check bool) "entry round-trips" true (first = e1);
      (match Ledger.find lg' "r0002" with
      | Some e -> Alcotest.(check string) "find by id" "kind" e.Ledger.engine
      | None -> Alcotest.fail "r0002 not found");
      Alcotest.(check (option Alcotest.string)) "find miss" None
        (Option.map (fun e -> e.Ledger.id) (Ledger.find lg' "r9999"));
      Alcotest.(check string) "relative path resolves under the root"
        (Filename.concat dir "events/x.jsonl")
        (Ledger.resolve lg' "events/x.jsonl");
      Alcotest.(check string) "absolute path passes through" "/tmp/abs.jsonl"
        (Ledger.resolve lg' "/tmp/abs.jsonl"))

let test_ledger_fingerprint () =
  Alcotest.(check string) "sorted and joined" "bound=200 par=4 time=60"
    (Ledger.fingerprint [ ("time", "60"); ("par", "4"); ("bound", "200") ]);
  Alcotest.(check string) "order-insensitive"
    (Ledger.fingerprint [ ("a", "1"); ("b", "2") ])
    (Ledger.fingerprint [ ("b", "2"); ("a", "1") ])

let test_ledger_robustness () =
  with_ledger_dir (fun dir ->
      let lg = Ledger.open_ dir in
      ignore (Ledger.append lg (sample_entry ()));
      (* A torn write (partial line) must not take the store down. *)
      let oc = open_out_gen [ Open_append ] 0o644 (Filename.concat dir "ledger.jsonl") in
      output_string oc "{\"id\":\"r99";
      close_out oc;
      ignore (Ledger.append lg (sample_entry ~engine:"bmc" ()));
      let entries = Ledger.load lg in
      Alcotest.(check int) "torn line skipped, good lines kept" 2 (List.length entries));
  (* A ledger written by a future schema must be rejected. *)
  with_ledger_dir (fun dir ->
      let lg = Ledger.open_ dir in
      Out_channel.with_open_text (Filename.concat dir "ledger.jsonl") (fun oc ->
          output_string oc "{\"store\":\"isr-ledger\",\"schema\":99}\n");
      match Ledger.load lg with
      | _ -> Alcotest.fail "future ledger schema should be rejected"
      | exception Failure _ -> ())

(* --- pins: what a run shows ------------------------------------------------ *)

(* Five short runs pinned by what an observer sees of them: the profile
   tree as (span path, calls), the search-record sequence without its
   timestamps and sequence numbers, and the lines of a Plain heartbeat
   reporter on a frozen clock with no rate limit.  The expected texts
   live in pins/; on a mismatch the actual text is written next to the
   test binary as <name>.actual. *)

let pin_runs =
  [
    ("vending7bug", "itpseq-assume");
    ("peterson", "itpseqcba0.5-exact");
    ("industrialA1", "itpseqpba0-exact");
    ("ring6u3", "pdr");
    ("peterson", "portfolio");
  ]

let pin_limits =
  {
    Isr_core.Budget.time_limit = 60.0;
    conflict_limit = 2_000_000;
    bound_limit = 60;
    reduce = Isr_sat.Solver.default_reduce;
  }

let rec profile_paths prefix (n : Profile.node) =
  List.concat_map
    (fun (c : Profile.node) ->
      let path = if prefix = "" then c.Profile.name else prefix ^ "/" ^ c.Profile.name in
      Printf.sprintf "%s x%d" path c.Profile.calls :: profile_paths path c)
    n.Profile.children

(* The record fields as of the pinning commit; [ts] and [seq] are left
   out, fields added later are not shown. *)
let pin_record (e : Event.t) =
  let k =
    match e.Event.kind with
    | Event.Restart { conflicts; decisions; learnt; _ } ->
      Printf.sprintf "restart conflicts=%d decisions=%d learnt=%d" conflicts decisions learnt
    | Event.Reduce { kept; dropped; lbd; dead_lbd; dead_uses } ->
      let a x = String.concat "," (Array.to_list (Array.map string_of_int x)) in
      Printf.sprintf "reduce kept=%d dropped=%d lbd=%s dead_lbd=%s dead_uses=%s" kept dropped
        (a lbd) (a dead_lbd) (a dead_uses)
    | Event.Itp_cut { cut; support; nodes } ->
      Printf.sprintf "itp.cut cut=%d support=%d nodes=%d" cut support nodes
    | Event.Phase { phase; step; detail; _ } ->
      Printf.sprintf "phase %s step=%d detail=%S" phase step detail
    | Event.Spawn { worker; engines } -> Printf.sprintf "spawn worker=%d engines=%s" worker engines
    | Event.Dispatch { worker; bound } -> Printf.sprintf "dispatch worker=%d bound=%d" worker bound
    | Event.Cancel { worker; cause; by } ->
      Printf.sprintf "cancel worker=%d cause=%d by=%d" worker
        (match cause with
        | Event.Race_won -> 0
        | Event.Deadline -> 1
        | Event.Min_depth -> 2
        | Event.Exhausted -> 3)
        by
    | Event.Verdict { worker; verdict } -> Printf.sprintf "verdict worker=%d %s" worker verdict
    | Event.Analyze { pass; ands_before; ands_after; latches_before; latches_after } ->
      Printf.sprintf "analyze %s %d->%d %d->%d" pass ands_before ands_after latches_before
        latches_after
    | Event.Step { lane; engine; n; pos; status } ->
      Printf.sprintf "step lane=%d %s n=%d pos=%d %s" lane engine n pos status
  in
  Printf.sprintf "d%d %s" e.Event.dom k

let pin_name (bench, engine) = bench ^ "-" ^ engine

let pin_observe (bench, engine) =
  let open Isr_core in
  let entry =
    match Isr_suite.Registry.find bench with
    | Some e -> e
    | None -> Alcotest.failf "no %s entry" bench
  in
  let model = Isr_suite.Registry.build_validated entry in
  let eng = match Engine.of_name engine with Ok e -> e | Error m -> Alcotest.fail m in
  let collector, profile = Profile.collector () in
  let recorder = Event.recorder () in
  let beats = ref [] in
  let reporter =
    Progress.make
      ~clock:(fun () -> 0.0)
      ~interval:0.0 ~mode:Progress.Plain
      (fun s -> beats := String.trim s :: !beats)
  in
  let consumers = [ collector; Event.recording recorder; Progress.consumer reporter ] in
  List.iter Event.subscribe consumers;
  let verdict, _ =
    Fun.protect
      ~finally:(fun () -> List.iter Event.unsubscribe consumers)
      (fun () -> Engine.run eng ~limits:pin_limits model)
  in
  let verdict_line =
    Printf.sprintf "verdict %s %s"
      (if Verdict.is_proved verdict then "proved"
       else if Verdict.is_falsified verdict then "falsified"
       else "unknown")
      (match Verdict.kfp verdict with Some k -> string_of_int k | None -> "-")
  in
  String.concat "\n"
    ((verdict_line :: "== profile" :: List.sort compare (profile_paths "" (profile ())))
    @ ("== records" :: List.map pin_record (Event.events recorder))
    @ ("== heartbeats" :: List.rev !beats))
  ^ "\n"

let check_pin name actual =
  let expected =
    let path = Filename.concat "pins" (name ^ ".txt") in
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all else ""
  in
  if actual <> expected then begin
    Out_channel.with_open_bin (name ^ ".actual") (fun oc -> output_string oc actual);
    Alcotest.failf "%s: observed run differs from pins/%s.txt (actual text in %s.actual)"
      name name name
  end

let test_pin run () = check_pin (pin_name run) (pin_observe run)

(* A run that reduces its learnt database many times (68 reductions of
   fifo3 under ITPSEQ at a threshold of 50 learnt clauses): the
   reduction records and the run's sat.db.* and clause.* metrics. *)
let test_reduce_pin () =
  let open Isr_core in
  let model = Isr_suite.Registry.build_validated (Option.get (Isr_suite.Registry.find "fifo3")) in
  let eng = match Engine.of_name "itpseq-assume" with Ok e -> e | Error m -> Alcotest.fail m in
  let limits =
    { pin_limits with Budget.reduce = { Isr_sat.Solver.default_reduce with base = 50 } }
  in
  let recorder = Event.recorder () in
  let consumer = Event.recording recorder in
  Event.subscribe consumer;
  let verdict, stats =
    Fun.protect
      ~finally:(fun () -> Event.unsubscribe consumer)
      (fun () -> Engine.run eng ~limits model)
  in
  let reduces =
    List.filter_map
      (fun (e : Event.t) ->
        match e.Event.kind with Event.Reduce _ -> Some (pin_record e) | _ -> None)
      (Event.events recorder)
  in
  let metrics =
    match Json.parse (Metrics.to_json (Verdict.registry stats)) with
    | Json.Obj kvs ->
      List.filter_map
        (fun (k, v) ->
          let has p = String.length k > String.length p && String.sub k 0 (String.length p) = p in
          if has "sat.db." || has "clause." then Some (k ^ " " ^ Json.render v) else None)
        kvs
    | _ -> Alcotest.fail "metrics are not an object"
  in
  check_pin "fifo3-itpseq-assume-reduce50"
    (String.concat "\n"
       ((Printf.sprintf "verdict kfp=%s"
           (match Verdict.kfp verdict with Some k -> string_of_int k | None -> "-")
        :: "== reductions" :: reduces)
       @ ("== metrics" :: metrics))
    ^ "\n")

let pin_cases =
  List.map (fun run -> Alcotest.test_case (pin_name run) `Quick (test_pin run)) pin_runs
  @ [ Alcotest.test_case "fifo3-itpseq-assume-reduce50" `Quick test_reduce_pin ]

(* A line that lacks a field is skipped like a torn line, and a header
   that lacks its schema fails with a [Failure] naming the file — never
   with the JSON reader's own exception. *)
(* A built executable of bin/ (the test stanza depends on them). *)
let bin name =
  let here = Filename.dirname Sys.executable_name in
  let here = if Filename.is_relative here then Filename.concat (Sys.getcwd ()) here else here in
  Filename.concat (Filename.concat here "../bin") name

(* The ledger reads a relative path against its own directory, so
   [verify] must store the [--events] and [--profile-json] paths it was
   given relative to the working directory as absolute ones: every
   [isr_obs] reader of the entry then finds the files, from any
   directory. *)
let test_ledger_relative_paths () =
  let dir = Filename.temp_file "isr_ledger_paths" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let run fmt =
    Printf.ksprintf
      (fun cmd -> Sys.command (Printf.sprintf "cd %s && %s" (Filename.quote dir) cmd))
      fmt
  in
  let rc =
    run "%s verify --name amba3g4 --engine portfolio --par 2 --events e.jsonl \
         --profile-json p.json --ledger L > /dev/null"
      (Filename.quote (bin "itpseq_mc.exe"))
  in
  Alcotest.(check int) "verify proves" 0 rc;
  let e = Option.get (Ledger.find (Ledger.open_ (Filename.concat dir "L")) "r0001") in
  let stored what file = function
    | Some p ->
      Alcotest.(check bool) (what ^ " is absolute") false (Filename.is_relative p);
      Alcotest.(check string) (what ^ " names the file") file (Filename.basename p);
      Alcotest.(check bool) (what ^ " exists") true (Sys.file_exists p)
    | None -> Alcotest.failf "no %s in the entry" what
  in
  stored "events path" "e.jsonl" e.Ledger.events_path;
  stored "profile path" "p.json" e.Ledger.profile_path;
  (* The race's losing lanes stopped with it, so [steps] exits 0; a path
     it cannot read would exit 2. *)
  List.iter
    (fun (args, codes, expect) ->
      let rc = run "%s %s > out.txt 2>&1" (Filename.quote (bin "isr_obs_cli.exe")) args in
      let out = In_channel.with_open_bin (Filename.concat dir "out.txt") In_channel.input_all in
      if not (List.mem rc codes) then Alcotest.failf "%s exits %d:\n%s" args rc out;
      Alcotest.(check bool) (args ^ " reads the run") true
        (contains out expect && not (contains out "unreadable")))
    [ ("steps --ledger L --run r0001", [ 0 ], "step events across");
      ("explain-race --ledger L --run r0001", [ 0 ], "winner:");
      ("top --run r0001 --ledger L", [ 0 ], "lanes");
      ("show --ledger L r0001", [ 0 ], "p.json");
      ("diff --ledger L r0001 r0001", [ 0 ], "metric deltas") ];
  (* A stream that ends while a lane runs — no verdict on its domain, no
     cancellation of its worker — is mid-flight: exit 1. *)
  Out_channel.with_open_text (Filename.concat dir "mid.jsonl") (fun oc ->
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        [ "{\"stream\":\"isr-events\",\"schema\":4}";
          "{\"ts\":0.1,\"dom\":1,\"seq\":0,\"ev\":\"spawn\",\"worker\":0,\"engines\":\"bmc+pdr\"}";
          "{\"ts\":0.2,\"dom\":1,\"seq\":1,\"ev\":\"step\",\"lane\":1,\"engine\":\"pdr\",\"n\":1,\"pos\":1,\"status\":\"running\"}";
          "{\"ts\":0.3,\"dom\":2,\"seq\":0,\"ev\":\"cancel\",\"worker\":1,\"cause\":\"winner\",\"by\":0}" ]);
  Alcotest.(check int) "steps exits 1 mid-flight" 1
    (run "%s steps mid.jsonl > out.txt 2>&1" (Filename.quote (bin "isr_obs_cli.exe")));
  ignore (run "rm -rf L e.jsonl p.json out.txt mid.jsonl");
  Sys.rmdir dir

(* The reading subcommands of isr_obs only read: on a --ledger path that
   does not exist each one exits 2 with one error line, and the path is
   still absent afterwards.  Writers ([verify]/[bench] --ledger) create
   it, as [Ledger.open_] does. *)
let test_readers_create_nothing () =
  let dir = Filename.temp_file "isr_ledger_ro" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let missing = Filename.concat dir "no-such-dir" in
  List.iter
    (fun args ->
      let err = Filename.concat dir "err.txt" in
      let rc =
        Sys.command
          (Printf.sprintf "%s %s --ledger %s > /dev/null 2> %s"
             (Filename.quote (bin "isr_obs_cli.exe")) args (Filename.quote missing)
             (Filename.quote err))
      in
      let lines =
        In_channel.with_open_bin err In_channel.input_all
        |> String.split_on_char '\n' |> List.filter (( <> ) "")
      in
      Alcotest.(check int) (args ^ " exits 2") 2 rc;
      Alcotest.(check int) (args ^ ": one error line") 1 (List.length lines);
      Alcotest.(check bool) (args ^ " creates nothing") false (Sys.file_exists missing);
      Sys.remove err)
    [ "ls"; "show r0001"; "diff r0001 r0002"; "clauses r0001"; "top --attach";
      "steps --run r0001"; "explain-race --run r0001" ];
  ignore (Ledger.open_ missing);
  Alcotest.(check bool) "the writers' opener creates the events directory" true
    (Sys.file_exists (Filename.concat missing "events"));
  Sys.rmdir (Filename.concat missing "events");
  Sys.rmdir missing;
  Sys.rmdir dir

(* The reading subcommands of isr_obs on recorded files under golden/:
   three real event streams (a portfolio race, a bound-parallel BMC
   race, a sequential run), a hand-written race that uses every record
   kind and cancel cause, a two-entry ledger over two of them with their
   profiles, and a checkpoint.  Pinned: each command's stdout and exit
   code. *)
let golden_commands =
  let ev f = "golden/ledger/events/" ^ f in
  let streams =
    List.map ev
      [ "amba3g4-portfolio-par2.jsonl"; "vending7bug-bmc-par2.jsonl";
        "peterson-itpseqcba.jsonl"; "race-synthetic.jsonl" ]
  in
  List.concat_map
    (fun s ->
      [ "explain-race " ^ s; "steps " ^ s; "steps --schedule " ^ s; "top --width 200 " ^ s;
        "tail " ^ s ])
    streams
  @ [ "ls --ledger golden/ledger";
      "show --ledger golden/ledger r0001";
      "show --ledger golden/ledger r0002";
      "diff --ledger golden/ledger r0001 r0002";
      "diff --ledger golden/ledger --top 3 r0002 r0001";
      "clauses --ledger golden/ledger r0001";
      "clauses --ledger golden/ledger r0002";
      "explain-race --ledger golden/ledger --run r0001";
      "steps --ledger golden/ledger --run r0002";
      "top --width 200 --ledger golden/ledger --attach";
      "ckpt golden/peterson-itpseq-b3.ck";
      "ckpt golden/ledger/ledger.jsonl";
      "ckpt golden/missing.ck" ]

let test_golden () =
  let out = Filename.temp_file "isr_obs_golden" ".out" in
  let b = Buffer.create 65536 in
  List.iter
    (fun args ->
      let rc =
        Sys.command
          (Printf.sprintf "%s %s > %s 2> /dev/null" (Filename.quote (bin "isr_obs_cli.exe")) args
             (Filename.quote out))
      in
      Buffer.add_string b (Printf.sprintf "$ isr_obs %s\n" args);
      Buffer.add_string b (In_channel.with_open_bin out In_channel.input_all);
      Buffer.add_string b (Printf.sprintf "[exit %d]\n" rc))
    golden_commands;
  Sys.remove out;
  check_pin "isr_obs-golden" (Buffer.contents b)

(* Without --follow, [top] prints its frame whole: with no $COLUMNS
   and no --width, its lines are not clamped to 80 columns, where the
   state column (verdicts, cancel causes) would start past the edge. *)
let test_top_unclamped () =
  let top args =
    let out = Filename.temp_file "isr_obs_top" ".out" in
    let rc =
      Sys.command
        (Printf.sprintf "env -u COLUMNS %s top %s golden/ledger/events/amba3g4-portfolio-par2.jsonl > %s"
           (Filename.quote (bin "isr_obs_cli.exe")) args (Filename.quote out))
    in
    Alcotest.(check int) ("top " ^ args ^ " exits 0") 0 rc;
    let text = In_channel.with_open_bin out In_channel.input_all in
    Sys.remove out;
    text
  in
  let frame = top "" in
  Alcotest.(check string) "the same frame as at 200 columns" (top "--width 200") frame;
  Alcotest.(check bool) "the state column is shown" true
    (contains frame "cancelled (winner-verdict, by w0)")

let test_missing_fields () =
  let with_lines lines f =
    let path = Filename.temp_file "isr_missing" ".jsonl" in
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  let header = "{\"stream\":\"isr-events\",\"schema\":4}" in
  let dispatch = "{\"ts\":0.3,\"dom\":0,\"seq\":2,\"ev\":\"dispatch\",\"worker\":1,\"bound\":4}" in
  List.iter
    (fun (what, line) ->
      with_lines [ header; line; dispatch ] (fun path ->
          (match Event.read_jsonl path with
          | [ { Event.kind = Event.Dispatch _; _ } ] -> ()
          | evs -> Alcotest.failf "%s: expected the dispatch alone, got %d" what (List.length evs)
          | exception Json.Parse_error msg -> Alcotest.failf "%s: Parse_error %s" what msg);
          match Flight.read path with
          | _, _, [ _ ] -> ()
          | _, _, evs -> Alcotest.failf "%s: flight read %d events" what (List.length evs)))
    [
      ("restart without decisions", "{\"ts\":1.0,\"dom\":0,\"ev\":\"restart\",\"conflicts\":3}");
      ("phase without ts", "{\"dom\":0,\"seq\":1,\"ev\":\"phase\",\"phase\":\"bmc.bound\"}");
      ( "cancel without cause",
        "{\"ts\":0.2,\"dom\":0,\"seq\":1,\"ev\":\"cancel\",\"worker\":1,\"by\":1}" );
    ];
  let names_file what path = function
    | Failure msg ->
      let n = String.length path and m = String.length msg in
      let rec has i = i + n <= m && (String.sub msg i n = path || has (i + 1)) in
      Alcotest.(check bool) (what ^ " names the file") true (has 0)
    | e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  with_lines [ "{\"stream\":\"isr-events\"}"; dispatch ] (fun path ->
      match Event.read_jsonl path with
      | _ -> Alcotest.fail "an events header without a schema was accepted"
      | exception e -> names_file "events header" path e);
  with_ledger_dir (fun dir ->
      let lg = Ledger.open_ dir in
      let file = Filename.concat dir "ledger.jsonl" in
      Out_channel.with_open_text file (fun oc ->
          output_string oc "{\"store\":\"isr-ledger\"}\n");
      match Ledger.load lg with
      | _ -> Alcotest.fail "a ledger header without a schema was accepted"
      | exception e -> names_file "ledger header" file e)

let () =
  Alcotest.run "isr_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span order and nesting" `Quick test_span_order;
          Alcotest.test_case "span exception safety" `Quick test_span_exception;
          Alcotest.test_case "span and record flags" `Quick test_span_and_record_flags;
          Alcotest.test_case "null sink allocates nothing" `Quick test_null_sink_no_alloc;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
          Alcotest.test_case "counters and gauges" `Quick test_counters_gauges;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "hist mean and quantile" `Quick test_hist_mean_quantile;
          Alcotest.test_case "merge edge cases" `Quick test_merge_edge_cases;
          Alcotest.test_case "quantile pinned at extremes" `Quick test_quantile_pinned;
        ] );
      ( "json",
        [
          Alcotest.test_case "chrome trace parse-back" `Quick test_chrome_json;
          Alcotest.test_case "chrome channel file" `Quick test_chrome_channel_file;
          Alcotest.test_case "metrics snapshot" `Quick test_metrics_json;
          Alcotest.test_case "metrics snapshot reads back" `Quick test_metrics_read_back;
          Alcotest.test_case "chrome flush idempotent" `Quick test_chrome_flush_idempotent;
          Alcotest.test_case "shared escaper covers C0" `Quick test_json_escape_c0;
          Alcotest.test_case "parse/render round trip" `Quick test_json_parse_render;
          Alcotest.test_case "surrogate pairs" `Quick test_json_surrogates;
        ] );
      ( "event",
        [
          Alcotest.test_case "pack/decode round trip" `Quick test_event_roundtrip;
          Alcotest.test_case "jsonl file round trip" `Quick test_event_jsonl_file;
          Alcotest.test_case "chrome export" `Quick test_event_chrome;
          Alcotest.test_case "deterministic multi-domain merge" `Quick
            test_event_merge_deterministic;
          Alcotest.test_case "shared chrome emitter round trip" `Quick
            test_chrome_emitter_roundtrip;
          Alcotest.test_case "dropped accounting" `Quick test_event_dropped;
          Alcotest.test_case "schema-1 compatibility" `Quick test_event_schema1_compat;
          Alcotest.test_case "schema-3 share lines skipped" `Quick
            test_event_schema3_share_skipped;
          Alcotest.test_case "minimal schema stamping" `Quick test_event_minimal_schema;
          Alcotest.test_case "unknown kinds and causes skipped" `Quick
            test_event_unknown_skipped;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring wrap-around ordering" `Quick test_flight_wraparound;
          Alcotest.test_case "dump and read back" `Quick test_flight_dump_read;
          Alcotest.test_case "SIGUSR1 dumps" `Quick test_flight_sigusr1;
          Alcotest.test_case "guard dumps on exception" `Quick test_flight_guard;
          Alcotest.test_case "rings and recorder are one store" `Quick
            test_flight_is_recorder;
        ] );
      ( "dash",
        [
          Alcotest.test_case "multi-domain race fixture" `Quick test_dash_fixture;
          Alcotest.test_case "sequential fallback lanes" `Quick test_dash_sequential;
        ] );
      ( "clauses",
        [
          Alcotest.test_case "report from metrics and events" `Quick test_clause_report;
          Alcotest.test_case "sum-pinning violations detected" `Quick
            test_clause_report_violations;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "append, reopen, load, find" `Quick test_ledger_append_load;
          Alcotest.test_case "config fingerprint" `Quick test_ledger_fingerprint;
          Alcotest.test_case "torn lines and future schema" `Quick test_ledger_robustness;
          Alcotest.test_case "missing fields skipped, missing schema named" `Quick
            test_missing_fields;
          Alcotest.test_case "relative paths of a verify run" `Quick test_ledger_relative_paths;
          Alcotest.test_case "isr_obs on recorded files" `Quick test_golden;
          Alcotest.test_case "one-shot top is not clamped" `Quick test_top_unclamped;
          Alcotest.test_case "readers create no directory" `Quick test_readers_create_nothing;
        ] );
      ( "profile",
        [
          Alcotest.test_case "call tree from events" `Quick test_profile_tree;
          Alcotest.test_case "hot spans and recursion" `Quick test_profile_hot;
          Alcotest.test_case "live collector snapshots" `Quick test_profile_collector;
          Alcotest.test_case "json parse-back" `Quick test_profile_json;
        ] );
      ( "progress",
        [
          Alcotest.test_case "rate limit with fake clock" `Quick test_progress_rate_limit;
          Alcotest.test_case "jsonl parse-back" `Quick test_progress_jsonl;
          Alcotest.test_case "tty line termination" `Quick test_progress_tty_finish;
          Alcotest.test_case "tty width clamp" `Quick test_progress_width_clamp;
          Alcotest.test_case "global reporter" `Quick test_progress_global;
        ] );
      ( "resource",
        [ Alcotest.test_case "gc sampling" `Quick test_resource_sampling ] );
      ("pins", pin_cases);
      ( "integration",
        [
          Alcotest.test_case "engine span structure" `Slow test_engine_span_structure;
        ] );
    ]
