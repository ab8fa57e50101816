(* One benchmark run: time the set-up of a workload's models, then cycle
   through the cells in seeded order until the time is up, checking every
   verdict against ground truth.

   The harness measures from outside: it times its own calls into the
   library's public functions and reads each run's [Verdict.stats]
   registry.  In a traced run it also installs a fresh
   [Isr_obs.Profile.collector] around every cell and folds the spans the
   library emits into layers ({!Layers}).

   Every execution gets a freshly built model on a freshly compacted
   heap: engines add interpolant circuits to the model's AIG manager, so
   a reused model would make a cell's work depend on the cells before
   it. *)

open Isr_core
open Isr_model

(* Nanosecond monotonic clock: set-up times are tens of microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let span = Isr_obs.Trace.span
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- machine speed ---------------------------------------------------------- *)

(* The host this benchmark was calibrated on time-slices its virtual CPUs:
   for tens of seconds at a time everything runs up to 50% slower, which
   no statistic over one run's samples removes.  So every timed region is
   bracketed by two runs of a fixed pure-OCaml kernel that uses no library
   code, and its time is scaled by [ref_nominal] over their mean: the
   seconds the region would have taken on a machine where the kernel
   takes [ref_nominal], as it does on that host when calm.  A change to
   the program moves the region's time, never the kernel's. *)
let ref_nominal = 1.0e-3

let reference =
  let a = Array.make 4096 0 in
  fun () ->
    let x = ref 1 in
    let t0 = now () in
    for i = 1 to 500_000 do
      x := ((!x * 25214903917) + 11) land 0xffff_ffff_ffff;
      let j = (!x lsr 20) land 4095 in
      a.(j) <- a.(j) lxor i
    done;
    now () -. t0

(* [f ()] between two kernel runs: its result, the factor that scales
   its time, its raw time, and the two kernel times. *)
let timed f =
  let r0 = reference () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  let r1 = reference () in
  (v, 2.0 *. ref_nominal /. (r0 +. r1), t1 -. t0, [ r0; r1 ])

(* --- one cell ------------------------------------------------------------ *)

type run = {
  verdict : Verdict.t;  (** traces lifted onto the original model *)
  stats : Verdict.stats;
  analysis : Isr_analyze.result option;
  model : Model.t;  (** the model the cell was given *)
  proof_model : Model.t;  (** the model an invariant in [verdict] speaks about *)
}

(* Times in a sample are scaled (see [timed]); [wall /. scale] is the raw
   time. *)
type sample = {
  wall : float;  (** time to verdict, analysis included *)
  scale : float;
  analyze_s : float;
  layers : Layers.split;  (** empty in untraced runs *)
  refs : float list;  (** the raw kernel times around the execution *)
  minor_words : float;
  major_collections : int;
}

let run_cell ~limits (c : Workload.cell) model =
  let run ?analysis ?(proof_model = model) (verdict, stats) =
    { verdict; stats; analysis; model; proof_model }
  in
  match c.runner with
  | Workload.Paper e -> (run (Engine.run e ~limits model), 0.0)
  | Workload.Push_button -> (
    let t0 = now () in
    let a = span "bench.analyze" (fun () -> Isr_analyze.run ~mode:Isr_analyze.Full model) in
    let analyze_s = now () -. t0 in
    let trivial v = (run ~analysis:a (v, Verdict.mk_stats ()), analyze_s) in
    match a.verdict with
    | Some (Isr_analyze.Safe { invariant }) ->
      trivial (Verdict.Proved { kfp = 0; jfp = 0; invariant = Some invariant })
    | Some (Isr_analyze.Unsafe { trace }) ->
      trivial (Verdict.Falsified { depth = Trace.depth trace; trace })
    | None ->
      let out =
        match Portfolio.verify ~limits a.model with
        | Verdict.Falsified { depth; trace }, s ->
          (Verdict.Falsified { depth; trace = a.lift trace }, s)
        | out -> out
      in
      (run ~analysis:a ~proof_model:a.model out, analyze_s))

(* One execution: build the model and compact the heap (neither is
   timed), then run the cell, traced or not. *)
let measure ~limits ~traced (c : Workload.cell) =
  let model = Isr_suite.Registry.build_validated c.entry in
  Gc.compact ();
  let collector = if traced then Some (Isr_obs.Profile.collector ()) else None in
  Option.iter (fun (sink, _) -> Isr_obs.Trace.set_sink sink) collector;
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).major_collections in
  let outcome, scale, raw, refs =
    timed (fun () ->
        match span Layers.cell_span (fun () -> run_cell ~limits c model) with
        | out -> Ok out
        | exception e -> Error (Printexc.to_string e))
  in
  let minor_words = Gc.minor_words () -. minor0 in
  let major_collections = (Gc.quick_stat ()).major_collections - major0 in
  let layers =
    match collector with
    | Some (_, snapshot) ->
      Isr_obs.Trace.clear_sink ();
      Layers.scale scale (Layers.fold (snapshot ()))
    | None -> Layers.empty
  in
  Result.map
    (fun (run, analyze_s) ->
      ( run,
        {
          wall = raw *. scale; scale; analyze_s = analyze_s *. scale; layers; refs;
          minor_words; major_collections;
        } ))
    outcome

(* Why an execution does not count as right.  Only [Wrong] makes a run
   incorrect; the others are resource questions. *)
type failure = Undecided | Raised of string | Wrong of string

(* Ground truth: paper engines must falsify at exactly the shortest
   depth; the push-button path may report any deeper counterexample,
   which certification then replays. *)
let judge (c : Workload.cell) (r : run) =
  let wrong fmt = Printf.ksprintf (fun s -> Error (Wrong s)) fmt in
  match (r.verdict, c.entry.expected) with
  | Verdict.Unknown _, _ -> Error Undecided
  | Verdict.Proved _, Isr_suite.Registry.Safe -> Ok ()
  | Verdict.Falsified { depth; _ }, Isr_suite.Registry.Unsafe d -> (
    match c.runner with
    | Workload.Paper _ when depth <> d -> wrong "falsified at depth %d, shortest is %d" depth d
    | Workload.Push_button when depth < d -> wrong "falsified at depth %d, below %d" depth d
    | _ -> Ok ())
  | Verdict.Proved _, Isr_suite.Registry.Unsafe _ -> wrong "proved an unsafe design"
  | Verdict.Falsified _, Isr_suite.Registry.Safe -> wrong "falsified a safe design"

(* Every invariant goes through [Certify]; a paper engine's trace must
   replay at its claimed depth, a lifted portfolio trace on the original
   design. *)
let certify (c : Workload.cell) (r : run) =
  span "bench.certify" @@ fun () ->
  match (c.runner, r.verdict) with
  | Workload.Push_button, Verdict.Falsified { trace; _ } ->
    if Sim.check_trace r.model trace then Ok ()
    else Error (Wrong "lifted counterexample does not replay on the original design")
  | _, v -> Result.map_error (fun e -> Wrong e) (Certify.check_verdict r.proof_model v)

(* The deterministic counts of one execution as (name, unit, value),
   read right away so that no model or registry outlives its sample.
   Names ending in [_max] are maxima over cells, all others sums. *)
let counts (r : run) (s : sample) =
  let reg = Verdict.registry r.stats in
  let stat name f = (name, "count", float_of_int (f r.stats)) in
  let analysis name f =
    (name, "count", match r.analysis with Some a -> float_of_int (f a) | None -> 0.0)
  in
  let kfp, jfp = match r.verdict with Verdict.Proved p -> (p.kfp, p.jfp) | _ -> (0, 0) in
  Isr_obs.Metrics.
    [
      ("kfp_sum", "count", float_of_int kfp);
      ("jfp_sum", "count", float_of_int jfp);
      stat "sat.calls" Verdict.sat_calls;
      stat "sat.conflicts" Verdict.conflicts;
      stat "sat.decisions" Verdict.decisions;
      stat "sat.propagations" Verdict.propagations;
      stat "sat.restarts" Verdict.restarts;
      stat "sat.db_reduces" Verdict.db_reduces;
      stat "sat.learnt" Verdict.clauses_born;
      stat "sat.learnt_deleted" Verdict.clauses_deleted;
      ("proof.steps_max", "count", gauge_value (gauge reg "proof.steps"));
      ("proof.bytes_max", "B", gauge_value (gauge reg "proof.bytes"));
      ("itp.calls", "count", float_of_int (hist_count (histogram reg "itp.size")));
      stat "itp.nodes" Verdict.itp_nodes;
      stat "cba.refinements" Verdict.refinements;
      stat "cba.abstract_latches" Verdict.abstract_latches;
      stat "engine.bounds" Verdict.last_bound;
      analysis "analyze.ands_removed" (fun a -> Model.num_ands a.original - Model.num_ands a.model);
      analysis "analyze.latches_removed" (fun a -> a.original.num_latches - a.model.num_latches);
      analysis "analyze.trivial" (fun a -> Bool.to_int (a.verdict <> None));
      ("gc.minor_mw", "Mw", s.minor_words /. 1e6);
      ("gc.major_collections", "count", float_of_int s.major_collections);
    ]

(* --- one workload run ------------------------------------------------------ *)

type cell_state = {
  cell : Workload.cell;
  counts : (string * string * float) list;  (** of the certified first execution *)
  mutable samples : sample list;  (** newest first *)
}

type result = {
  cells : cell_state array;
  attempted : int;
  failed : int;
  wrong : int;
  setup_s : float;
  certify_s : float;
  peak_heap_mb : float;
  traced : bool;
}

(* Build and validate every model of the workload, again and again for
   at least [budget] seconds and [setup_min_reps] times; the median
   repetition is the set-up time. *)
let setup_min_reps = 5

let setup ~budget cells =
  let entries =
    List.sort_uniq compare (List.map (fun (c : Workload.cell) -> c.entry.name) cells)
    |> List.map Workload.entry
  in
  Gc.compact ();
  let times, scale, _, _ =
    timed (fun () ->
        let t_end = now () +. budget in
        let rec go reps times =
          let t0 = now () in
          List.iter
            (fun e -> ignore (Sys.opaque_identity (Isr_suite.Registry.build_validated e)))
            entries;
          let t1 = now () in
          let times = (t1 -. t0) :: times in
          if reps + 1 >= setup_min_reps && t1 >= t_end then times else go (reps + 1) times
        in
        go 0 [])
  in
  median times *. scale

let run ~seed ~seconds ~traced (w : Workload.t) =
  let cells = Workload.cells w ~seed in
  let setup_s = setup ~budget:(seconds /. 20.0) cells in
  let limits = { Budget.default_limits with time_limit = w.limit } in
  let attempted = ref 0 and failed = ref 0 and wrong = ref 0 in
  let certify_s = ref 0.0 in
  let fail (c : Workload.cell) f =
    incr failed;
    let name = Workload.cell_name c in
    match f with
    | Undecided -> log "%s: undecided" name
    | Raised e -> log "%s: raised %s" name e
    | Wrong why ->
      incr wrong;
      log "%s: WRONG: %s" name why
  in
  (* One execution, judged; [Some] when its verdict is right. *)
  let attempt (c : Workload.cell) =
    incr attempted;
    match measure ~limits ~traced c with
    | Error exn ->
      fail c (Raised exn);
      None
    | Ok (r, s) -> (
      match judge c r with
      | Ok () -> Some (r, s)
      | Error why ->
        fail c why;
        None)
  in
  let deadline = now () +. seconds in
  (* First pass: every cell once, its verdict certified. *)
  let states =
    List.filter_map
      (fun (c : Workload.cell) ->
        Option.bind (attempt c) (fun (r, s) ->
            let cert, scale, raw, _ =
              timed (fun () ->
                  try certify c r with e -> Error (Raised (Printexc.to_string e)))
            in
            certify_s := !certify_s +. (raw *. scale);
            match cert with
            | Ok () -> Some { cell = c; counts = counts r s; samples = [ s ] }
            | Error why ->
              fail c why;
              None))
      cells
    |> Array.of_list
  in
  (* Further passes, in the same order, while the next cell is expected
     to finish before the deadline. *)
  let n = Array.length states in
  let rec more i =
    let st = states.(i) in
    let last = List.hd st.samples in
    if now () +. (last.wall /. last.scale) <= deadline then begin
      Option.iter (fun (_, s) -> st.samples <- s :: st.samples) (attempt st.cell);
      more ((i + 1) mod n)
    end
  in
  if n > 0 then more 0;
  let words = float_of_int (Gc.quick_stat ()).top_heap_words in
  {
    cells = states;
    attempted = !attempted;
    failed = !failed;
    wrong = !wrong;
    setup_s;
    certify_s = !certify_s;
    peak_heap_mb = words *. float_of_int (Sys.word_size / 8) /. 1048576.0;
    traced;
  }

(* --- metrics ------------------------------------------------------------------ *)

(* The sample a cell is represented by in per-sample figures: the one
   with the median wall time (the lower one for an even count), so the
   layer split and [traced.wall_s] come from the same executions. *)
let representative st =
  let sorted = List.sort (fun a b -> compare a.wall b.wall) st.samples in
  List.nth sorted ((List.length sorted - 1) / 2)

let sum f (r : result) = Array.fold_left (fun acc st -> acc +. f st) 0.0 r.cells

(* Every metric the harness knows, as (name, unit, value).  Counts come
   from each cell's first execution (they are deterministic); times sum
   the per-cell medians. *)
let metrics (r : result) =
  let rep f st = f (representative st) in
  let layer l = sum (rep (fun s -> Layers.seconds s.layers l)) r in
  let counts =
    match Array.to_list r.cells with
    | [] -> []
    | first :: rest ->
      List.fold_left
        (fun acc st ->
          List.map2
            (fun (name, unit, a) (_, _, b) ->
              (name, unit, if String.ends_with ~suffix:"_max" name then Float.max a b else a +. b))
            acc st.counts)
        first.counts rest
  in
  let count name = List.fold_left (fun acc (n, _, v) -> if n = name then v else acc) 0.0 counts in
  let sat_self = layer "sat.self_s" in
  let medians f = sum (fun st -> median (List.map f st.samples)) r in
  [
    ("wall_s", "s", medians (fun s -> s.wall));
    ("wall_raw_s", "s", medians (fun s -> s.wall /. s.scale));
    ("setup_s", "s", r.setup_s);
    ("peak_heap_mb", "MB", r.peak_heap_mb);
    ("failed", "count", float_of_int r.failed);
    ("wrong", "count", float_of_int r.wrong);
  ]
  @ counts
  @ [
      ("analyze.s", "s", sum (rep (fun s -> s.analyze_s)) r);
      ("certify.s", "s", r.certify_s);
      ("machine.ref_s", "s",
       median (List.concat_map (fun st -> List.concat_map (fun s -> s.refs) st.samples)
                 (Array.to_list r.cells)));
    ]
  @
  if not r.traced then []
  else
    [
      ("traced.wall_s", "s", sum (rep (fun s -> s.wall)) r);
      ("incl.calls", "count", sum (rep (fun s -> float_of_int (Layers.calls s.layers "incl.check"))) r);
      ("sat.props_per_s", "1/s",
       if sat_self > 0.0 then count "sat.propagations" /. sat_self else 0.0);
    ]
    @ List.map (fun l -> (l, "s", layer l)) Layers.names
