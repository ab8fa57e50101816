(* Cross-run analytics over the persistent run ledger and the structured
   search-event streams.

     isr_obs ls                           # runs recorded so far
     isr_obs show r0003                   # one entry in full
     isr_obs diff r0003 r0007             # metric deltas, depths, profile
     isr_obs tail events.jsonl            # human-readable event stream
     isr_obs explain-race events.jsonl    # who won the race, and why
     isr_obs export events.jsonl -o t.json  # Chrome trace of the stream
     isr_obs clauses r0003                # clause-lifecycle report
     isr_obs top --follow events.jsonl    # live multi-domain dashboard

   Every format read here is decoded by the library module that writes
   it (Dash.view folds event streams, Metrics.of_json reads snapshots,
   Profile.read_self_times profiles, Checkpoint.read checkpoints); this
   file only renders. *)

open Cmdliner
module J = Isr_obs.Json
module L = Isr_obs.Ledger
module E = Isr_obs.Event
module CR = Isr_obs.Clause_report
module D = Isr_obs.Dash
module F = Isr_obs.Flight
module M = Isr_obs.Metrics

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("isr_obs: " ^ msg); exit 2) fmt

let ledger_arg =
  Arg.(
    value
    & opt string "isr-ledger"
    & info [ "ledger" ] ~docv:"DIR"
        ~doc:"Run-ledger directory (as written by --ledger elsewhere).")

(* Every command here only reads, so a mistyped --ledger is an error
   and creates nothing. *)
let load_entries dir =
  let lg = try L.open_existing dir with Sys_error msg -> die "%s" msg in
  match L.load lg with
  | exception Failure msg -> die "%s" msg
  | entries -> (lg, entries)

let find_entry entries id =
  match List.find_opt (fun e -> e.L.id = id) entries with
  | Some e -> e
  | None -> die "no run %S in the ledger (try `isr_obs ls`)" id

(* The stream a command reads: an EVENTS file, the stream of ledger run
   --run ID, or, where the command takes --attach, the stream of the
   ledger's most recent run that recorded one.  [None] when the chosen
   run recorded none. *)
let stream_path ?attach dir run_id path =
  match (path, run_id, attach = Some true) with
  | Some p, None, false -> Some p
  | None, Some id, false ->
    let lg, entries = load_entries dir in
    Option.map (L.resolve lg) (find_entry entries id).L.events_path
  | None, None, true ->
    let lg, entries = load_entries dir in
    List.fold_left
      (fun acc e ->
        match e.L.events_path with Some p -> Some (L.resolve lg p) | None -> acc)
      None entries
  | None, None, false ->
    if attach = None then die "give an EVENTS file or --run ID"
    else die "give an EVENTS file, --run ID, or --attach"
  | _ ->
    if attach = None then die "give either EVENTS or --run, not both"
    else die "give exactly one of EVENTS, --run, --attach"

(* The stream of a command that cannot do without one, and its events. *)
let read_stream dir run_id path =
  let path =
    match stream_path dir run_id path with
    | Some p -> p
    | None -> die "run %s has no event stream recorded" (Option.get run_id)
  in
  match E.read_jsonl path with
  | exception Failure msg -> die "%s" msg
  | events -> (path, events)

let events_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"EVENTS")

let run_arg doc = Arg.(value & opt (some string) None & info [ "run" ] ~docv:"RUN" ~doc)

let depth_cell = function Some d -> string_of_int d | None -> "-"

(* --- ls ------------------------------------------------------------------ *)

let ls_cmd =
  let run dir =
    let _, entries = load_entries dir in
    if entries = [] then print_endline "(empty ledger)"
    else begin
      Printf.printf "%-6s %-20s %-16s %-14s %-10s %8s %5s %5s  %s\n" "id" "time"
        "instance" "engine" "verdict" "wall[s]" "kfp" "jfp" "events";
      List.iter
        (fun e ->
          Printf.printf "%-6s %-20s %-16s %-14s %-10s %8.3f %5s %5s  %s\n" e.L.id e.L.time
            e.L.instance e.L.engine e.L.verdict e.L.wall_s (depth_cell e.L.kfp)
            (depth_cell e.L.jfp)
            (Option.value ~default:"-" e.L.events_path))
        entries
    end;
    0
  in
  Cmd.v (Cmd.info "ls" ~doc:"List the runs recorded in the ledger")
    Term.(const run $ ledger_arg)

(* --- show ----------------------------------------------------------------- *)

let show_cmd =
  let run dir id =
    let lg, entries = load_entries dir in
    let e = find_entry entries id in
    Printf.printf "run       %s  (%s)\n" e.L.id e.L.time;
    Printf.printf "instance  %s%s\n" e.L.instance
      (if e.L.instance_hash <> "" then Printf.sprintf "  [hash %s]" e.L.instance_hash
       else "");
    Printf.printf "engine    %s\n" e.L.engine;
    if e.L.config <> "" then Printf.printf "config    %s\n" e.L.config;
    Printf.printf "verdict   %s  (kfp %s, jfp %s)\n" e.L.verdict (depth_cell e.L.kfp)
      (depth_cell e.L.jfp);
    Printf.printf "wall      %.3f s\n" e.L.wall_s;
    Printf.printf "effort    %d conflicts, %d sat calls, %d itp nodes\n" e.L.conflicts
      e.L.sat_calls e.L.itp_nodes;
    Option.iter (fun p -> Printf.printf "events    %s\n" (L.resolve lg p)) e.L.events_path;
    Option.iter (fun p -> Printf.printf "profile   %s\n" (L.resolve lg p)) e.L.profile_path;
    if e.L.metrics_json <> "" then begin
      print_endline "metrics:";
      match M.of_json e.L.metrics_json with
      | exception Failure msg -> Printf.printf "  (unreadable: %s)\n" msg
      | readings ->
        List.iter
          (function
            | k, M.Number f -> Printf.printf "  %-28s %s\n" k (J.float_ f)
            | k, M.Histogram { count; max; _ } ->
              Printf.printf "  %-28s count=%d max=%s\n" k count (J.float_ max))
          readings
    end;
    0
  in
  let id_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN") in
  Cmd.v (Cmd.info "show" ~doc:"Show one ledger entry in full")
    Term.(const run $ ledger_arg $ id_arg)

(* --- diff ------------------------------------------------------------------ *)

let pct base delta = if base <> 0.0 then Printf.sprintf "%+.1f%%" (100.0 *. delta /. base) else "new"

let diff_cmd =
  let run dir top a_id b_id =
    let lg, entries = load_entries dir in
    let a = find_entry entries a_id and b = find_entry entries b_id in
    Printf.printf "diff %s (%s/%s) -> %s (%s/%s)\n" a.L.id a.L.instance a.L.engine b.L.id
      b.L.instance b.L.engine;
    if a.L.instance_hash <> "" && a.L.instance_hash = b.L.instance_hash then
      Printf.printf "instance: identical property cone [hash %s]\n" a.L.instance_hash
    else if a.L.instance_hash <> "" && b.L.instance_hash <> "" then
      Printf.printf "instance: DIFFERENT property cones (%s vs %s)\n" a.L.instance_hash
        b.L.instance_hash;
    if a.L.config <> b.L.config then
      Printf.printf "config:   %s -> %s\n" a.L.config b.L.config;
    Printf.printf "verdict:  %s -> %s%s\n" a.L.verdict b.L.verdict
      (if a.L.verdict <> b.L.verdict then "  (CHANGED)" else "");
    let depth name x y =
      match (x, y) with
      | Some x, Some y ->
        Printf.printf "%s:      %d -> %d%s\n" name x y
          (if x <> y then Printf.sprintf "  (%+d)" (y - x) else "")
      | _ -> Printf.printf "%s:      %s -> %s\n" name (depth_cell x) (depth_cell y)
    in
    depth "kfp" a.L.kfp b.L.kfp;
    depth "jfp" a.L.jfp b.L.jfp;
    Printf.printf "wall:     %.3f s -> %.3f s  (%s)\n" a.L.wall_s b.L.wall_s
      (pct a.L.wall_s (b.L.wall_s -. a.L.wall_s));
    (* Metric deltas, largest relative movement first: counters and
       gauges by name, histograms by their count. *)
    let scalars json =
      match M.of_json json with
      | exception Failure _ -> []
      | readings ->
        List.map
          (function
            | k, M.Number f -> (k, f)
            | k, M.Histogram { count; _ } -> (k ^ ".count", float_of_int count))
          readings
    in
    let ma = scalars a.L.metrics_json and mb = scalars b.L.metrics_json in
    let deltas =
      List.filter_map
        (fun (k, va) ->
          match List.assoc_opt k mb with
          | Some vb when va <> vb ->
            let rel = if va <> 0.0 then Float.abs ((vb -. va) /. va) else infinity in
            Some (k, va, vb, rel)
          | _ -> None)
        ma
      |> List.sort (fun (_, _, _, r1) (_, _, _, r2) -> compare r2 r1)
    in
    if deltas <> [] then begin
      Printf.printf "metric deltas (top %d of %d changed):\n" (min top (List.length deltas))
        (List.length deltas);
      List.iteri
        (fun i (k, va, vb, _) ->
          if i < top then
            Printf.printf "  %-32s %14s -> %-14s %s\n" k (J.float_ va) (J.float_ vb)
              (pct va (vb -. va)))
        deltas
    end
    else print_endline "metric deltas: none";
    (* Metrics present on one side only — e.g. the analyze.* reduction
       gauges when exactly one run used the static analyzer. *)
    let one_sided label id xs ys =
      let only = List.filter (fun (k, _) -> List.assoc_opt k ys = None) xs in
      if only <> [] then begin
        Printf.printf "metrics only in %s (%s, %d):\n" id label (List.length only);
        List.iteri
          (fun i (k, v) ->
            if i < top then Printf.printf "  %-32s %14s\n" k (J.float_ v))
          only
      end
    in
    one_sided "removed" a.L.id ma mb;
    one_sided "added" b.L.id mb ma;
    (* Profile diff when both runs dumped one. *)
    (match (a.L.profile_path, b.L.profile_path) with
    | Some pa, Some pb -> (
      let read p = Isr_obs.Profile.read_self_times (L.resolve lg p) in
      match (read pa, read pb) with
      | Some fa, Some fb ->
        let moved =
          List.filter_map
            (fun (path, sa) ->
              match List.assoc_opt path fb with
              | Some sb when Float.abs (sb -. sa) > 1e-6 -> Some (path, sa, sb)
              | _ -> None)
            fa
          |> List.sort (fun (_, a1, b1) (_, a2, b2) ->
                 compare (Float.abs (b2 -. a2)) (Float.abs (b1 -. a1)))
        in
        if moved <> [] then begin
          Printf.printf "profile deltas (self time, top %d):\n" (min top (List.length moved));
          List.iteri
            (fun i (path, sa, sb) ->
              if i < top then
                Printf.printf "  %-40s %8.3fs -> %8.3fs\n" path sa sb)
            moved
        end
      | _ -> print_endline "profile: present but unreadable on one side")
    | _ -> ());
    if a.L.verdict <> b.L.verdict then 1 else 0
  in
  let a_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN_A") in
  let b_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"RUN_B") in
  let top_arg =
    Arg.(value & opt int 12 & info [ "top" ] ~docv:"N" ~doc:"Rows per delta table.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare two ledger runs: verdicts, convergence depths, metric and \
             profile deltas (exits 1 when the verdict changed)")
    Term.(const run $ ledger_arg $ top_arg $ a_arg $ b_arg)

(* --- tail ------------------------------------------------------------------ *)

let pp_event (e : E.t) =
  let payload =
    match e.E.kind with
    | E.Restart { conflicts; decisions; learnt; _ } ->
      Printf.sprintf "restart       conflicts=%d decisions=%d learnt=%d" conflicts decisions
        learnt
    | E.Reduce { kept; dropped; lbd; dead_uses; _ } ->
      let glue = Array.fold_left ( + ) 0 (Array.sub lbd 0 (min 3 (Array.length lbd))) in
      let unused = if Array.length dead_uses > 0 then dead_uses.(0) else 0 in
      Printf.sprintf "db.reduce     kept=%d dropped=%d glue<=2=%d never-used=%d" kept dropped
        glue unused
    | E.Itp_cut { cut; support; nodes } ->
      Printf.sprintf "itp.cut %-5d support=%d nodes=%d" cut support nodes
    | E.Phase { phase; step; detail; _ } ->
      Printf.sprintf "phase         %s%s%s" phase
        (if step >= 0 then Printf.sprintf " %d" step else "")
        (if detail <> "" then " " ^ detail else "")
    | E.Spawn { worker; engines } -> Printf.sprintf "spawn         w%d [%s]" worker engines
    | E.Dispatch { worker; bound } -> Printf.sprintf "dispatch      w%d bound=%d" worker bound
    | E.Cancel { worker; cause; by } ->
      Printf.sprintf "cancel        w%d by=w%d cause=%s" worker by (D.cause_name cause)
    | E.Verdict { worker; verdict } -> Printf.sprintf "VERDICT       w%d %s" worker verdict
    | E.Analyze { pass; ands_before; ands_after; latches_before; latches_after } ->
      Printf.sprintf "analyze       %s ands=%d->%d latches=%d->%d" pass ands_before
        ands_after latches_before latches_after
    | E.Step { lane; engine; n; pos; status } ->
      Printf.sprintf "step          l%d %s n=%d pos=%d %s" lane engine n pos status
  in
  Printf.printf "[%10.4f] d%-3d %s\n" e.E.ts e.E.dom payload

let tail_cmd =
  let run follow path =
    let ic = try open_in path with Sys_error msg -> die "%s" msg in
    let rec loop () =
      match input_line ic with
      | line ->
        (if String.trim line <> "" then
           match J.parse line with
           | exception J.Parse_error _ -> ()
           | j -> Option.iter pp_event (E.event_of_json j));
        loop ()
      | exception End_of_file ->
        if follow then begin
          flush stdout;
          Unix.sleepf 0.2;
          loop ()
        end
    in
    loop ();
    close_in ic;
    0
  in
  let path_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"EVENTS") in
  let follow_arg =
    Arg.(value & flag & info [ "f"; "follow" ] ~doc:"Keep polling for new events.")
  in
  Cmd.v
    (Cmd.info "tail" ~doc:"Render an event JSONL stream human-readably (optionally live)")
    Term.(const run $ follow_arg $ path_arg)

(* --- explain-race ------------------------------------------------------------- *)

let cause_text = function
  | E.Race_won -> "cancelled by the winner's verdict"
  | E.Deadline -> "its budget (deadline or conflicts) expired"
  | E.Min_depth -> "a shallower counterexample made its bound doomed"
  | E.Exhausted -> "its member slate was exhausted (all bound-limited)"

(* The portfolio/bound-parallel story of the merged stream: who was
   spawned on what, who published the verdict, and the first causal
   cancellation edge of every other worker. *)
let explain events =
  let v = D.view events in
  if v.D.spawns = [] then begin
    print_endline "no worker lifecycle in this stream (not a --par run?)";
    1
  end
  else begin
    let at ts = ts -. v.D.t0 in
    let spawned = List.map (fun w -> List.find (fun l -> l.D.worker = w) v.D.lanes) v.D.spawns in
    Printf.printf "%d workers spawned:\n" (List.length spawned);
    List.iter
      (fun l ->
        Printf.printf "  w%d  [%s]  spawned at +%.4fs%s\n" l.D.worker l.D.engines
          (at (Option.get l.D.spawned))
          (if l.D.dispatches > 0 then Printf.sprintf ", %d bound(s) dispatched" l.D.dispatches
           else ""))
      spawned;
    (* The verdict that stands is the LAST one published: bound-parallel
       BMC lets workers below a found depth keep minimising, and each
       shallower counterexample supersedes the previous publication.
       A portfolio race publishes exactly once. *)
    (match List.rev v.D.verdicts with
    | [] -> print_endline "no verdict was published (every worker exhausted its budget)"
    | (w, verdict, ts) :: superseded ->
      List.iter
        (fun (w', verdict', ts') ->
          Printf.printf "w%d published %s at +%.4fs (superseded by a shallower one)\n" w'
            verdict' (at ts'))
        (List.rev superseded);
      Printf.printf "winner: w%d published %s at +%.4fs\n" w verdict (at ts));
    List.iter
      (fun l ->
        match (l.D.cancelled, l.D.verdict) with
        | Some (cause, by, ts), _ ->
          Printf.printf "  w%d: %s (edge from w%d at +%.4fs)\n" l.D.worker (cause_text cause) by
            (at ts)
        | None, None ->
          Printf.printf "  w%d: finished on its own (no cancellation recorded)\n" l.D.worker
        | None, Some _ -> ())
      spawned;
    0
  end

let explain_cmd =
  let run dir run_id path = explain (snd (read_stream dir run_id path)) in
  Cmd.v
    (Cmd.info "explain-race"
       ~doc:"Reconstruct a parallel race from its merged event stream: who won, \
             and why every other worker stopped")
    Term.(
      const run $ ledger_arg $ run_arg "Take the event stream of this ledger run."
      $ events_arg)

(* --- steps -------------------------------------------------------------------- *)

(* The step-kernel interleaving of the stream's schema-4 Step events:
   which lanes ran, in what order, and where each one ended up.  With
   --schedule the exact lane-id sequence is printed — feed it back to a
   scheduler replay to re-drive the same interleaving. *)
let steps_cmd =
  let run dir run_id schedule path =
    let path, events = read_stream dir run_id path in
    let v = D.view events in
    if v.D.schedule = [] then die "no Step events in %s (schema < 4, or kernel events off)" path;
    Printf.printf "%d step events across %d lanes\n" (List.length v.D.schedule)
      (List.length v.D.members);
    Printf.printf "%-5s %-22s %8s %8s %s\n" "lane" "engine" "steps" "pos" "final";
    List.iter
      (fun (m : D.member) ->
        Printf.printf "l%-4d %-22s %8d %8d %s\n" m.D.id m.D.engine m.D.n m.D.pos m.D.status)
      v.D.members;
    if schedule then begin
      print_string "schedule:";
      List.iter (Printf.printf " %d") v.D.schedule;
      print_newline ()
    end;
    (* A lane left "running" means the stream stops mid-flight — an
       interrupted (checkpointed?) or still-live run, worth signalling. *)
    if List.exists (fun (m : D.member) -> m.D.status = "running") v.D.members then 1 else 0
  in
  let schedule_arg =
    Arg.(
      value & flag
      & info [ "schedule" ]
          ~doc:"Also print the raw lane-id step sequence (replayable interleaving).")
  in
  Cmd.v
    (Cmd.info "steps"
       ~doc:"Reconstruct a step-kernel interleaving from the stream's Step events: \
             per-lane engine, step count, last position and final status (exits 1 \
             when a lane is still mid-flight)")
    Term.(
      const run $ ledger_arg $ run_arg "Take the event stream of this ledger run."
      $ schedule_arg $ events_arg)

(* --- ckpt -------------------------------------------------------------------- *)

let ckpt_cmd =
  let run path =
    let module C = Isr_core.Checkpoint in
    let c = try C.read path with Failure msg -> die "%s" msg in
    Printf.printf "checkpoint %s (version %d)\n" path c.C.version;
    Printf.printf "  engine:  %s\n" c.C.engine;
    Printf.printf "  model:   %s  [%s]\n" c.C.model c.C.model_sig;
    Printf.printf "  taken:   after %d kernel steps, at bound %d, %.3fs elapsed\n" c.C.steps
      c.C.bound c.C.elapsed;
    Printf.printf "  payload: %d bytes\n" (String.length c.C.payload);
    0
  in
  let path_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"CKPT") in
  Cmd.v
    (Cmd.info "ckpt"
       ~doc:"Inspect a checkpoint file written by itpseq_mc verify --checkpoint: \
             engine, model signature, step count and bound at the snapshot point")
    Term.(const run $ path_arg)

(* --- export -------------------------------------------------------------------- *)

let export_cmd =
  let run path out =
    match E.read_jsonl path with
    | exception Failure msg -> die "%s" msg
    | events ->
      let oc = try open_out out with Sys_error msg -> die "%s" msg in
      let writer, close = Isr_obs.Chrome.writer oc in
      E.replay writer events;
      close ();
      Printf.printf "wrote %s: %d events\n" out (List.length events);
      0
  in
  let path_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"EVENTS") in
  let out_arg =
    Arg.(
      value & opt string "events.trace.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Chrome trace output path.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Convert an event JSONL stream to Chrome trace-event JSON (one lane per \
             domain; open in Perfetto)")
    Term.(const run $ path_arg $ out_arg)

(* --- clauses -------------------------------------------------------------------- *)

let clauses_cmd =
  let run dir id =
    let lg, entries = load_entries dir in
    let e = find_entry entries id in
    let metrics =
      if e.L.metrics_json = "" then None
      else
        match M.of_json e.L.metrics_json with
        | exception Failure msg ->
          Printf.eprintf "isr_obs: metrics of %s unreadable (%s)\n" id msg;
          None
        | readings -> Some readings
    in
    let events =
      match e.L.events_path with
      | None -> []
      | Some p -> (
        match E.read_jsonl (L.resolve lg p) with
        | exception Failure msg ->
          Printf.eprintf "isr_obs: event stream of %s unreadable (%s)\n" id msg;
          []
        | evs -> evs)
    in
    if metrics = None && events = [] then
      die "run %s recorded neither metrics nor events" id;
    let r = CR.of_run ~metrics ~events in
    Printf.printf "run %s  (%s, %s, verdict %s)\n" e.L.id e.L.instance e.L.engine e.L.verdict;
    Format.printf "%a@?" CR.pp r;
    if r.CR.violations <> [] then 1 else 0
  in
  let id_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN") in
  Cmd.v
    (Cmd.info "clauses"
       ~doc:"Clause-lifecycle report for a ledger run: survival, usefulness and \
             proof-core histograms with their sum-pinning invariants checked \
             (exits 1 when an invariant is violated)")
    Term.(const run $ ledger_arg $ id_arg)

(* --- top -------------------------------------------------------------------- *)

let gc_line (g : F.snap) =
  Printf.sprintf "gc: heap %.1f MB, %d minor / %d major collections"
    (float_of_int g.F.heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0)
    g.F.minor_collections g.F.major_collections

let top_cmd =
  let run dir run_id attach follow interval width path =
    (* Only a live frame is clamped to the terminal; a one-shot frame is
       printed whole, so piped output keeps its state column. *)
    let width =
      if follow && width = None then Some (Isr_obs.Progress.default_width ()) else width
    in
    let frame () =
      (* Re-resolved every frame, so --attach picks up a freshly started
         run mid-follow. *)
      match stream_path ~attach dir run_id path with
      | None -> print_endline "(no event stream recorded yet)"
      | Some p -> (
        match F.read p with
        | exception Failure msg -> Printf.printf "(waiting: %s)\n" msg
        | meta, snap, events ->
          print_string (D.render ?width ?gc:(Option.map gc_line snap) (D.view events));
          Option.iter
            (fun (m : F.meta) ->
              Printf.printf
                "flight: dumped on %S, %d recorded, %d evicted (capacity %d x %d domains)\n"
                m.F.reason m.F.recorded m.F.evicted m.F.capacity m.F.domains)
            meta)
    in
    if follow then
      while true do
        print_string "\027[2J\027[H";
        frame ();
        flush stdout;
        Unix.sleepf interval
      done
    else frame ();
    0
  in
  let attach_arg =
    Arg.(
      value & flag
      & info [ "attach" ]
          ~doc:"Attach to the ledger's most recent run that recorded an event stream.")
  in
  let follow_arg =
    Arg.(value & flag & info [ "f"; "follow" ] ~doc:"Redraw continuously (clear screen each frame).")
  in
  let interval_arg =
    Arg.(value & opt float 0.5 & info [ "interval" ] ~docv:"S" ~doc:"Redraw period for --follow.")
  in
  let width_arg =
    let doc = "Clamp frame lines to $(docv) columns (default: \\$COLUMNS under --follow)." in
    Arg.(value & opt (some int) None & info [ "width" ] ~docv:"COLS" ~doc)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live multi-domain dashboard over an event stream: per-worker engines, \
             bounds, conflict rates, race state and GC gauges (from flight dumps)")
    Term.(
      const run $ ledger_arg $ run_arg "Render the event stream of this ledger run."
      $ attach_arg $ follow_arg $ interval_arg $ width_arg $ events_arg)

let () =
  let info =
    Cmd.info "isr_obs" ~version:"1.0.0"
      ~doc:"Run-ledger and search-event analytics for the itpseq model checker"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            ls_cmd; show_cmd; diff_cmd; tail_cmd; explain_cmd; steps_cmd;
            ckpt_cmd; export_cmd; clauses_cmd; top_cmd;
          ]))
