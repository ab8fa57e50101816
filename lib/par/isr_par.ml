open Isr_aig
open Isr_core
open Isr_model

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* Round-robin partition of the portfolio across [jobs] domains, keeping
   the sequential order (cheap members first) inside each group so a
   2-way race still tries random simulation before PDR. *)
let partition jobs members =
  let groups = Array.make jobs [] in
  List.iteri (fun i m -> groups.(i mod jobs) <- m :: groups.(i mod jobs)) members;
  Array.to_list (Array.map List.rev groups) |> List.filter (fun g -> g <> [])

let verdict_tag = function
  | Verdict.Proved _ -> "proved"
  | Verdict.Falsified { depth; _ } -> Printf.sprintf "falsified(d=%d)" depth
  | Verdict.Unknown _ -> "unknown"

let portfolio_race ~jobs ~limits ~members model =
  let t0 = Isr_obs.Clock.now () in
  let cancel = Atomic.make false in
  let winner : (Sched.lane * Verdict.t) option Atomic.t = Atomic.make None in
  (* Members are identified by their global index: lane ids in the event
     stream, and the claim flags below, both use it.  Each domain seeds
     its scheduler with the head of its round-robin group; the tails stay
     in the common pool, where a member belongs to whichever domain
     CAS-claims it, so a domain whose lanes retire early picks up pending
     members from anywhere (work hand-off between lanes). *)
  let indexed = List.mapi (fun i (w, m) -> (i, w, m)) members in
  let claimed = Array.init (List.length indexed) (fun _ -> Atomic.make false) in
  let groups = partition jobs indexed in
  let ngroups = List.length groups in
  (* The race has one deadline, [t0 + time_limit], and every racer runs
     up to it: the race trades cores for latency, it does not split the
     deadline.  A lane claimed after another retires gets only the time
     left, not a fresh budget. *)
  let deadline = t0 +. limits.Budget.time_limit in
  (* Engines add nodes to their model's manager (interpolants, PDR
     cubes), and a manager must not be mutated from two domains at once:
     each lane runs on a private copy, node for node the same as
     [model]'s manager. *)
  let lane_models = Array.make (List.length indexed) model in
  let start (i, w, m) =
    let limits =
      { limits with Budget.time_limit = Float.max 0.0 (deadline -. Isr_obs.Clock.now ()) }
    in
    let lane_model =
      { model with Model.man = Aig.copy model.Model.man; frames = Frame_cnf.cache () }
    in
    lane_models.(i) <- lane_model;
    {
      Sched.id = i;
      name = Portfolio.member_name m;
      weight = Portfolio.weight w;
      inst = Step.start ~lane:i ~limits ~cancel (Portfolio.stepper_of m) lane_model;
    }
  in
  let claim ((i, _, _) as x) =
    if Atomic.compare_and_set claimed.(i) false true then Some (start x) else None
  in
  (* Each domain's seed, the head half of its group, is claimed here,
     before any domain runs: a domain that starts late still gets its
     own seed, and only the tails are left to steal. *)
  let seeds =
    List.map
      (fun group ->
        let n = max 1 ((List.length group + 1) / 2) in
        let seed = List.filteri (fun j _ -> j < n) group in
        List.iter (fun (i, _, _) -> Atomic.set claimed.(i) true) seed;
        seed)
      groups
  in
  (* Lifecycle events carry the logical worker index [w], not the domain
     id: domain ids vary across replays, worker indices do not, so the
     merged stream's race story is reproducible.  The winning worker
     emits its own verdict plus one causal cancellation edge per loser;
     a worker whose whole slate retires without a verdict records a
     deadline (or exhaustion) self-edge. *)
  let worker w group seed () =
    if Isr_obs.Event.enabled () then
      Isr_obs.Event.emit
        (Isr_obs.Event.Spawn
           {
             worker = w;
             engines =
               String.concat "+" (List.map (fun (_, _, m) -> Portfolio.member_name m) group);
           });
    let rec scan = function
      | [] -> None
      | x :: tl -> ( match claim x with Some l -> Some l | None -> scan tl)
    in
    let lanes = List.map start seed in
    let refill () = match scan group with Some l -> Some l | None -> scan indexed in
    let stats = Verdict.mk_stats () in
    match Sched.run ~refill ~into:stats lanes with
    | exception Budget.Cancelled -> ([], stats)
    | Sched.Winner { lane; verdict } ->
      if Atomic.compare_and_set winner None (Some (lane, verdict)) then begin
        Atomic.set cancel true;
        if Isr_obs.Event.enabled () then begin
          Isr_obs.Event.emit
            (Isr_obs.Event.Verdict { worker = w; verdict = verdict_tag verdict });
          for j = 0 to ngroups - 1 do
            if j <> w then
              Isr_obs.Event.emit
                (Isr_obs.Event.Cancel { worker = j; cause = Isr_obs.Event.Race_won; by = w })
          done
        end
      end;
      ([], stats)
    | Sched.Exhausted { reasons } ->
      if Isr_obs.Event.enabled () && not (Atomic.get cancel) then begin
        (* Why did this lane stop?  A slate that ran to completion with
           every member merely bound-limited was exhausted, not starved
           of budget — report it as such so explain-race/top don't blame
           a deadline that never fired. *)
        let exhausted =
          reasons <> []
          && List.for_all
               (function Verdict.Bound_limit _ -> true | _ -> false)
               reasons
        in
        Isr_obs.Event.emit
          (Isr_obs.Event.Cancel
             {
               worker = w;
               cause = (if exhausted then Isr_obs.Event.Exhausted else Isr_obs.Event.Deadline);
               by = w;
             })
      end;
      (reasons, stats)
  in
  let total = Verdict.mk_stats () in
  Isr_obs.Trace.span "portfolio"
    ~args:[ ("mode", "parallel"); ("jobs", string_of_int jobs) ]
    ~end_args:(fun () ->
      [
        ("winner",
         match Atomic.get winner with Some (lane, _) -> lane.Sched.name | None -> "none");
      ])
  @@ fun () ->
  Isr_obs.Resource.with_attached (Verdict.registry total) @@ fun () ->
  let domains =
    List.mapi (fun w (g, seed) -> Domain.spawn (worker w g seed)) (List.combine groups seeds)
  in
  let results = List.map Domain.join domains in
  List.iter (fun (_, stats) -> Verdict.merge_into ~into:total stats) results;
  Verdict.set_time total (Isr_obs.Clock.now () -. t0);
  match Atomic.get winner with
  | Some (lane, Verdict.Proved ({ invariant = Some inv; _ } as p)) ->
    (* The invariant lives in the winning lane's copy; rebuild it in
       [model]'s manager, now that no domain runs. *)
    let man = model.Model.man in
    let back = Aig.copier ~src:lane_models.(lane.Sched.id).Model.man ~dst:man ~map:(Aig.input man) in
    (Verdict.Proved { p with invariant = Some (back inv) }, total)
  | Some (_, verdict) -> (verdict, total)
  | None ->
    let reasons = List.concat_map fst results in
    (Verdict.Unknown (Sched.worst_reason reasons Verdict.Time_limit), total)

let portfolio ?(jobs = 0) ?(limits = Budget.default_limits) model =
  let jobs = if jobs <= 0 then default_jobs () else jobs in
  let jobs = min jobs (List.length Portfolio.members) in
  if jobs = 1 then
    (* One domain needs no race: the same lanes run under the sequential
       interleaver. *)
    Portfolio.verify ~limits model
  else portfolio_race ~jobs ~limits ~members:Portfolio.members model

(* Bound-parallel BMC probes.

   Bounds are handed out from one atomic counter, so they are attempted
   in strictly increasing order across the workers.  When some probe
   comes back satisfiable, its trace is depth-minimised ([Step.cex_depth])
   and published as [best]; from then on no new bound >= best is started,
   and in-flight probes that published a current bound >= best are
   cancelled through their per-worker token.  Probes at bounds < best
   keep running: the minimal counterexample depth d* satisfies the exact
   formulation at bound d* <= best, and that bound was dispatched before
   best was found — so the minimum over the collected results is the
   true minimal depth, exactly as in sequential deepening.  Races on
   [best]/[current] are benign: at worst a doomed probe runs to
   completion, never a wrong verdict. *)
let bmc ?(check = Bmc.Exact) ?(jobs = 0) ?(limits = Budget.default_limits) model =
  let jobs = if jobs <= 0 then default_jobs () else jobs in
  (* There are [bound_limit + 1] bounds to probe (0 included), so more
     workers than that would idle — but [bound_limit] is [max_int] for
     unlimited-bound runs and the [+ 1] must not wrap to [min_int]. *)
  let bound_cap =
    if limits.Budget.bound_limit >= max_int - 1 then max_int
    else limits.Budget.bound_limit + 1
  in
  let jobs = max 1 (min jobs bound_cap) in
  let t0 = Isr_obs.Clock.now () in
  let next = Atomic.make 0 in
  let best = Atomic.make max_int in
  let tokens = Array.init jobs (fun _ -> Atomic.make false) in
  let current = Array.init jobs (fun _ -> Atomic.make max_int) in
  (* Publications are serialized, and only one that lowers [best] is
     announced: the stream's verdicts then name strictly decreasing
     depths, and its last one the minimum. *)
  let publish_lock = Mutex.create () in
  let publish depth i =
    Mutex.protect publish_lock @@ fun () ->
    if depth < Atomic.get best then begin
      Atomic.set best depth;
      if Isr_obs.Event.enabled () then
        Isr_obs.Event.emit
          (Isr_obs.Event.Verdict
             { worker = i; verdict = Printf.sprintf "falsified(d=%d)" depth });
      Array.iteri
        (fun j c ->
          if j <> i && Atomic.get c >= depth then begin
            Atomic.set tokens.(j) true;
            if Isr_obs.Event.enabled () then
              Isr_obs.Event.emit
                (Isr_obs.Event.Cancel { worker = j; cause = Isr_obs.Event.Min_depth; by = i })
          end)
        current
    end
  in
  let worker i () =
    if Isr_obs.Event.enabled () then
      Isr_obs.Event.emit (Isr_obs.Event.Spawn { worker = i; engines = "bmc" });
    let budget = Budget.start ~cancel:tokens.(i) limits in
    let stats = Verdict.mk_stats () in
    let found = ref [] in
    let reason = ref None in
    (try
       let rec loop () =
         (* A signal handler that lost the ring lock leaves its flight
            dump pending; the bound-dispatch boundary is a safe, frequent
            place to honour it (the Budget interrupt poll covers the
            in-solve stretches). *)
         Isr_obs.Flight.poll ();
         let k = Atomic.fetch_and_add next 1 in
         if k > limits.Budget.bound_limit then reason := Some (Verdict.Bound_limit limits.Budget.bound_limit)
         else if k >= Atomic.get best then ()
         else begin
           Atomic.set current.(i) k;
           if Isr_obs.Event.enabled () then
             Isr_obs.Event.emit (Isr_obs.Event.Dispatch { worker = i; bound = k });
           (match Bmc.check_depth budget stats ~proof:false model ~check ~k with
           | `Sat u ->
             let tr = Unroll.trace u in
             let depth = Step.cex_depth model ~k tr in
             found := (depth, tr) :: !found;
             publish depth i
           | `Unsat _ -> ());
           Atomic.set current.(i) max_int;
           loop ()
         end
       in
       loop ()
     with
    | Budget.Out_of_time ->
      reason := Some Verdict.Time_limit;
      if Isr_obs.Event.enabled () then
        Isr_obs.Event.emit
          (Isr_obs.Event.Cancel { worker = i; cause = Isr_obs.Event.Deadline; by = i })
    | Budget.Out_of_conflicts ->
      reason := Some Verdict.Conflict_limit;
      if Isr_obs.Event.enabled () then
        Isr_obs.Event.emit
          (Isr_obs.Event.Cancel { worker = i; cause = Isr_obs.Event.Deadline; by = i })
    | Budget.Cancelled -> ());
    Atomic.set current.(i) max_int;
    (!found, !reason, stats)
  in
  let total = Verdict.mk_stats () in
  Isr_obs.Trace.span "bmc.par"
    ~args:
      [
        ("check", Bmc.check_name check);
        ("jobs", string_of_int jobs);
        ("mode", "parallel");
      ]
    ~end_args:(fun () ->
      [
        ("best",
         let b = Atomic.get best in
         if b = max_int then "none" else string_of_int b);
      ])
  @@ fun () ->
  Isr_obs.Resource.with_attached (Verdict.registry total) @@ fun () ->
  let domains = List.init jobs (fun i -> Domain.spawn (worker i)) in
  let results = List.map Domain.join domains in
  List.iter (fun (_, _, stats) -> Verdict.merge_into ~into:total stats) results;
  Verdict.set_time total (Isr_obs.Clock.now () -. t0);
  let sats = List.concat_map (fun (found, _, _) -> found) results in
  match List.sort (fun (d, _) (d', _) -> compare d d') sats with
  | (depth, trace) :: _ -> (Verdict.Falsified { depth; trace }, total)
  | [] ->
    let reasons = List.filter_map (fun (_, r, _) -> r) results in
    (Verdict.Unknown (Sched.worst_reason reasons (Bound_limit limits.Budget.bound_limit)), total)

type outcome = { verdict : Verdict.t; stats : Verdict.stats; model : Model.t }

(* The analyzer runs once, before any engine and outside its root span;
   the engine, whichever way it is dispatched, runs under that span on
   the analyzed model.  A counterexample is lifted back onto [model], so
   only an engine's invariant lives on the analyzed model. *)
let verify ~analyze ?jobs ?(report = ignore) ?drive ~limits engine model =
  let run m =
    let in_span f = Engine.span engine m f in
    let sequential () =
      match drive with
      | None -> Engine.run engine ~limits m
      | Some d -> in_span (fun () -> d m)
    in
    match (jobs, engine) with
    | None, _ -> sequential ()
    | Some jobs, Engine.Portfolio -> in_span (fun () -> portfolio ~jobs ~limits m)
    | Some jobs, Engine.Bmc_only check -> in_span (fun () -> bmc ~check ~jobs ~limits m)
    | Some _, _ ->
      Logs.warn (fun f ->
          f "--par applies to the portfolio and bmc engines; running %s sequentially"
            (Engine.name engine));
      sequential ()
  in
  match analyze with
  | Isr_analyze.Off ->
    let verdict, stats = run model in
    { verdict; stats; model }
  | mode ->
    let areg = Isr_obs.Metrics.create () in
    let r = Isr_analyze.run ~mode ~registry:areg model in
    report r;
    let trivial verdict = { verdict; stats = Verdict.mk_stats (); model } in
    let outcome =
      match r.Isr_analyze.verdict with
      | Some (Isr_analyze.Safe { invariant }) ->
        trivial (Verdict.Proved { kfp = 0; jfp = 0; invariant = Some invariant })
      | Some (Isr_analyze.Unsafe { trace }) ->
        trivial (Verdict.Falsified { depth = Trace.depth trace; trace })
      | None -> (
        match run r.Isr_analyze.model with
        | Verdict.Falsified { depth; trace }, stats ->
          let verdict = Verdict.Falsified { depth; trace = r.Isr_analyze.lift trace } in
          { verdict; stats; model }
        | verdict, stats -> { verdict; stats; model = r.Isr_analyze.model })
    in
    (* Fold the analyze.* gauges into the run registry, so metrics and
       ledgers see the reduction beside the search effort. *)
    Isr_obs.Metrics.merge ~into:(Verdict.registry outcome.stats) areg;
    outcome

let check ~certify { verdict; model; _ } =
  match verdict with
  | Verdict.Proved { invariant = None; _ } ->
    (0, if certify then Some "certificate: engine provided none" else None)
  | Verdict.Proved { invariant = Some inv; _ } when certify -> (
    match Certify.check model inv with
    | Ok () -> (0, Some "certificate: invariant checked (initiation, consecution, safety)")
    | Error f -> (3, Some (Format.asprintf "certificate: INVALID — %a" Certify.pp_failure f)))
  | Verdict.Proved _ -> (0, None)
  | Verdict.Falsified { trace; _ } ->
    if Sim.check_trace model trace then (1, Some "witness: replayed on the concrete model")
    else (3, Some "witness: REPLAY FAILED (internal error)")
  | Verdict.Unknown _ -> (4, None)
