type member = [ `Randsim | `Bmc | `Kind | `Pdr | `Itp | `Itpseq_cba ]

(* Relative weights (steps per scheduler turn) per member; derived from
   the old time shares, so the cheap falsifiers still get early turns
   while ITPSEQCBA does most of the work on hard proofs. *)
let members : (float * member) list =
  [
    (0.02, `Randsim);
    (0.13, `Bmc);
    (0.15, `Kind);
    (0.25, `Pdr);
    (0.20, `Itp);
    (1.00, `Itpseq_cba);
  ]

let member_name = function
  | `Randsim -> "randsim"
  | `Bmc -> "bmc"
  | `Kind -> "kind"
  | `Pdr -> "pdr"
  | `Itp -> "itp"
  | `Itpseq_cba -> "itpseqcba"

let weight share = max 1 (int_of_float (Float.ceil (share *. 10.)))

(* Bit-parallel random simulation as a single-step engine: shallow
   input-robust bugs fall out before any SAT effort.  A hit only bounds
   the bug depth — BMC then minimizes it so the portfolio reports
   shortest counterexamples like every other engine, under the lane's
   cancel token, so a race can stop it.  One step is the whole
   attempt.  A miss retires the lane at the bound cap: it is no
   deadline, and the cap is the reason {!Sched.worst_reason} ranks last,
   so the portfolio reports why the other lanes stopped. *)
let randsim_stepper () =
  let step (run : Step.run) =
    match Isr_model.Rand_sim.falsify run.model with
    | Some trace -> (
      let cap = Isr_model.Trace.depth trace in
      let v, bmc_stats =
        Bmc.run ~check:Bmc.Exact
          ~limits:{ run.limits with Budget.bound_limit = cap }
          ?cancel:(Budget.cancel run.budget) run.model
      in
      (* The minimization's SAT effort goes on the lane's books, the
         only registry the scheduler merges. *)
      Verdict.merge_into ~into:run.stats bmc_stats;
      match v with
      | Verdict.Falsified _ -> Some v
      | _ -> Some (Verdict.Falsified { depth = cap; trace }))
    | None -> Some (Verdict.Unknown (Verdict.Bound_limit run.limits.Budget.bound_limit))
  in
  Step.Packed
    {
      Step.name = "randsim";
      init = Fun.id;
      step;
      at_end = ignore;
      bound = (fun _ -> 0);
      snapshot = (fun _ -> "");
      restore = (fun run _ -> run);
    }

let stepper_of = function
  | `Randsim -> randsim_stepper ()
  | `Bmc -> Bmc.stepper ~check:Bmc.Assume ~incremental:true ()
  | `Kind -> Kind.stepper ()
  | `Pdr -> Pdr.stepper ()
  | `Itp -> Itp_verif.stepper ()
  | `Itpseq_cba ->
    Itpseq_verif.stepper ~check:Bmc.Exact ~abstraction:(Itpseq_verif.Cba 0.5) ()

let lanes ?(limits = Budget.default_limits) model =
  List.mapi
    (fun id (share, m) ->
      {
        Sched.id;
        name = member_name m;
        weight = weight share;
        inst = Step.start ~lane:id ~limits (stepper_of m) model;
      })
    members

let verify ?(limits = Budget.default_limits) model =
  let t0 = Isr_obs.Clock.now () in
  let total = Verdict.mk_stats () in
  let winner = ref "none" in
  (* Members attach their own registries on top of this one; the final
     detach folds the whole run's GC story into [total].  The same
     ["portfolio"]/["winner"] span shape as the parallel racer, so
     traces from either mode read alike. *)
  Isr_obs.Trace.span "portfolio"
    ~args:[ ("mode", "sequential") ]
    ~end_args:(fun () -> [ ("winner", !winner) ])
    (fun () ->
      Isr_obs.Resource.with_attached (Verdict.registry total) @@ fun () ->
      let stop =
        Sched.run
          ~on_turn:(fun l -> Verdict.beat total ~detail:l.Sched.name "portfolio.member")
          ~into:total (lanes ~limits model)
      in
      Verdict.set_time total (Isr_obs.Clock.now () -. t0);
      match stop with
      | Sched.Winner { lane; verdict } ->
        winner := lane.Sched.name;
        (verdict, total)
      | Sched.Exhausted { reasons } ->
        (Verdict.Unknown (Sched.worst_reason reasons Verdict.Time_limit), total))
