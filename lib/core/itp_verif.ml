open Isr_sat
open Isr_aig
open Isr_model
open Isr_itp

let src = Logs.Src.create "isr.itp" ~doc:"standard interpolation engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* Depth-k bound instance with a 2-way partition: A (tag 1) is the
   start predicate and the first transition; B (tag 2) the remaining
   transitions and the disjunction of the negated property over frames
   1..k (Equation 1 of the paper). *)
let build_bound_instance model ~start ~k =
  let u = Unroll.create model in
  (match start with
  | `Init -> Unroll.assert_init u ~tag:1
  | `Circuit c -> Unroll.assert_circuit u ~frame:0 ~tag:1 c);
  Unroll.add_transition u ~tag:1;
  for _ = 1 to k - 1 do
    Unroll.add_transition u ~tag:2
  done;
  let bads =
    List.init k (fun i -> Unroll.encode u ~frame:(i + 1) ~tag:2 model.Model.bad)
  in
  Unroll.add_clause u ~tag:2 bads;
  u

(* --- step-wise state machine -------------------------------------------
   One step is the depth-0 check, the exact first iteration of a bound,
   or one inner traversal iteration (fixpoint test + one instance).
   Snapshots record the current bound only: the inner chain is re-driven
   from the bound's start on resume, which is deterministic. *)

type phase =
  | Check0                                        (* init ∧ bad *)
  | Outer                                         (* exact first iteration at [k] *)
  | Inner of { j : int; r : Aig.lit; cur : Aig.lit }  (* r = R_{j-1}, cur = I_j *)

type st = {
  model : Model.t;
  limits : Budget.limits;
  budget : Budget.t;
  stats : Verdict.stats;
  incl : Incl.t;
  system : Itp.system option;
  mutable k : int;
  mutable phase : phase;
}

type snap = { s_k : int }  (* 0 = before the depth-0 check *)

let finish st v =
  Verdict.set_time st.stats (Budget.elapsed st.budget);
  (v, st.stats)

let mk ~limits ~system ~k model =
  let budget = Budget.start limits and stats = Verdict.mk_stats () in
  {
    model;
    limits;
    budget;
    stats;
    incl = Incl.create budget stats model;
    system;
    k;
    phase = (if k = 0 then Check0 else Outer);
  }

let falsified st u ~k =
  let tr = Unroll.trace u in
  let depth = match Sim.first_bad st.model tr with Some d -> d | None -> k in
  Step.Done (finish st (Verdict.Falsified { depth; trace = tr }))

let itp_of st u ~k =
  let man = st.model.Model.man in
  let proof = Solver.proof (Unroll.solver u) in
  let i =
    Itp.interpolant ?system:st.system proof ~cut:1 ~man
      ~var_map:(Unroll.boundary_map u ~frame:1)
  in
  Verdict.add_itp_nodes st.stats (Aig.cone_size man i);
  if Isr_check.Level.paranoid () then
    Isr_check.Lint_itp.enforce ~what:(Printf.sprintf "itp at k=%d" k) st.model i;
  i

let step st =
  let status =
    Step.budget_guard ~finish:(finish st) @@ fun () ->
    match st.phase with
    | Check0 -> (
      (* Depth 0: does a bad state intersect the initial states? *)
      match Bmc.check_depth st.budget st.stats st.model ~check:Bmc.Exact ~k:0 with
      | `Sat u -> Step.Done (finish st (Verdict.Falsified { depth = 0; trace = Unroll.trace u }))
      | `Unsat _ ->
        st.k <- 1;
        st.phase <- Outer;
        Step.Running)
    | Outer ->
      let k = st.k in
      if k > st.limits.Budget.bound_limit then
        Step.Done
          (finish st (Verdict.Unknown (Verdict.Bound_limit st.limits.Budget.bound_limit)))
      else begin
        Verdict.note_bound st.stats k;
        Verdict.beat st.stats ~step:k "itp.outer";
        (* The bound's image chain starts over from new interpolants,
           which share little with the last bound's encoding. *)
        Incl.reset st.incl;
        (* Exact first iteration: A rooted at the real initial states,
           so a satisfiable answer is a genuine counterexample. *)
        let first =
          Isr_obs.Trace.span "itp.outer" ~args:[ ("k", string_of_int k) ] (fun () ->
              let u = build_bound_instance st.model ~start:`Init ~k in
              (u, Budget.solve st.budget st.stats (Unroll.solver u)))
        in
        match first with
        | u, Solver.Sat -> falsified st u ~k
        | _, Solver.Undef -> assert false
        | u, Solver.Unsat ->
          st.phase <- Inner { j = 1; r = Model.init_lit st.model; cur = itp_of st u ~k };
          Step.Running
      end
    | Inner { j; r; cur } -> (
      let k = st.k in
      let man = st.model.Model.man in
      (* cur = I_j; r = R_{j-1}. *)
      let res =
        Isr_obs.Trace.span "itp.inner"
          ~args:[ ("k", string_of_int k); ("j", string_of_int j) ]
          (fun () ->
            if Incl.implies st.incl cur r then `Fixpoint
            else begin
              let u = build_bound_instance st.model ~start:(`Circuit cur) ~k in
              match Budget.solve st.budget st.stats (Unroll.solver u) with
              | Solver.Sat -> `Deepen
              | Solver.Unsat -> `Next (itp_of st u ~k)
              | Solver.Undef -> assert false
            end)
      in
      match res with
      | `Fixpoint ->
        Log.debug (fun m -> m "fixpoint at k=%d j=%d" k j);
        Step.Done (finish st (Verdict.Proved { kfp = k; jfp = j; invariant = Some r }))
      | `Deepen ->
        (* possibly spurious: deepen *)
        st.k <- k + 1;
        st.phase <- Outer;
        Step.Running
      | `Next cur' ->
        st.phase <- Inner { j = j + 1; r = Aig.or_ man r cur; cur = cur' };
        Step.Running)
  in
  (st, status)

let stepper ?system () =
  Step.Packed
    {
      Step.name = "itp";
      init = (fun ~limits model -> mk ~limits ~system ~k:0 model);
      step;
      stats = (fun st -> st.stats);
      bound = (fun st -> st.k);
      snapshot =
        (fun st ->
          Marshal.to_string { s_k = (match st.phase with Check0 -> 0 | _ -> st.k) } []);
      restore =
        (fun ~limits model payload ->
          let s : snap = Marshal.from_string payload 0 in
          mk ~limits ~system ~k:s.s_k model);
    }

let verify ?system ?limits model =
  Step.drive (Step.start ?limits (stepper ?system ()) model)
