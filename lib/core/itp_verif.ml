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
  let u = Unroll.create ~proof:true model in
  (match start with
  | `Init -> Unroll.assert_init u ~tag:1
  | `Circuit c -> Unroll.assert_circuit u ~frame:0 ~tag:1 c);
  Unroll.reserve u ~frames:k ~props:k;
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
  run : Step.run;
  incl : Incl.t;
  mutable k : int;
  mutable phase : phase;
}

type snap = { s_k : int }  (* 0 = before the depth-0 check *)

let mk ~k run =
  {
    run;
    incl = Incl.create run.Step.budget run.stats run.model;
    k;
    phase = (if k = 0 then Check0 else Outer);
  }

(* The image I_j from a refuted bound-k instance, charged as cut [j]. *)
let itp_of st u ~k ~j =
  let model = st.run.model in
  let man = model.Model.man in
  let proof = Solver.proof (Unroll.solver u) in
  let i = Itp.interpolant proof ~cut:1 ~man ~var_map:(Unroll.boundary_map u ~frame:1) in
  Seq_family.charge_itp ~cut:j st.run.stats man i;
  Seq_family.lint_itp ~what:(Printf.sprintf "itp at k=%d" k) model i;
  i

let step st =
  let { Step.model; budget; stats; _ } = st.run in
  match st.phase with
  | Check0 ->
    (* Depth 0: does a bad state intersect the initial states? *)
    let v = Bmc.check0 st.run in
    if Option.is_none v then begin
      st.k <- 1;
      st.phase <- Outer
    end;
    v
  | Outer -> (
    let k = st.k in
    Verdict.note_bound stats k;
    Verdict.beat stats ~step:k "itp.outer";
    (* The bound's image chain starts over from new interpolants,
       which share little with the last bound's encoding. *)
    Incl.reset st.incl;
    (* Exact first iteration: A rooted at the real initial states,
       so a satisfiable answer is a genuine counterexample. *)
    let first =
      Isr_obs.Trace.span "itp.outer" ~args:[ ("k", string_of_int k) ] (fun () ->
          let u = build_bound_instance model ~start:`Init ~k in
          (u, Budget.solve budget stats (Unroll.solver u)))
    in
    match first with
    | u, Solver.Sat ->
      let trace = Unroll.trace u in
      Some (Verdict.Falsified { depth = Step.cex_depth model ~k trace; trace })
    | _, Solver.Undef -> assert false
    | u, Solver.Unsat ->
      st.phase <- Inner { j = 1; r = Model.init_lit model; cur = itp_of st u ~k ~j:1 };
      None)
  | Inner { j; r; cur } -> (
    let k = st.k in
    let man = model.Model.man in
    (* cur = I_j; r = R_{j-1}. *)
    let res =
      Isr_obs.Trace.span "itp.inner"
        ~args:[ ("k", string_of_int k); ("j", string_of_int j) ]
        (fun () ->
          if Incl.implies st.incl cur r then `Fixpoint
          else begin
            let u = build_bound_instance model ~start:(`Circuit cur) ~k in
            match Budget.solve budget stats (Unroll.solver u) with
            | Solver.Sat -> `Deepen
            | Solver.Unsat -> `Next (itp_of st u ~k ~j:(j + 1))
            | Solver.Undef -> assert false
          end)
    in
    match res with
    | `Fixpoint ->
      Log.debug (fun m -> m "fixpoint at k=%d j=%d" k j);
      Some (Verdict.Proved { kfp = k; jfp = j; invariant = Some r })
    | `Deepen ->
      (* possibly spurious: deepen *)
      st.k <- k + 1;
      st.phase <- Outer;
      None
    | `Next cur' ->
      st.phase <- Inner { j = j + 1; r = Aig.or_ man r cur; cur = cur' };
      None)

let stepper () =
  Step.Packed
    {
      Step.name = "itp";
      init = mk ~k:0;
      step;
      at_end = ignore;
      bound = (fun st -> st.k);
      snapshot =
        (fun st ->
          Marshal.to_string { s_k = (match st.phase with Check0 -> 0 | _ -> st.k) } []);
      restore =
        (fun run payload ->
          let s : snap = Marshal.from_string payload 0 in
          mk ~k:s.s_k run);
    }
