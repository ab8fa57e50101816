open Isr_sat
open Isr_model

(* Pairwise state-difference clause between two frames: at least one
   latch differs.  Difference variables d <-> (a xor b) are fresh. *)
let assert_frames_differ u ~tag f g =
  let solver = Unroll.solver u in
  let model = Unroll.model u in
  let nl = model.Model.num_latches in
  let diffs =
    List.init nl (fun i ->
        let a = Unroll.state_lit u ~frame:f i in
        let b = Unroll.state_lit u ~frame:g i in
        let d = Lit.pos (Solver.new_var solver) in
        (* d -> (a xor b), and (a xor b) -> d. *)
        Solver.add_clause solver ~tag [ Lit.neg d; a; b ];
        Solver.add_clause solver ~tag [ Lit.neg d; Lit.neg a; Lit.neg b ];
        Solver.add_clause solver ~tag [ d; a; Lit.neg b ];
        Solver.add_clause solver ~tag [ d; Lit.neg a; b ];
        d)
  in
  Solver.add_clause solver ~tag diffs

(* Inductive step at depth k: states s_0..s_{k+1}, p holds on s_0..s_k,
   bad at s_{k+1}, all states pairwise distinct.  UNSAT proves the
   property k-inductive (given the base case). *)
let step_holds budget stats ~unique model ~k =
  Isr_obs.Trace.span "kind.step" ~args:[ ("k", string_of_int k) ] @@ fun () ->
  let u = Unroll.create ~proof:false model in
  for f = 0 to k do
    Unroll.assert_circuit u ~frame:f ~tag:1 (Model.prop model);
    Unroll.add_transition u ~tag:1
  done;
  Unroll.assert_circuit u ~frame:(k + 1) ~tag:1 model.Model.bad;
  if unique then
    for f = 0 to k do
      for g = f + 1 to k + 1 do
        assert_frames_differ u ~tag:1 f g
      done
    done;
  match Budget.solve budget stats (Unroll.solver u) with
  | Solver.Unsat -> true
  | Solver.Sat -> false
  | Solver.Undef -> assert false

(* --- step-wise state machine: one k (base + inductive check) per step --- *)

type st = {
  model : Model.t;
  limits : Budget.limits;
  budget : Budget.t;
  stats : Verdict.stats;
  unique : bool;
  mutable k : int;
}

type snap = { s_k : int }

let finish st v =
  Verdict.set_time st.stats (Budget.elapsed st.budget);
  (v, st.stats)

let mk ~limits ~unique ~k model =
  { model; limits; budget = Budget.start limits; stats = Verdict.mk_stats (); unique; k }

let step st =
  let status =
    Step.budget_guard ~finish:(finish st) @@ fun () ->
    let k = st.k in
    if k > st.limits.Budget.bound_limit then
      Step.Done
        (finish st (Verdict.Unknown (Verdict.Bound_limit st.limits.Budget.bound_limit)))
    else begin
      Verdict.beat st.stats ~step:k "kind.step";
      (* Base case: no counterexample of length exactly k (shorter ones
         were excluded at previous iterations). *)
      match Bmc.check_depth st.budget st.stats ~proof:false st.model ~check:Bmc.Exact ~k with
      | `Sat u ->
        let tr = Unroll.trace u in
        let depth = match Sim.first_bad st.model tr with Some d -> d | None -> k in
        Step.Done (finish st (Verdict.Falsified { depth; trace = tr }))
      | `Unsat _ ->
        if step_holds st.budget st.stats ~unique:st.unique st.model ~k then
          (* At k = 0 the two queries are initiation and consecution of
             the property itself: when bad reads latches only, it is an
             inductive invariant. *)
          let m = st.model in
          let latch_only =
            List.for_all (fun i -> i >= m.Model.num_inputs) (Isr_aig.Aig.support m.Model.man m.Model.bad)
          in
          let invariant = if k = 0 && latch_only then Some (Model.prop m) else None in
          Step.Done (finish st (Verdict.Proved { kfp = k; jfp = 0; invariant }))
        else begin
          st.k <- k + 1;
          Step.Running
        end
    end
  in
  (st, status)

let stepper ?(unique = true) () =
  Step.Packed
    {
      Step.name = "kind";
      init = (fun ~limits model -> mk ~limits ~unique ~k:0 model);
      step;
      stats = (fun st -> st.stats);
      bound = (fun st -> st.k);
      snapshot = (fun st -> Marshal.to_string { s_k = st.k } []);
      restore =
        (fun ~limits model payload ->
          let s : snap = Marshal.from_string payload 0 in
          mk ~limits ~unique ~k:s.s_k model);
    }

let verify ?(unique = true) ?limits model =
  Step.drive (Step.start ?limits (stepper ~unique ()) model)
