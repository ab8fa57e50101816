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
let step_holds budget stats model ~k =
  Isr_obs.Trace.span "kind.step" ~args:[ ("k", string_of_int k) ] @@ fun () ->
  let u = Unroll.create ~proof:false model in
  for f = 0 to k do
    Unroll.assert_circuit u ~frame:f ~tag:1 (Model.prop model);
    Unroll.add_transition u ~tag:1
  done;
  Unroll.assert_circuit u ~frame:(k + 1) ~tag:1 model.Model.bad;
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

type st = { run : Step.run; mutable k : int }

type snap = { s_k : int }

let step st =
  let { Step.model; budget; stats; _ } = st.run in
  let k = st.k in
  Verdict.beat stats ~step:k "kind.step";
  (* Base case: no counterexample of length exactly k (shorter ones
     were excluded at previous iterations). *)
  match Bmc.check_depth budget stats ~proof:false model ~check:Bmc.Exact ~k with
  | `Sat u ->
    let trace = Unroll.trace u in
    Some (Verdict.Falsified { depth = Step.cex_depth model ~k trace; trace })
  | `Unsat _ ->
    if step_holds budget stats model ~k then
      (* At k = 0 the two queries are initiation and consecution of
         the property itself: when bad reads latches only, it is an
         inductive invariant. *)
      let latch_only =
        List.for_all
          (fun i -> i >= model.Model.num_inputs)
          (Isr_aig.Aig.support model.Model.man model.Model.bad)
      in
      let invariant = if k = 0 && latch_only then Some (Model.prop model) else None in
      Some (Verdict.Proved { kfp = k; jfp = 0; invariant })
    else begin
      st.k <- k + 1;
      None
    end

let stepper () =
  Step.Packed
    {
      Step.name = "kind";
      init = (fun run -> { run; k = 0 });
      step;
      at_end = ignore;
      bound = (fun st -> st.k);
      snapshot = (fun st -> Marshal.to_string { s_k = st.k } []);
      restore =
        (fun run payload ->
          let s : snap = Marshal.from_string payload 0 in
          { run; k = s.s_k });
    }
