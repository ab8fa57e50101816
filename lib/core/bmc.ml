open Isr_sat
open Isr_model

type check = Bound | Exact | Assume

let check_name = function Bound -> "bound" | Exact -> "exact" | Assume -> "assume"

let build_instance ?frozen ~proof model ~check ~k =
  let u = Unroll.create ~proof model in
  Unroll.assert_init u ~tag:1;
  (* Assumed property at the intermediate frames (assume-k only):
     p(V^f) belongs to partition A_{f+1} together with T(V^f,V^f+1). *)
  let assumed f = check = Assume && f >= 1 in
  (* The target at every frame but 0 (bound-k), or at frame k. *)
  let bound = check = Bound && k > 0 in
  let targets = if bound then List.init k (fun i -> i + 1) else [ k ] in
  (* An instance whose proof is read is sized once.  A proof-free one
     (k-induction's base case, the BMC stepper) grows as before: it
     allocates little besides its clauses, the major GC is paced by
     allocation, and sizing it up front left the garbage of the
     instances before it uncollected for longer (the portfolio
     benchmark's peak heap rose 10% over ten pairs, for no resolved
     time gain). *)
  if proof then
    Unroll.reserve ?frozen u ~frames:k
      ~props:(List.length (List.filter assumed (List.init k Fun.id)) + List.length targets);
  for f = 0 to k - 1 do
    Unroll.add_transition ?frozen u ~tag:(f + 1);
    if assumed f then Unroll.assert_circuit u ~frame:f ~tag:(f + 1) (Model.prop model)
  done;
  if bound then
    Unroll.add_clause u ~tag:(k + 1)
      (List.map (fun f -> Unroll.encode u ~frame:f ~tag:(f + 1) model.Model.bad) targets)
  else Unroll.assert_circuit u ~frame:k ~tag:(k + 1) model.Model.bad;
  u

let check_depth budget stats ?frozen ~proof model ~check ~k =
  Verdict.note_bound stats k;
  Verdict.beat stats ~step:k ~detail:(check_name check) "bmc.bound";
  Isr_obs.Metrics.incr
    (Isr_obs.Metrics.counter (Verdict.registry stats) ("bmc.calls." ^ check_name check));
  Isr_obs.Trace.span "bmc.bound"
    ~args:[ ("k", string_of_int k); ("check", check_name check) ]
    (fun () ->
      let u = build_instance ?frozen ~proof model ~check ~k in
      match Budget.solve budget stats (Unroll.solver u) with
      | Solver.Sat -> `Sat u
      | Solver.Unsat -> `Unsat u
      | Solver.Undef -> assert false)

(* --- step-wise state machine: one depth per step ------------------------ *)

type st = {
  run : Step.run;
  check : check;
  incremental : bool;
  mutable k : int;
  (* Incremental deepening in one solver: the frame-k target is guarded
     by a fresh activation literal assumed during the solve and retired
     with a unit clause once the depth is exhausted; with assume-k the
     property is then asserted permanently at frame k (sound, since
     exact-k was just refuted).  Learned clauses carry over across
     depths.  Built lazily so a restored state rebuilds frames 0..k-1
     on its first step, never in [restore]. *)
  mutable inc : Unroll.t option;
}

type snap = { s_k : int }

let mk ~check ~incremental ~k run =
  { run; check; incremental = incremental && check <> Bound; k; inc = None }

(* The incremental unrolling with every depth < k already refuted: the
   exact shape deepening leaves behind, so a restored run continues the
   same solver dialogue. *)
let inc_unroll st =
  match st.inc with
  | Some u -> u
  | None ->
    let model = st.run.model in
    let u = Unroll.create ~proof:false model in
    Unroll.assert_init u ~tag:1;
    for f = 0 to st.k - 1 do
      if st.check = Assume then
        Unroll.assert_circuit u ~frame:f ~tag:(f + 1) (Model.prop model);
      Unroll.add_transition u ~tag:(f + 1)
    done;
    st.inc <- Some u;
    u

let falsified st u ~k =
  let trace = Unroll.trace u in
  Some (Verdict.Falsified { depth = Step.cex_depth st.run.model ~k trace; trace })

let step_incremental st k =
  let { Step.model; budget; stats; _ } = st.run in
  let u = inc_unroll st in
  let solver = Unroll.solver u in
  Verdict.note_bound stats k;
  Verdict.beat stats ~step:k ~detail:(check_name st.check) "bmc.bound";
  let act, result =
    Isr_obs.Trace.span "bmc.bound"
      ~args:[ ("k", string_of_int k); ("check", check_name st.check); ("incremental", "1") ]
      (fun () ->
        let act = Isr_sat.Lit.pos (Solver.new_var solver) in
        let bad_k = Unroll.encode u ~frame:k ~tag:(k + 1) model.Model.bad in
        Solver.add_clause solver ~tag:(k + 1) [ Isr_sat.Lit.neg act; bad_k ];
        (act, Budget.solve ~assumptions:[ act ] budget stats solver))
  in
  match result with
  | Solver.Sat -> falsified st u ~k
  | Solver.Undef -> assert false
  | Solver.Unsat ->
    Solver.add_clause solver [ Isr_sat.Lit.neg act ];
    if st.check = Assume then Unroll.assert_circuit u ~frame:k ~tag:(k + 1) (Model.prop model);
    Unroll.add_transition u ~tag:(k + 1);
    st.k <- k + 1;
    None

let step st =
  let k = st.k in
  if st.incremental then step_incremental st k
  else
    let { Step.model; budget; stats; _ } = st.run in
    match check_depth budget stats ~proof:false model ~check:st.check ~k with
    | `Sat u -> falsified st u ~k
    | `Unsat _ ->
      st.k <- k + 1;
      None

(* The depth-0 check the unbounded engines open with: init ∧ bad. *)
let check0 { Step.model; budget; stats; _ } =
  match check_depth budget stats ~proof:false model ~check:Exact ~k:0 with
  | `Sat u -> Some (Verdict.Falsified { depth = 0; trace = Unroll.trace u })
  | `Unsat _ -> None

let stepper ?(check = Assume) ?(incremental = false) () =
  Step.Packed
    {
      Step.name = Printf.sprintf "bmc-%s" (check_name check);
      init = mk ~check ~incremental ~k:0;
      step;
      at_end = ignore;
      bound = (fun st -> st.k);
      snapshot = (fun st -> Marshal.to_string { s_k = st.k } []);
      restore =
        (fun run payload ->
          let s : snap = Marshal.from_string payload 0 in
          mk ~check ~incremental ~k:s.s_k run);
    }

let run ?(check = Assume) ?(incremental = false) ?(limits = Budget.default_limits) ?cancel
    model =
  Step.drive (Step.start ~limits ?cancel (stepper ~check ~incremental ()) model)
