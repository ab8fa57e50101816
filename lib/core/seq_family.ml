open Isr_sat
open Isr_aig
open Isr_model
open Isr_itp

type mode = Parallel | Serial of float

let mode_name = function
  | Parallel -> "parallel"
  | Serial alpha -> Printf.sprintf "serial(%.2f)" alpha

let src = Logs.Src.create "isr.seq_family" ~doc:"interpolation sequence extraction"

module Log = (val Logs.src_log src : Logs.LOG)

(* Charge one extracted interpolant to the run's metrics, and — when a
   recorder is listening — log the per-cut extraction event (support
   width and cone size are the paper's two interpolant-size measures). *)
let charge_itp ?(cut = 1) stats man l =
  let nodes = Aig.cone_size man l in
  Verdict.add_itp_nodes stats nodes;
  if Isr_obs.Event.enabled () then
    Isr_obs.Event.emit
      (Isr_obs.Event.Itp_cut { cut; support = List.length (Aig.support man l); nodes })

(* Paranoid sanitizing: every emitted interpolant must be a state
   predicate — its cone confined to the latch inputs, the shared
   variables of every cut (see Isr_check.Lint_itp). *)
let lint_itp ~what model itp =
  if Isr_check.Level.paranoid () then Isr_check.Lint_itp.enforce ~what model itp

(* Parallel family from a refutation: one interpolant per requested cut,
   all from the same proof (Equation 2).  Explicit [ncuts] keeps the
   family aligned even when a degenerate partition emitted no clause.
   Extraction can dwarf a conflict slice on big proofs, so the deadline
   (and the cancel token) is re-checked between cuts — the overshoot is
   bounded by one cut, not one family. *)
let of_refutation ?(system = Itp.McMillan) budget stats u ~ncuts =
  let model = Unroll.model u in
  Isr_obs.Trace.span "itpseq.family" ~args:[ ("ncuts", string_of_int ncuts) ] (fun () ->
      Budget.check_time budget;
      let proof = Solver.proof (Unroll.solver u) in
      let info = Itp.analyze proof in
      let seq =
        Array.init ncuts (fun j ->
            Budget.check_time budget;
            Itp.interpolant ~info ~system proof ~cut:(j + 1) ~man:model.Model.man
              ~var_map:(Unroll.any_state_map u))
      in
      Array.iteri (fun j itp -> charge_itp ~cut:(j + 1) stats model.Model.man itp) seq;
      Array.iteri
        (fun j itp -> lint_itp ~what:(Printf.sprintf "family cut %d" (j + 1)) model itp)
        seq;
      seq)

(* One serial step (Definition 3): a fresh instance
     I_{j-1}(V^0) ∧ [p(V^0)] ∧ T ∧ … ∧ ¬p(V^last)
   in shifted coordinates, where local frame g is original frame j-1+g.
   Partition 1 holds I_{j-1} and the first transition; partition 2 all
   the rest, so the standard cut-1 interpolant is I_j. *)
let serial_step ~system budget stats ?frozen model ~check ~k ~j prev =
  Isr_obs.Trace.span "itpseq.serial_step"
    ~args:[ ("k", string_of_int k); ("j", string_of_int j) ]
  @@ fun () ->
  let u = Unroll.create model in
  Unroll.assert_circuit u ~frame:0 ~tag:1 prev;
  if check = Bmc.Assume && j >= 2 then
    (* p(V^{j-1}) belongs to A_j (partition 1 here). *)
    Unroll.assert_circuit u ~frame:0 ~tag:1 (Model.prop model);
  Unroll.add_transition ?frozen u ~tag:1;
  let local_last = k - j + 1 in
  for g = 1 to local_last - 1 do
    if check = Bmc.Assume then
      (* original frame j-1+g <= k-1 always holds here *)
      Unroll.assert_circuit u ~frame:g ~tag:2 (Model.prop model);
    Unroll.add_transition ?frozen u ~tag:2
  done;
  Unroll.assert_circuit u ~frame:local_last ~tag:2 model.Model.bad;
  match Budget.solve budget stats (Unroll.solver u) with
  | Solver.Sat -> None
  | Solver.Unsat ->
    Budget.check_time budget;
    let proof = Solver.proof (Unroll.solver u) in
    let itp =
      Itp.interpolant ~system proof ~cut:1 ~man:model.Model.man
        ~var_map:(Unroll.boundary_map u ~frame:1)
    in
    charge_itp ~cut:j stats model.Model.man itp;
    lint_itp ~what:(Printf.sprintf "serial step j=%d" j) model itp;
    Some itp
  | Solver.Undef -> assert false

(* Parallel tail of Figure 4: ITPSEQ({I_ns, Γ_{ns+1..n}}). *)
let serial_tail ~system budget stats ?frozen model ~check ~k ~ns prev =
  let u = Unroll.create model in
  Unroll.assert_circuit u ~frame:0 ~tag:1 prev;
  if check = Bmc.Assume && ns >= 1 then
    Unroll.assert_circuit u ~frame:0 ~tag:1 (Model.prop model);
  let len = k - ns in
  for g = 0 to len - 1 do
    Unroll.add_transition ?frozen u ~tag:(g + 1);
    if check = Bmc.Assume && g + 1 <= len - 1 then
      Unroll.assert_circuit u ~frame:(g + 1) ~tag:(g + 2) (Model.prop model)
  done;
  Unroll.assert_circuit u ~frame:len ~tag:(len + 1) model.Model.bad;
  match Budget.solve budget stats (Unroll.solver u) with
  | Solver.Sat -> None
  | Solver.Unsat -> Some (of_refutation ~system budget stats u ~ncuts:len)
  | Solver.Undef -> assert false

let compute ?(system = Itp.McMillan) budget stats ?frozen model ~mode ~check ~k =
  if k < 1 then invalid_arg "Seq_family.compute: k must be >= 1";
  match Bmc.check_depth budget stats ?frozen model ~check ~k with
  | `Sat u -> `Cex u
  | `Unsat u -> (
    let man = model.Model.man in
    match mode with
    | Parallel -> `Family (of_refutation ~system budget stats u ~ncuts:k)
    | Serial alpha ->
      let ns = int_of_float (alpha *. float_of_int (k + 1)) in
      let ns = max 0 (min ns k) in
      if ns = 0 then `Family (of_refutation ~system budget stats u ~ncuts:k)
      else begin
        (* I_1 comes from the refutation we already own: the j = 1 serial
           instance is the BMC instance itself. *)
        Budget.check_time budget;
        let proof = Solver.proof (Unroll.solver u) in
        let i1 =
          Itp.interpolant ~system proof ~cut:1 ~man ~var_map:(Unroll.boundary_map u ~frame:1)
        in
        charge_itp stats man i1;
        lint_itp ~what:"serial step j=1" model i1;
        let family = Array.make k Aig.lit_true in
        family.(0) <- i1;
        let rec serial j prev =
          if j > ns then Some prev
          else
            match serial_step ~system budget stats ?frozen model ~check ~k ~j prev with
            | None -> None
            | Some itp ->
              family.(j - 1) <- itp;
              serial (j + 1) itp
        in
        match serial 2 i1 with
        | None ->
          (* An over-approximate prefix made the instance satisfiable:
             fall back to the all-parallel family (Section IV-C). *)
          Log.debug (fun m -> m "serial saturation at k=%d: parallel fallback" k);
          `Family (of_refutation ~system budget stats u ~ncuts:k)
        | Some prev ->
          if ns = k then `Family family
          else (
            match serial_tail ~system budget stats ?frozen model ~check ~k ~ns prev with
            | None ->
              Log.debug (fun m -> m "serial tail saturated at k=%d: parallel fallback" k);
              `Family (of_refutation ~system budget stats u ~ncuts:k)
            | Some tail ->
              Array.blit tail 0 family ns (k - ns);
              `Family family)
      end)
