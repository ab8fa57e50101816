open Isr_sat
open Isr_aig
open Isr_model

let in_latch_range (model : Model.t) i =
  i >= model.Model.num_inputs && i < model.Model.num_inputs + model.Model.num_latches

let check_state_predicate (model : Model.t) itp =
  Lint_aig.lint_cone ~check:"itp.support" model.Model.man
    ~shared:(in_latch_range model) itp

let enforce ~what model itp =
  if Level.on () then
    match Diag.errors (check_state_predicate model itp) with
    | [] -> Level.record "itp.support"
    | d :: _ ->
      Level.violated "itp.support" ~detail:(Format.asprintf "%s: %a" what Diag.pp d)

(* One bounded query: [I at frame 0] (unless this is the A side, which
   asserts Init instead), [steps] transitions, then [goal] at the last
   frame.  [props] lists the frames where the property is additionally
   assumed. *)
let query ?conflict_budget (model : Model.t) ~init ~steps ~props ~goal =
  let u = Unroll.create ~proof:true model in
  let tag = 1 in
  (match init with
  | `Init -> Unroll.assert_init u ~tag
  | `Itp i -> Unroll.assert_circuit u ~frame:0 ~tag i);
  for _ = 1 to steps do
    Unroll.add_transition u ~tag
  done;
  List.iter (fun f -> Unroll.assert_circuit u ~frame:f ~tag (Model.prop model)) props;
  Unroll.assert_circuit u ~frame:steps ~tag goal;
  Solver.solve ?conflict_budget (Unroll.solver u)

let range a b = List.init (max 0 (b - a + 1)) (fun i -> a + i)

let semantic ?conflict_budget ?(assume = false) (model : Model.t) ~cut ~k itp =
  if cut < 0 || cut > k then invalid_arg "Lint_itp.semantic: cut outside [0, k]";
  let ds = ref [] in
  let add d = ds := d :: !ds in
  (* A ⊨ I: Init ∧ T^cut ∧ ¬I must be unsatisfiable. *)
  (match
     query ?conflict_budget model ~init:`Init ~steps:cut
       ~props:(if assume then range 1 cut else [])
       ~goal:(Aig.not_ itp)
   with
  | Solver.Unsat -> ()
  | Solver.Sat ->
    add
      (Diag.errorf ~check:"itp.init_implication"
         ~loc:(Printf.sprintf "cut %d" cut)
         ~hint:"the interpolant does not over-approximate the states reachable in cut steps"
         "Init ∧ T^%d does not imply the interpolant" cut)
  | Solver.Undef ->
    add
      (Diag.warningf ~check:"itp.undecided" ~loc:(Printf.sprintf "cut %d" cut)
         "A-side query gave up under the conflict budget"));
  (* I ∧ B unsat: I ∧ T^(k-cut) ∧ Bad must be unsatisfiable. *)
  (match
     query ?conflict_budget model ~init:(`Itp itp) ~steps:(k - cut)
       ~props:(if assume then range 0 (k - cut - 1) else [])
       ~goal:model.Model.bad
   with
  | Solver.Unsat -> ()
  | Solver.Sat ->
    add
      (Diag.errorf ~check:"itp.bad_consistency"
         ~loc:(Printf.sprintf "cut %d" cut)
         ~hint:"the interpolant admits a state that still reaches Bad within the bound"
         "the interpolant is consistent with T^%d ∧ Bad" (k - cut))
  | Solver.Undef ->
    add
      (Diag.warningf ~check:"itp.undecided" ~loc:(Printf.sprintf "cut %d" cut)
         "B-side query gave up under the conflict budget"));
  List.rev !ds
