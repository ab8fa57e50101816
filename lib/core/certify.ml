open Isr_aig
open Isr_model

type failure = Not_initial | Not_inductive | Not_safe | Resource_out

let pp_failure fmt = function
  | Not_initial -> Format.pp_print_string fmt "some initial state is outside the invariant"
  | Not_inductive -> Format.pp_print_string fmt "the invariant is not closed under T"
  | Not_safe -> Format.pp_print_string fmt "the invariant admits a bad state"
  | Resource_out ->
    Format.pp_print_string fmt "the certification budget expired before an answer"

exception Out

let check ?(limits = Budget.default_limits) model inv =
  let budget = Budget.start limits in
  let stats = Verdict.mk_stats () in
  let unsat build =
    let u = Unroll.create ~proof:false model in
    build u;
    match Budget.solve budget stats (Unroll.solver u) with
    | Isr_sat.Solver.Unsat -> true
    | Isr_sat.Solver.Sat -> false
    | Isr_sat.Solver.Undef -> raise_notrace Out
  in
  try
    (* 1. S0 /\ not inv *)
    if
      not
        (unsat (fun u ->
             Unroll.assert_init u ~tag:1;
             Unroll.assert_circuit u ~frame:0 ~tag:1 (Aig.not_ inv)))
    then Error Not_initial
      (* 2. inv(V0) /\ T /\ not inv(V1) *)
    else if
      not
        (unsat (fun u ->
             Unroll.assert_circuit u ~frame:0 ~tag:1 inv;
             Unroll.add_transition u ~tag:1;
             Unroll.assert_circuit u ~frame:1 ~tag:1 (Aig.not_ inv)))
    then Error Not_inductive
      (* 3. inv /\ bad *)
    else if
      not
        (unsat (fun u ->
             Unroll.assert_circuit u ~frame:0 ~tag:1 inv;
             Unroll.assert_circuit u ~frame:0 ~tag:1 model.Model.bad))
    then Error Not_safe
    else Ok ()
  with Out | Budget.Out_of_time | Budget.Out_of_conflicts -> Error Resource_out

let check_verdict ?limits model = function
  | Verdict.Proved { invariant = Some inv; _ } -> (
    match check ?limits model inv with
    | Ok () -> Ok ()
    | Error f -> Error (Format.asprintf "invalid certificate: %a" pp_failure f))
  | Verdict.Proved { invariant = None; _ } -> Ok ()
  | Verdict.Falsified { trace; depth } ->
    if Sim.first_bad model trace = Some depth then Ok ()
    else Error "counterexample does not replay at the claimed depth"
  | Verdict.Unknown _ -> Ok ()
