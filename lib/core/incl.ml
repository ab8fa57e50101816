open Isr_sat
open Isr_aig
open Isr_model
module Tseitin = Isr_cnf.Tseitin

(* One solver and one Tseitin context, until the next [reset].  The
   context gives every AIG node a single SAT variable with its full
   definition (v <-> a /\ b), so the clause set only ever states
   definitions: it is satisfiable under any assignment of the inputs,
   every learnt clause stays valid for later queries, and a query
   constrains nothing beyond its own assumptions.  [inputs] maps each
   AIG input the context has reached to its variable. *)
type encoding = { solver : Solver.t; ctx : Tseitin.t; inputs : (int, Lit.t) Hashtbl.t }

type t = {
  budget : Budget.t;
  stats : Verdict.stats;
  man : Aig.man;
  mutable enc : encoding;
  (* The last 64 satisfying assignments, one bit each: bit [i] of an
     input's word is its value in the assignment recorded [i] (mod 64)
     answers ago.  They outlive [reset]. *)
  states : (int, int64) Hashtbl.t;
  mutable nstates : int;
  (* AIG node values under [states], emptied whenever [states] changes
     and at [reset]: a sweep's R_j = R_{j-1} ∨ ℐ_j is then evaluated one
     column at a time, like the encoding. *)
  values : (int, int64) Hashtbl.t;
}

let encoding man =
  let solver = Solver.create ~proof:false () in
  let inputs = Hashtbl.create 16 in
  (* Inputs are latches (and primary inputs, for predicates that read
     them): the context asks for each one once. *)
  let input_lit i =
    let l = Lit.pos (Solver.new_var solver) in
    Hashtbl.replace inputs i l;
    l
  in
  { solver; ctx = Tseitin.create ~man ~solver ~tag:0 ~input_lit; inputs }

let create budget stats model =
  let man = model.Model.man in
  {
    budget;
    stats;
    man;
    enc = encoding man;
    states = Hashtbl.create 16;
    nstates = 0;
    values = Hashtbl.create 256;
  }

let reset t =
  t.enc <- encoding t.man;
  Hashtbl.reset t.values

let decide budget stats { solver; ctx; _ } a b =
  let v0 = Solver.nvars solver in
  let assumptions = [ Tseitin.lit ctx a; Tseitin.lit ctx b ] in
  Verdict.add_incl_check stats ~cached:false ~new_vars:(Solver.nvars solver - v0);
  match Budget.solve ~assumptions budget stats solver with
  | Solver.Sat -> true
  | Solver.Unsat -> false
  | Solver.Undef -> assert false

(* Does a remembered assignment satisfy [a ∧ b]?  One 64-way simulation
   of each cone.  Inputs no remembered answer assigned read as false —
   any value would do, the evaluation is exact for whatever it is. *)
let remembered t a b =
  t.nstates > 0
  &&
  let env i = Option.value ~default:0L (Hashtbl.find_opt t.states i) in
  let eval = Aig.eval64 ~memo:t.values t.man env in
  let live = if t.nstates >= 64 then -1L else Int64.pred (Int64.shift_left 1L t.nstates) in
  Int64.(logand live (logand (eval a) (eval b))) <> 0L

let remember t =
  Hashtbl.reset t.values;
  let bit = Int64.shift_left 1L (t.nstates land 63) in
  Hashtbl.iter
    (fun i l ->
      let w = Option.value ~default:0L (Hashtbl.find_opt t.states i) in
      Hashtbl.replace t.states i
        (if Solver.lit_value t.enc.solver l then Int64.logor w bit
         else Int64.logand w (Int64.lognot bit)))
    t.enc.inputs;
  t.nstates <- t.nstates + 1

let sat_and t a b =
  Isr_obs.Trace.span "incl.check" @@ fun () ->
  let r =
    if remembered t a b then begin
      Verdict.add_incl_check t.stats ~cached:true ~new_vars:0;
      true
    end
    else begin
      let r = decide t.budget t.stats t.enc a b in
      if r then remember t;
      r
    end
  in
  (* Paranoid: re-decide on an encoding of its own, with its own budget
     and registry so the run's conflict budget and counts do not depend
     on the check level; the run's cancel token still stops it. *)
  if Isr_check.Level.paranoid () then begin
    let budget = Budget.start ?cancel:(Budget.cancel t.budget) (Budget.limits t.budget) in
    Isr_check.Level.check "incl.incremental_agrees"
      (decide budget (Verdict.mk_stats ()) (encoding t.man) a b = r)
      ~detail:(fun () ->
        Printf.sprintf "incremental session answered %b, a fresh one %b" r (not r))
  end;
  r

let implies t a b = not (sat_and t a (Aig.not_ b))
