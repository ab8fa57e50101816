(* Shared helpers for the test suites. *)

open Isr_sat

(* Evaluate a clause list under an assignment encoded as an int bitmask. *)
let clause_sat mask c =
  List.exists
    (fun l ->
      let bit = (mask lsr Lit.var l) land 1 = 1 in
      if Lit.is_neg l then not bit else bit)
    c

let clauses_sat mask cs = List.for_all (clause_sat mask) cs

(* Brute-force satisfiability of a clause list over [nvars] variables. *)
let brute_sat nvars cs =
  let n = 1 lsl nvars in
  let rec go m = m < n && (clauses_sat m cs || go (m + 1)) in
  go 0

let fresh_solver ?proof nvars =
  let s = Solver.create ?proof () in
  for _ = 1 to nvars do
    ignore (Solver.new_var s)
  done;
  s

(* Binary implication chains under longer clauses.  Uniformly random
   small formulas are almost always decided by propagation alone; here
   each variable is usually implied by one earlier literal, so a search
   takes several decisions, propagates along the chains, and learns
   clauses over several levels whose chained literals minimisation
   removes. *)
let gen_cnf_chains =
  let open QCheck2.Gen in
  let* nvars = int_range 8 16 in
  let gen_lit = map2 (fun v neg -> Lit.of_var ~neg v) (int_range 0 (nvars - 1)) bool in
  let link v =
    let* linked = float_range 0.0 1.0 in
    let* parent = int_range 0 (v - 1) in
    let* pneg = bool and* vneg = bool in
    pure
      (if linked < 0.8 then [ [ Lit.of_var ~neg:pneg parent; Lit.of_var ~neg:vneg v ] ]
       else [])
  in
  let* chains = flatten_l (List.init (nvars - 1) (fun i -> link (i + 1))) in
  let* nlong = int_range (5 * nvars / 2) (5 * nvars) in
  let* long = list_size (pure nlong) (int_range 3 4 >>= fun n -> list_size (pure n) gen_lit) in
  pure (nvars, List.concat chains @ long)
