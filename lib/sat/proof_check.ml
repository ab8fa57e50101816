type error =
  | Missing_pivot of { clause : int; pivot : int }
  | Wrong_result of { clause : int }
  | Empty_not_empty

let pp_error fmt = function
  | Missing_pivot { clause; pivot } ->
    Format.fprintf fmt "clause %d: pivot variable %d absent from a premise" clause pivot
  | Wrong_result { clause } ->
    Format.fprintf fmt "clause %d: replayed resolvent differs from recorded literals" clause
  | Empty_not_empty -> Format.fprintf fmt "registered empty clause is not empty"

module Lset = Set.Make (Int)

let set_of_lits lits = Array.fold_left (fun s l -> Lset.add l s) Lset.empty lits

exception Fail of error

(* Resolve [res] with clause [other] on variable [pivot]: [res] must hold
   one phase of the pivot, [other] the opposite one. *)
let resolve clause_id res other pivot =
  let p = Lit.pos pivot and n = Lit.of_var ~neg:true pivot in
  let lp, ln =
    if Lset.mem p res && Lset.mem n other then (p, n)
    else if Lset.mem n res && Lset.mem p other then (n, p)
    else raise (Fail (Missing_pivot { clause = clause_id; pivot }))
  in
  Lset.union (Lset.remove lp res) (Lset.remove ln other)

(* Only the used cone is replayed: it is exactly what derives the empty
   clause, and every antecedent of a used step is used. *)
let check (p : Proof.t) =
  try
    let sets = Array.make (Proof.n_steps p) Lset.empty in
    Array.iter
      (fun id ->
        let lits = set_of_lits (Proof.lits p id) in
        if Proof.is_input p id then sets.(id) <- lits
        else begin
          let res = ref sets.(Proof.first p id) in
          for k = 0 to Proof.chain_length p id - 1 do
            res := resolve id !res sets.(Proof.antecedent p id k) (Proof.pivot p id k)
          done;
          if not (Lset.equal !res lits) then raise (Fail (Wrong_result { clause = id }));
          sets.(id) <- !res
        end)
      (Proof.used p);
    if not (Lset.is_empty sets.(Proof.empty p)) then raise (Fail Empty_not_empty);
    Ok ()
  with Fail e -> Error e
