open Isr_aig
open Isr_model

let column ?(max_nodes = 20_000) (model : Model.t) p =
  let man = model.Model.man in
  let before = Aig.cone_size man p in
  let unchanged = (p, before, before) in
  (* Only predicates over latches qualify: anything reading a primary
     input (or an input outside the model) is returned unchanged. *)
  let lo = model.Model.num_inputs and nl = model.Model.num_latches in
  if List.exists (fun i -> i < lo || i >= lo + nl) (Aig.support man p) then unchanged
  else
    match
      let bman = Bdd.create ~max_nodes ~size_hint:(min 1024 (before + 2)) ~nvars:nl () in
      let b = Bdd.of_aig bman man ~input_var:(fun i -> Bdd.var bman (i - lo)) p in
      Bdd.to_aig bman man ~var_lit:(fun v -> Model.latch_lit model v) b
    with
    | rebuilt ->
      (* Keep whichever is structurally smaller. *)
      let after = Aig.cone_size man rebuilt in
      if after <= before then (rebuilt, before, after) else unchanged
    | exception Bdd.Overflow -> unchanged

let state_predicate ?(max_nodes = 200_000) model p =
  let kept, _, _ = column ~max_nodes model p in
  kept
