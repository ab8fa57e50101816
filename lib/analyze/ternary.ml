open Isr_aig
open Isr_model

(* Three-valued simulation domain.  [X] is "unknown / both": the
   refinement order puts concrete values below X, and every operator is
   monotone with respect to it, so whatever a ternary evaluation pins to
   a constant is pinned for every concrete completion. *)

type tv = F | T | X

let of_bool b = if b then T else F
let to_bool = function F -> Some false | T -> Some true | X -> None
let to_string = function F -> "0" | T -> "1" | X -> "x"

let join a b = if a = b then a else X
let refines a b = b = X || a = b
let tnot = function F -> T | T -> F | X -> X
let tand a b = match (a, b) with F, _ | _, F -> F | T, T -> T | _ -> X

(* The codes of {!Isr_aig.Prog}'s ternary domain. *)
let code = function F -> Prog.t_false | T -> Prog.t_true | X -> Prog.t_x
let of_code c = if c = Prog.t_false then F else if c = Prog.t_true then T else X

type values = { prog : Prog.t; trits : Bytes.t }

let node_values man ~env roots =
  let prog = Prog.compile man roots in
  let trits = Prog.trits prog in
  Prog.eval3 prog trits (fun i -> code (env i));
  { prog; trits }

let lit_value v l = of_code (Prog.lit_trit v.prog v.trits l)

let iter_ands v ~f =
  for s = 0 to Prog.size v.prog - 1 do
    if Prog.is_and v.prog s then f (Prog.node v.prog s) (of_code (Prog.trit v.trits s))
  done

let env_of (model : Model.t) ~state ~inputs i =
  if i < model.Model.num_inputs then
    if i < Array.length inputs then inputs.(i) else X
  else state.(i - model.Model.num_inputs)

let eval_lit (model : Model.t) ~state ~inputs l =
  lit_value (node_values model.Model.man ~env:(env_of model ~state ~inputs) [ l ]) l

let step (model : Model.t) ~state ~inputs =
  let v =
    node_values model.Model.man
      ~env:(env_of model ~state ~inputs)
      (Array.to_list model.Model.next)
  in
  Array.map (lit_value v) model.Model.next

let bad_now model ~state ~inputs = eval_lit model ~state ~inputs model.Model.bad

let lfp (model : Model.t) =
  let ni = model.Model.num_inputs and nl = model.Model.num_latches in
  let next = model.Model.next in
  let prog = Prog.compile model.Model.man (Array.to_list next) in
  let trits = Prog.trits prog in
  let state = Array.init nl (fun i -> code (of_bool model.Model.init.(i))) in
  (* Kleene iteration joining each step image into the state (the join
     of two codes is their [lor]): values only ever move const -> X, so
     the loop runs at most [nl] + 1 times. *)
  let changed = ref true in
  while !changed do
    changed := false;
    Prog.eval3 prog trits (fun i -> if i < ni then Prog.t_x else state.(i - ni));
    for i = 0 to nl - 1 do
      let v = state.(i) lor Prog.lit_trit prog trits next.(i) in
      if v <> state.(i) then begin
        state.(i) <- v;
        changed := true
      end
    done
  done;
  Array.map of_code state
