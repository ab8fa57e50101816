open Isr_sat
open Isr_aig
module Tseitin = Isr_cnf.Tseitin
module Check = Isr_check_core.Level

type t = {
  model : Model.t;
  solver : Solver.t;
  mutable states : Lit.t array array;      (* frame -> latch -> SAT literal *)
  mutable pis : Lit.t array option array;  (* frame -> PI -> SAT literal *)
  mutable nframes : int;
  eq_ids : Vec.t;   (* proof-log ids of the state-equality clauses, increasing *)
  eq_latch : Vec.t; (* latch index of each, at the same position *)
}

(* [n] fresh variables in one block, as positive literals. *)
let fresh_lits solver n =
  let v0 = Solver.new_vars solver n in
  Array.init n (fun i -> Lit.pos (v0 + i))

(* The last index [i] in [lo, hi) with [key i <= x], or [lo - 1]. *)
let rec last_le key x lo hi =
  if lo >= hi then lo - 1
  else
    let mid = (lo + hi) / 2 in
    if key mid <= x then last_le key x (mid + 1) hi else last_le key x lo mid

(* State variables are allocated frame after frame, and within a frame in
   latch order, so each [states.(f)] is sorted by variable and every
   variable of a frame precedes those of the next: the frames themselves
   are the variable -> (frame, latch) map, searched by bisection. *)
let latch_at t frame v =
  let a = t.states.(frame) in
  let i = last_le (fun i -> Lit.var a.(i)) v 0 (Array.length a) in
  if i >= 0 && Lit.var a.(i) = v then i else -1

(* The frame whose state variables span [v], or -1. *)
let frame_of t v =
  let first f = if Array.length t.states.(f) = 0 then max_int else Lit.var t.states.(f).(0) in
  last_le first v 0 t.nframes

(* Paranoid replays every refutation it can reach, so it logs a proof
   whatever the caller reads. *)
let create ?reduce ~proof model =
  let solver = Solver.create ~proof:(proof || Check.paranoid ()) () in
  (match reduce with Some p -> Solver.set_reduce solver p | None -> ());
  let state0 = fresh_lits solver model.Model.num_latches in
  let t =
    {
      model;
      solver;
      states = Array.make 8 [||];
      pis = Array.make 8 None;
      nframes = 1;
      eq_ids = Vec.create ();
      eq_latch = Vec.create ();
    }
  in
  t.states.(0) <- state0;
  t

let model t = t.model
let solver t = t.solver
let nframes t = t.nframes

let state_lit t ~frame i =
  if frame < 0 || frame >= t.nframes then invalid_arg "Unroll.state_lit: no such frame";
  t.states.(frame).(i)

(* Room for [n] frames in all. *)
let reserve_frames t n =
  if n > Array.length t.states then begin
    let s = Array.make n [||] in
    Array.blit t.states 0 s 0 t.nframes;
    t.states <- s;
    let p = Array.make n None in
    Array.blit t.pis 0 p 0 t.nframes;
    t.pis <- p
  end

let grow t = if t.nframes = Array.length t.states then reserve_frames t (2 * t.nframes)

let pi_frame t frame =
  if frame < 0 || frame >= t.nframes then invalid_arg "Unroll.pi_frame: no such frame";
  match t.pis.(frame) with
  | Some a -> a
  | None ->
    let a = fresh_lits t.solver t.model.Model.num_inputs in
    t.pis.(frame) <- Some a;
    a

let pi_lit t ~frame i = (pi_frame t frame).(i)

let frame_ctx t ~frame ~tag =
  Tseitin.create ~man:t.model.Model.man ~solver:t.solver ~tag ~input_lit:(fun i ->
      if i < t.model.Model.num_inputs then pi_lit t ~frame i
      else state_lit t ~frame (i - t.model.Model.num_inputs))

let assert_init t ~tag =
  Array.iteri
    (fun i l ->
      let l = if t.model.Model.init.(i) then l else Lit.neg l in
      Solver.add_clause t.solver ~tag [ l ])
    t.states.(0)

(* The next clause added belongs to latch [i]: proof-based abstraction
   keys on which state-equality clauses reach the unsat core.  Keyed on
   stable proof-log ids — database slots shift when the learnt database
   is reduced.  A solver that is already refuted adds nothing, and the
   id is attributed again. *)
let attribute t i =
  let cid = Solver.next_step_id t.solver in
  let n = Vec.size t.eq_ids in
  if n > 0 && Vec.last t.eq_ids = cid then Vec.set t.eq_latch (n - 1) i
  else begin
    Vec.push t.eq_ids cid;
    Vec.push t.eq_latch i
  end

let frame_cnf ?frozen t =
  let m = t.model in
  Frame_cnf.find m.Model.frames ~man:m.Model.man ~num_inputs:m.Model.num_inputs
    ~next:m.Model.next ~frozen

(* What one encoding of the property cone adds at most: a variable per
   AND node, per primary input read and for [const_false]; three clauses
   of seven literals in all per AND node, the [const_false] unit and the
   assertion. *)
let prop_room m =
  let man = m.Model.man in
  let vars = ref 0 and clauses = ref 1 and lits = ref 1 in
  Aig.iter_cones man [ m.Model.bad ] ~f:(fun node ->
      let l = node lsl 1 in
      if Aig.is_const man l then begin
        incr vars;
        incr clauses;
        incr lits
      end
      else if Aig.is_input man l then begin
        if Aig.input_index man l < m.Model.num_inputs then incr vars
      end
      else begin
        incr vars;
        clauses := !clauses + 3;
        lits := !lits + 7
      end);
  (!vars, !clauses, !lits)

let reserve ?frozen t ~frames ~props =
  if frames < 0 || props < 0 then invalid_arg "Unroll.reserve: negative count";
  let m = t.model in
  let cnf = frame_cnf ?frozen t in
  let pvars, pclauses, plits = if props = 0 then (0, 0, 0) else prop_room m in
  Solver.reserve t.solver
    ~vars:((frames * Frame_cnf.vars cnf) + (props * pvars))
    ~clauses:((frames * Frame_cnf.clauses cnf) + (props * pclauses))
    ~lits:((frames * Frame_cnf.lits cnf) + (props * plits));
  let neq = Vec.size t.eq_ids + (frames * Frame_cnf.equalities cnf) in
  Vec.reserve t.eq_ids neq;
  Vec.reserve t.eq_latch neq;
  reserve_frames t (t.nframes + frames)

(* One frame of the model's compiled transition CNF, instantiated over
   the last frame's state and its PIs, when an earlier [encode] at that
   frame allocated them. *)
let add_transition ?frozen t ~tag =
  let frame = t.nframes - 1 in
  let cnf = frame_cnf ?frozen t in
  let next_state, pis =
    Frame_cnf.instantiate cnf t.solver ~tag ~state:t.states.(frame) ~pis:t.pis.(frame)
      ~attribute:(attribute t)
  in
  if Option.is_some pis then t.pis.(frame) <- pis;
  grow t;
  (* The frame map must stay injective and searchable: every state
     variable of the new frame follows every earlier one, or
     boundary_map/any_state_map would be ambiguous and interpolation
     cuts unsound. *)
  if Check.on () then begin
    let last = t.states.(frame) in
    let prev = ref (if Array.length last = 0 then -1 else Lit.var last.(Array.length last - 1)) in
    Array.iter
      (fun l ->
        Check.check "unroll.state_vars_fresh" (Lit.var l > !prev) ~detail:(fun () ->
            Printf.sprintf "state variable %d does not follow variable %d" (Lit.var l) !prev);
        prev := Lit.var l)
      next_state
  end;
  t.states.(t.nframes) <- next_state;
  t.nframes <- t.nframes + 1

let encode t ~frame ~tag l = Tseitin.lit (frame_ctx t ~frame ~tag) l
let assert_circuit t ~frame ~tag l = Tseitin.assert_lit (frame_ctx t ~frame ~tag) l
let add_clause t ~tag lits = Solver.add_clause t.solver ~tag lits

let state_map t frame v =
  let i = if frame < 0 || frame >= t.nframes then -1 else latch_at t frame v in
  if i < 0 then None else Some (Model.latch_lit t.model i)

let boundary_map t ~frame v = state_map t frame v
let any_state_map t v = state_map t (frame_of t v) v

let latch_of_clause t cid =
  let k = last_le (Vec.get t.eq_ids) cid 0 (Vec.size t.eq_ids) in
  if k >= 0 && Vec.get t.eq_ids k = cid then Some (Vec.get t.eq_latch k) else None

let trace t =
  let inputs =
    Array.init t.nframes (fun frame ->
        match t.pis.(frame) with
        | None -> Array.make t.model.Model.num_inputs false
        | Some a -> Array.map (fun l -> Solver.lit_value t.solver l) a)
  in
  { Trace.inputs }

let state_values t ~frame =
  Array.map (fun l -> Solver.lit_value t.solver l) t.states.(frame)
