open Isr_sat
open Isr_aig
open Isr_model

let src = Logs.Src.create "isr.pdr" ~doc:"property-directed reachability"

module Log = (val Logs.src_log src : Logs.LOG)

(* A cube is a conjunction of latch literals: (index, value) sorted by
   index.  Frames use the delta encoding: a cube stored at level [i] is
   blocked in F_j for every j <= i, so the clause set of F_i is the union
   of the deltas at levels >= i. *)
type cube = (int * bool) list

let cube_compare = compare

module Cubeset = Set.Make (struct
  type t = cube

  let compare = cube_compare
end)

type obligation = {
  cube : cube;
  frame : int;
  inputs_to_next : bool array;      (* PI values for the step out of [cube] *)
  next : obligation option;         (* successor towards the bad state *)
}

type ctx = {
  run : Step.run;
  mutable deltas : Cubeset.t array;  (* level -> cubes blocked exactly there *)
  mutable depth : int;               (* current outer round k *)
}

let grow_deltas ctx k =
  let n = Array.length ctx.deltas in
  if k >= n then begin
    let a = Array.make (max (2 * n) (k + 1)) Cubeset.empty in
    Array.blit ctx.deltas 0 a 0 n;
    ctx.deltas <- a
  end

(* The AIG circuit of a cube (over latch literals). *)
let cube_circuit model cube =
  let man = model.Model.man in
  List.fold_left
    (fun acc (i, v) ->
      let l = Model.latch_lit model i in
      Aig.and_ man acc (if v then l else Aig.not_ l))
    Aig.lit_true cube

(* Does the (unique) initial state satisfy the cube? *)
let init_in_cube model cube =
  List.for_all (fun (i, v) -> model.Model.init.(i) = v) cube

(* Assert the frame clauses F_i (all deltas at levels >= i) over frame-0
   state literals of the unrolling. *)
let assert_frame ctx u i =
  let solver = Unroll.solver u in
  for j = i to Array.length ctx.deltas - 1 do
    Cubeset.iter
      (fun cube ->
        let clause =
          List.map
            (fun (idx, v) ->
              let l = Unroll.state_lit u ~frame:0 idx in
              if v then Isr_sat.Lit.neg l else l)
            cube
        in
        Solver.add_clause solver clause)
      ctx.deltas.(j)
  done

let full_cube_at u ~frame =
  let vals = Unroll.state_values u ~frame in
  Array.to_list (Array.mapi (fun i v -> (i, v)) vals)

let inputs_at u ~frame =
  let model = Unroll.model u in
  Array.init model.Model.num_inputs (fun i ->
      Solver.lit_value (Unroll.solver u) (Unroll.pi_lit u ~frame i))

(* Is there a bad state inside F_k?  Returns the offending cube and the
   inputs feeding the bad cone. *)
let bad_query ctx k =
  let u = Unroll.create ~proof:false ctx.run.model in
  assert_frame ctx u k;
  Unroll.assert_circuit u ~frame:0 ~tag:1 ctx.run.model.Model.bad;
  match Budget.solve ctx.run.budget ctx.run.stats (Unroll.solver u) with
  | Solver.Sat -> Some (full_cube_at u ~frame:0, inputs_at u ~frame:0)
  | Solver.Unsat -> None
  | Solver.Undef -> assert false

(* One-step relative query: F_{i-1} ∧ ¬cube ∧ T ∧ cube'.  [`Pred] carries
   a predecessor cube and the step inputs; [`Blocked] the core-shrunk
   cube (still excluding the initial state). *)
let relative_query ctx i cube =
  let model = ctx.run.model in
  let u = Unroll.create ~proof:false model in
  if i - 1 = 0 then Unroll.assert_init u ~tag:1
  else begin
    assert_frame ctx u (i - 1);
    (* ¬cube over frame 0. *)
    Unroll.assert_circuit u ~frame:0 ~tag:1 (Aig.not_ (cube_circuit model cube))
  end;
  Unroll.add_transition u ~tag:1;
  let assumptions =
    List.map
      (fun (idx, v) ->
        let l = Unroll.state_lit u ~frame:1 idx in
        if v then l else Isr_sat.Lit.neg l)
      cube
  in
  match Budget.solve ~assumptions ctx.run.budget ctx.run.stats (Unroll.solver u) with
  | Solver.Sat -> `Pred (full_cube_at u ~frame:0, inputs_at u ~frame:0)
  | Solver.Undef -> assert false
  | Solver.Unsat ->
    let core = Solver.unsat_core (Unroll.solver u) in
    (* Keep the cube literals whose frame-1 assumption is in the core. *)
    let kept =
      List.filter
        (fun (idx, v) ->
          let l = Unroll.state_lit u ~frame:1 idx in
          let a = if v then l else Isr_sat.Lit.neg l in
          List.mem a core)
        cube
    in
    (* Generalization must not let the clause swallow the initial state. *)
    let kept =
      if init_in_cube model kept then begin
        match List.find_opt (fun (idx, v) -> model.Model.init.(idx) <> v) cube with
        | Some lit -> List.sort compare (lit :: kept)
        | None -> cube (* cannot happen: [cube] excludes init *)
      end
      else kept
    in
    `Blocked kept

let block_cube ctx i cube =
  grow_deltas ctx i;
  ctx.deltas.(i) <- Cubeset.add cube ctx.deltas.(i)

(* Reconstruct the input trace from an obligation chain starting at an
   initial-state cube. *)
let trace_of_chain first_inputs o =
  let rec collect acc = function
    | None -> List.rev acc
    | Some ob -> collect (ob.inputs_to_next :: acc) ob.next
  in
  { Trace.inputs = Array.of_list (first_inputs @ collect [] (Some o)) }

exception Cex of Trace.t

(* Recursive blocking with a frame-ordered obligation queue. *)
let block_obligations ctx queue =
  let module Q = struct
    (* Simple priority queue on the obligation frame. *)
    let items : obligation list ref = ref queue

    let pop () =
      match
        List.fold_left
          (fun best o ->
            match best with
            | None -> Some o
            | Some b -> if o.frame < b.frame then Some o else best)
          None !items
      with
      | None -> None
      | Some o ->
        items := List.filter (fun o' -> o' != o) !items;
        Some o

    let push o = items := o :: !items
  end in
  let rec loop () =
    match Q.pop () with
    | None -> ()
    | Some o ->
      Budget.check_time ctx.run.budget;
      if init_in_cube ctx.run.model o.cube then
        (* The cube contains the initial state: concrete counterexample. *)
        raise (Cex (trace_of_chain [] o));
      if o.frame = 0 then raise (Cex (trace_of_chain [] o));
      (match relative_query ctx o.frame o.cube with
      | `Pred (pred_cube, step_inputs) ->
        if o.frame = 1 then
          (* The predecessor lives in F_0 = init. *)
          raise
            (Cex (trace_of_chain [ step_inputs ] o))
        else begin
          Q.push o;
          Q.push { cube = pred_cube; frame = o.frame - 1; inputs_to_next = step_inputs; next = Some o }
        end
      | `Blocked g ->
        (* No outward re-pushing of obligations: it would let counter-
           example chains grow beyond the current round, losing the
           shortest-counterexample guarantee the suite contracts on. *)
        block_cube ctx o.frame g);
      loop ()
  in
  loop ()

(* Forward propagation; returns the level whose delta drained, if any. *)
let propagate_clauses ctx k =
  let fixpoint = ref None in
  for i = 1 to k - 1 do
    Cubeset.iter
      (fun cube ->
        Budget.check_time ctx.run.budget;
        match relative_query ctx (i + 1) cube with
        | `Blocked g ->
          ctx.deltas.(i) <- Cubeset.remove cube ctx.deltas.(i);
          block_cube ctx (i + 1) g;
          (* When the generalized clause subsumes more than the original,
             it simply lands at the higher level; equality of frames is
             detected through the drained delta below. *)
          ()
        | `Pred _ -> ())
      ctx.deltas.(i);
    if !fixpoint = None && Cubeset.is_empty ctx.deltas.(i) then fixpoint := Some i
  done;
  !fixpoint

(* The invariant at a drained level: the conjunction of all blocked-cube
   clauses of F_{i+1}. *)
let invariant_circuit ctx i =
  let man = ctx.run.model.Model.man in
  let acc = ref Aig.lit_true in
  for j = i + 1 to Array.length ctx.deltas - 1 do
    Cubeset.iter
      (fun cube -> acc := Aig.and_ man !acc (Aig.not_ (cube_circuit ctx.run.model cube)))
      ctx.deltas.(j)
  done;
  !acc

(* --- step-wise state machine -------------------------------------------
   One step is the depth-0 check, the full obligation drain of a round,
   or the round's forward propagation.  Snapshots capture the frames as
   they stood at the round's entry (the deltas are immutable cube sets,
   so an array copy suffices); a resume re-drives the round's blocking
   and propagation, which are deterministic. *)

type phase =
  | Check0
  | Block                                    (* drain bad states out of F_k *)
  | Propagate                                (* push clauses forward, test fixpoint *)

type st = {
  ctx : ctx;
  mutable k : int;
  mutable entry_deltas : Cubeset.t array;    (* [ctx.deltas] at the round's entry *)
  mutable phase : phase;
}

type snap = { s_k : int; s_deltas : cube list array }

let mk ~k ~deltas run =
  {
    ctx = { run; deltas; depth = k };
    k;
    entry_deltas = Array.copy deltas;
    phase = (if k = 0 then Check0 else Block);
  }

let step st =
  let ctx = st.ctx in
  match st.phase with
  | Check0 ->
    let v = Bmc.check0 ctx.run in
    if Option.is_none v then begin
      st.k <- 1;
      st.phase <- Block
    end;
    v
  | Block -> (
    let k = st.k in
    ctx.depth <- k;
    grow_deltas ctx (k + 1);
    Verdict.note_bound ctx.run.stats k;
    Verdict.beat ctx.run.stats ~step:k "pdr.frame";
    (* Drain all bad states out of F_k. *)
    let rec drain () =
      match bad_query ctx k with
      | None -> ()
      | Some (cube, bad_inputs) ->
        block_obligations ctx [ { cube; frame = k; inputs_to_next = bad_inputs; next = None } ];
        drain ()
    in
    match Isr_obs.Trace.span "pdr.block" ~args:[ ("k", string_of_int k) ] drain with
    | () ->
      st.phase <- Propagate;
      None
    | exception Cex trace -> Some (Verdict.Falsified { depth = Trace.depth trace; trace }))
  | Propagate -> (
    let k = st.k in
    match
      Isr_obs.Trace.span "pdr.propagate" ~args:[ ("k", string_of_int k) ] (fun () ->
          propagate_clauses ctx k)
    with
    | Some i ->
      Log.debug (fun m -> m "fixpoint: frame %d drained at round %d" i k);
      Some (Verdict.Proved { kfp = k; jfp = i; invariant = Some (invariant_circuit ctx i) })
    | None ->
      st.k <- k + 1;
      st.entry_deltas <- Array.copy ctx.deltas;
      st.phase <- Block;
      None)

let stepper () =
  Step.Packed
    {
      Step.name = "pdr";
      init = (fun run -> mk ~k:0 ~deltas:(Array.make 8 Cubeset.empty) run);
      step;
      at_end = ignore;
      bound = (fun st -> st.k);
      snapshot =
        (fun st ->
          let s_k = match st.phase with Check0 -> 0 | _ -> st.k in
          Marshal.to_string
            { s_k; s_deltas = Array.map Cubeset.elements st.entry_deltas }
            []);
      restore =
        (fun run payload ->
          let s : snap = Marshal.from_string payload 0 in
          let n = max 8 (Array.length s.s_deltas) in
          let deltas = Array.make n Cubeset.empty in
          Array.iteri (fun i cubes -> deltas.(i) <- Cubeset.of_list cubes) s.s_deltas;
          mk ~k:s.s_k ~deltas run);
    }
