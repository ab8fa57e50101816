open Isr_model

let initial model =
  let frozen = Array.make model.Model.num_latches true in
  (* Keep the latches the property reads directly. *)
  List.iter
    (fun i ->
      let li = i - model.Model.num_inputs in
      if li >= 0 then frozen.(li) <- false)
    (Isr_aig.Aig.support model.Model.man model.Model.bad);
  frozen

let extend model trace = Sim.first_bad model trace

let refine model frozen trace ~abstract_state =
  let states = Sim.run model trace in
  let frames = Array.length trace.Trace.inputs in
  let unfrozen = ref 0 in
  (* Earliest frame where some frozen latch diverges from the concrete
     simulation; unfreeze every divergent latch of that frame. *)
  let rec at_frame f =
    if f >= frames then ()
    else begin
      let abs = abstract_state ~frame:f in
      let conc = states.(f) in
      let divergent = ref [] in
      Array.iteri
        (fun i frz -> if frz && abs.(i) <> conc.(i) then divergent := i :: !divergent)
        frozen;
      match !divergent with
      | [] -> at_frame (f + 1)
      | ls ->
        List.iter
          (fun i ->
            frozen.(i) <- false;
            incr unfrozen)
          ls
    end
  in
  at_frame 0;
  if !unfrozen = 0 then begin
    (* Cannot happen for a genuine non-extending counterexample; stay
       safe by fully concretizing. *)
    Array.iteri (fun i frz -> if frz then (frozen.(i) <- false; incr unfrozen)) frozen
  end;
  !unfrozen
