open Isr_aig

let init64 (model : Model.t) =
  Array.init model.Model.num_latches (fun i -> if model.Model.init.(i) then -1L else 0L)

type frame64 = { bad : int64; next : int64 array }

(* One program over the bad cone and the kept next-state cones, compiled
   when the model is applied and evaluated once per frame into the same
   buffer. *)
let frame64 ?latch_mask (model : Model.t) =
  let nl = model.Model.num_latches and ni = model.Model.num_inputs in
  let kept =
    match latch_mask with None -> Array.make nl true | Some f -> Array.init nl f
  in
  let nexts = List.filteri (fun i _ -> kept.(i)) (Array.to_list model.Model.next) in
  let prog = Prog.compile model.Model.man (model.Model.bad :: nexts) in
  let buf = Prog.words prog in
  fun ~state ~input ->
    Prog.eval64 prog buf (fun i -> if i < ni then input i else state.(i - ni));
    {
      bad = Prog.lit_word prog buf model.Model.bad;
      next =
        Array.init nl (fun i ->
            if kept.(i) then Prog.lit_word prog buf model.Model.next.(i) else 0L);
    }

let falsify ?(rounds = 16) ?(max_depth = 64) ?(seed = 0x5eed) model =
  let rand = Random.State.make [| seed |] in
  let ni = model.Model.num_inputs and nl = model.Model.num_latches in
  let frame = frame64 model in
  let result = ref None in
  let round _ =
    if !result = None then begin
      (* One batch: 64 executions in parallel. *)
      let state = init64 model in
      let inputs_log = ref [] in
      let rec frames depth =
        if depth <= max_depth && !result = None then begin
          let frame_inputs = Array.init ni (fun _ -> Random.State.bits64 rand) in
          inputs_log := frame_inputs :: !inputs_log;
          let fr = frame ~state ~input:(fun i -> frame_inputs.(i)) in
          if fr.bad <> 0L then begin
            (* Extract the lowest lane that hit the bad state. *)
            let rec lane b = if Int64.logand (Int64.shift_right_logical fr.bad b) 1L = 1L then b else lane (b + 1) in
            let b = lane 0 in
            let frames_rev = !inputs_log in
            let inputs =
              List.rev_map
                (fun words ->
                  Array.map
                    (fun w -> Int64.logand (Int64.shift_right_logical w b) 1L = 1L)
                    words)
                frames_rev
            in
            result := Some { Trace.inputs = Array.of_list inputs }
          end
          else begin
            Array.blit fr.next 0 state 0 nl;
            frames (depth + 1)
          end
        end
      in
      frames 0
    end
  in
  for r = 1 to rounds do
    round r
  done;
  (* The trace ends at the frame where bad held; by construction it
     replays, but guard against evaluation mismatches anyway. *)
  match !result with
  | Some tr when Sim.check_trace model tr -> Some tr
  | _ -> None
