open Isr_aig

type t = {
  name : string;
  man : Aig.man;
  num_inputs : int;
  num_latches : int;
  next : Aig.lit array;
  init : bool array;
  bad : Aig.lit;
  frames : Frame_cnf.cache;
}

let input_lit t i =
  if i < 0 || i >= t.num_inputs then invalid_arg "Model.input_lit";
  Aig.input t.man i

let latch_lit t i =
  if i < 0 || i >= t.num_latches then invalid_arg "Model.latch_lit";
  Aig.input t.man (t.num_inputs + i)

let prop t = Aig.not_ t.bad

let init_lit t =
  let conj = ref Aig.lit_true in
  for i = 0 to t.num_latches - 1 do
    let l = latch_lit t i in
    let l = if t.init.(i) then l else Aig.not_ l in
    conj := Aig.and_ t.man !conj l
  done;
  !conj

let init_state t = Array.copy t.init

let state_space t =
  let man = Aig.create () in
  for _ = 1 to Aig.num_inputs t.man do
    ignore (Aig.fresh_input man)
  done;
  { t with man; next = [||]; bad = Aig.lit_false; frames = Frame_cnf.cache () }

let validate t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  if Array.length t.next <> t.num_latches then
    fail "%s: %d next functions for %d latches" t.name (Array.length t.next) t.num_latches
  else if Array.length t.init <> t.num_latches then
    fail "%s: %d init values for %d latches" t.name (Array.length t.init) t.num_latches
  else if Aig.num_inputs t.man < t.num_inputs + t.num_latches then
    fail "%s: manager has %d inputs, needs %d" t.name (Aig.num_inputs t.man)
      (t.num_inputs + t.num_latches)
  else begin
    let max_idx = t.num_inputs + t.num_latches in
    let check_cone what l =
      let bad_input =
        List.find_opt (fun i -> i >= max_idx) (Aig.support t.man l)
      in
      match bad_input with
      | Some i -> fail "%s: %s reads undeclared input %d" t.name what i
      | None -> Ok ()
    in
    let rec all = function
      | [] -> Ok ()
      | (what, l) :: rest -> ( match check_cone what l with Ok () -> all rest | e -> e)
    in
    all
      (("bad", t.bad)
      :: List.init t.num_latches (fun i -> (Printf.sprintf "next(%d)" i, t.next.(i))))
  end

type observables = { obs_latches : bool array; obs_inputs : bool array }

let observable t roots =
  let obs_latches = Array.make t.num_latches false in
  let obs_inputs = Array.make t.num_inputs false in
  let mark roots =
    let fresh = ref [] in
    List.iter
      (fun i ->
        if i < t.num_inputs then obs_inputs.(i) <- true
        else begin
          let li = i - t.num_inputs in
          if li < t.num_latches && not obs_latches.(li) then begin
            obs_latches.(li) <- true;
            fresh := li :: !fresh
          end
        end)
      (Aig.supports t.man roots);
    !fresh
  in
  let rec close = function
    | [] -> ()
    | li :: rest -> close (mark [ t.next.(li) ] @ rest)
  in
  close (mark roots);
  { obs_latches; obs_inputs }

let num_ands t =
  (* AND nodes in the union of all relevant cones. *)
  Aig.cone_sizes t.man (t.bad :: Array.to_list t.next)

let pp_stats fmt t =
  Format.fprintf fmt "%s: %d PIs, %d latches, %d ANDs" t.name t.num_inputs t.num_latches
    (num_ands t)
