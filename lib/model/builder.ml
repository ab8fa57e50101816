open Isr_aig

(* Latches are declared lazily but the final [Model.t] requires PIs to be
   inputs [0..I-1] and latches [I..I+L-1] in the shared manager.  We
   therefore build in a staging manager where inputs are allocated in
   declaration order, then renumber into a fresh manager at [finish]. *)
type kind = Pi | Latch of { init : bool; mutable next : Aig.lit option }

type t = {
  name : string;
  stage : Aig.man;
  mutable signals : kind list; (* reversed declaration order, by input idx *)
}

let create name = { name; stage = Aig.create (); signals = [] }
let man t = t.stage

let input t =
  t.signals <- Pi :: t.signals;
  Aig.fresh_input t.stage

let inputs t n = Array.init n (fun _ -> input t)

let latch t ?(init = false) () =
  t.signals <- Latch { init; next = None } :: t.signals;
  Aig.fresh_input t.stage

let latches t ?init n = Array.init n (fun _ -> latch t ?init ())

let set_next t l f =
  if Aig.is_complemented l || not (Aig.is_input t.stage l) then
    invalid_arg "Builder.set_next: not a latch literal";
  let idx = Aig.input_index t.stage l in
  let n = List.length t.signals in
  match List.nth t.signals (n - 1 - idx) with
  | Pi -> invalid_arg "Builder.set_next: literal is a primary input"
  | Latch r ->
    if r.next <> None then invalid_arg "Builder.set_next: next already set";
    r.next <- Some f

let finish t ~bad =
  let signals = Array.of_list (List.rev t.signals) in
  let num_signals = Array.length signals in
  let num_inputs = Array.fold_left (fun n k -> match k with Pi -> n + 1 | Latch _ -> n) 0 signals in
  let num_latches = num_signals - num_inputs in
  (* Renumber: PIs first, then latches, preserving declaration order. *)
  let man = Aig.create () in
  let mapping = Array.make num_signals Aig.lit_false in
  let pi_count = ref 0 and latch_count = ref 0 in
  let final_of = Array.make num_signals 0 in
  Array.iteri
    (fun i k ->
      match k with
      | Pi ->
        final_of.(i) <- !pi_count;
        incr pi_count
      | Latch _ ->
        final_of.(i) <- num_inputs + !latch_count;
        incr latch_count)
    signals;
  for _ = 1 to num_signals do
    ignore (Aig.fresh_input man)
  done;
  Array.iteri (fun i _ -> mapping.(i) <- Aig.input man final_of.(i)) signals;
  (* Cross-manager structural copy, renumbering inputs along the way. *)
  let memo = Hashtbl.create 256 in
  let rec copy_node node =
    match Hashtbl.find_opt memo node with
    | Some l -> l
    | None ->
      let aig_l = node lsl 1 in
      let l =
        if Aig.is_const t.stage aig_l then Aig.lit_false
        else if Aig.is_input t.stage aig_l then mapping.(Aig.input_index t.stage aig_l)
        else begin
          let f0, f1 = Aig.fanins t.stage aig_l in
          Aig.and_ man (copy_lit f0) (copy_lit f1)
        end
      in
      Hashtbl.add memo node l;
      l
  and copy_lit l =
    let c = copy_node (Aig.node_of l) in
    if Aig.is_complemented l then Aig.not_ c else c
  in
  let next = Array.make num_latches Aig.lit_false in
  let init = Array.make num_latches false in
  let li = ref 0 in
  let missing = ref None in
  Array.iteri
    (fun i k ->
      match k with
      | Pi -> ()
      | Latch r ->
        (match r.next with
        | None -> if !missing = None then missing := Some i
        | Some f -> next.(!li) <- copy_lit f);
        init.(!li) <- r.init;
        incr li)
    signals;
  (match !missing with
  | Some i -> invalid_arg (Printf.sprintf "Builder.finish: latch (signal %d) has no next function" i)
  | None -> ());
  let model =
    {
      Model.name = t.name;
      man;
      num_inputs;
      num_latches;
      next;
      init;
      bad = copy_lit bad;
      frames = Frame_cnf.cache ();
    }
  in
  match Model.validate model with
  | Ok () -> model
  | Error msg -> invalid_arg ("Builder.finish: " ^ msg)

(* --- bit-vector helpers (little-endian) -------------------------------- *)

let vec_const _t ~width c =
  Array.init width (fun i ->
      if (c lsr i) land 1 = 1 then Aig.lit_true else Aig.lit_false)

let vec_eq_const t v c =
  let m = man t in
  let acc = ref Aig.lit_true in
  Array.iteri
    (fun i bit ->
      let want = (c lsr i) land 1 = 1 in
      let b = if want then bit else Aig.not_ bit in
      acc := Aig.and_ m !acc b)
    v;
  !acc

let vec_eq t a b =
  let m = man t in
  assert (Array.length a = Array.length b);
  let acc = ref Aig.lit_true in
  Array.iteri (fun i x -> acc := Aig.and_ m !acc (Aig.iff_ m x b.(i))) a;
  !acc

let vec_incr t v =
  let m = man t in
  let carry = ref Aig.lit_true in
  Array.map
    (fun bit ->
      let sum = Aig.xor_ m bit !carry in
      carry := Aig.and_ m bit !carry;
      sum)
    v

let vec_add t a b =
  let m = man t in
  assert (Array.length a = Array.length b);
  let carry = ref Aig.lit_false in
  Array.mapi
    (fun i x ->
      let y = b.(i) in
      let sum = Aig.xor_ m (Aig.xor_ m x y) !carry in
      let cout = Aig.or_ m (Aig.and_ m x y) (Aig.and_ m !carry (Aig.xor_ m x y)) in
      carry := cout;
      sum)
    a

let vec_mux t c a b =
  let m = man t in
  assert (Array.length a = Array.length b);
  Array.mapi (fun i x -> Aig.ite m c x b.(i)) a

let vec_lt_const t v c =
  (* v < c  unsigned, bit by bit from the MSB. *)
  let m = man t in
  let width = Array.length v in
  let rec go i =
    if i < 0 then Aig.lit_false
    else
      let ci = (c lsr i) land 1 = 1 in
      if ci then Aig.or_ m (Aig.not_ v.(i)) (go (i - 1))
      else Aig.and_ m (Aig.not_ v.(i)) (go (i - 1))
  in
  go (width - 1)
