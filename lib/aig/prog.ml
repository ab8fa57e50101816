(* Slots are numbered in node-index order, so every fanin slot is smaller
   than the AND slot that reads it.  [fanin0]/[fanin1] hold
   [2 * fanin slot + complement] for AND slots and -1 for the rest;
   [inputs]/[input_index] list the input slots with their AIG input
   index.  [slot_of] covers nodes 0 .. the largest root node and holds
   -1 outside the cone. *)

type t = {
  nodes : int array;
  fanin0 : int array;
  fanin1 : int array;
  inputs : int array;
  input_index : int array;
  slot_of : int array;
}

let unmarked = -1
let marked = -2

let compile man roots =
  let top = List.fold_left (fun acc r -> max acc (Aig.node_of r)) (-1) roots in
  let slot_of = Array.make (top + 1) unmarked in
  List.iter (fun r -> slot_of.(Aig.node_of r) <- marked) roots;
  (* Fanins have smaller indices than their AND node, so one sweep from
     the top marks the whole cone. *)
  let n = ref 0 and ninputs = ref 0 in
  for node = top downto 0 do
    if slot_of.(node) = marked then begin
      incr n;
      let l = node lsl 1 in
      if Aig.is_and man l then begin
        slot_of.(Aig.node_of (Aig.fanin0 man node)) <- marked;
        slot_of.(Aig.node_of (Aig.fanin1 man node)) <- marked
      end
      else if Aig.is_input man l then incr ninputs
    end
  done;
  let nodes = Array.make !n 0 in
  let fanin0 = Array.make !n (-1) and fanin1 = Array.make !n (-1) in
  let inputs = Array.make !ninputs 0 and input_index = Array.make !ninputs 0 in
  let s = ref 0 and k = ref 0 in
  let encode f = (slot_of.(Aig.node_of f) lsl 1) lor (f land 1) in
  for node = 0 to top do
    if slot_of.(node) = marked then begin
      let l = node lsl 1 in
      slot_of.(node) <- !s;
      nodes.(!s) <- node;
      if Aig.is_and man l then begin
        fanin0.(!s) <- encode (Aig.fanin0 man node);
        fanin1.(!s) <- encode (Aig.fanin1 man node)
      end
      else if Aig.is_input man l then begin
        inputs.(!k) <- !s;
        input_index.(!k) <- Aig.input_index man l;
        incr k
      end;
      incr s
    end
  done;
  { nodes; fanin0; fanin1; inputs; input_index; slot_of }

let size p = Array.length p.nodes

let mem p l =
  let node = Aig.node_of l in
  node < Array.length p.slot_of && p.slot_of.(node) >= 0

let slot p l = if mem p l then p.slot_of.(Aig.node_of l) else raise Not_found
let node p s = p.nodes.(s)
let is_and p s = p.fanin0.(s) >= 0

(* The constant node is node 0, so when it is in the cone it is slot 0. *)
let has_const p = Array.length p.nodes > 0 && p.nodes.(0) = 0

(* --- 64 lanes ------------------------------------------------------------ *)

let words p = Bytes.make (8 * size p) '\000'
let word buf s = Bytes.get_int64_ne buf (s lsl 3)

(* Word of an encoded fanin: XOR with [-1L] when complemented, [0L]
   otherwise. *)
let[@inline] fanin_word buf f =
  Int64.logxor (Bytes.get_int64_ne buf ((f lsr 1) lsl 3)) (Int64.neg (Int64.of_int (f land 1)))

let eval64 p buf input =
  for k = 0 to Array.length p.inputs - 1 do
    Bytes.set_int64_ne buf (p.inputs.(k) lsl 3) (input p.input_index.(k))
  done;
  if has_const p then Bytes.set_int64_ne buf 0 0L;
  let f0 = p.fanin0 and f1 = p.fanin1 in
  for s = 0 to Array.length f0 - 1 do
    let a = f0.(s) in
    if a >= 0 then
      Bytes.set_int64_ne buf (s lsl 3) (Int64.logand (fanin_word buf a) (fanin_word buf f1.(s)))
  done

let lit_word p buf l =
  let w = word buf (slot p l) in
  if Aig.is_complemented l then Int64.lognot w else w

(* --- ternary ------------------------------------------------------------- *)

(* Bit 0: may be 1.  Bit 1: may be 0. *)
let t_true = 1
let t_false = 2
let t_x = 3

let trits p = Bytes.make (size p) (Char.chr t_x)
let trit buf s = Char.code (Bytes.get buf s)

(* Complement swaps the two bits; only [t_true] and [t_false] change. *)
let[@inline] swap_if c compl = c lxor ((compl land (c lxor (c lsr 1))) * 3)
let[@inline] fanin_trit buf f = swap_if (Char.code (Bytes.get buf (f lsr 1))) (f land 1)

let eval3 p buf input =
  for k = 0 to Array.length p.inputs - 1 do
    Bytes.set buf p.inputs.(k) (Char.unsafe_chr (input p.input_index.(k)))
  done;
  if has_const p then Bytes.set buf 0 (Char.chr t_false);
  let f0 = p.fanin0 and f1 = p.fanin1 in
  for s = 0 to Array.length f0 - 1 do
    let a = f0.(s) in
    if a >= 0 then begin
      let ca = fanin_trit buf a and cb = fanin_trit buf f1.(s) in
      (* May be 1 if both may be 1; may be 0 if either may be 0. *)
      Bytes.set buf s (Char.unsafe_chr ((ca land cb land 1) lor ((ca lor cb) land 2)))
    end
  done

let lit_trit p buf l = swap_if (trit buf (slot p l)) (l land 1)
