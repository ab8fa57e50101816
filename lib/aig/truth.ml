(* [bits] holds [words nvars] native-endian int64 words, unboxed. *)
type t = { nvars : int; bits : Bytes.t }

let max_vars = 10

let words n =
  if n < 0 || n > max_vars then invalid_arg "Truth.words";
  if n <= 6 then 1 else 1 lsl (n - 6)

let nwords t = Bytes.length t.bits lsr 3
let word t w = Bytes.get_int64_ne t.bits (w lsl 3)

let init ~nvars f =
  let bits = Bytes.create (words nvars lsl 3) in
  for w = 0 to (Bytes.length bits lsr 3) - 1 do
    Bytes.set_int64_ne bits (w lsl 3) (f w)
  done;
  { nvars; bits }

(* Variable [v]'s word [w]: a fixed pattern inside a word, all or
   nothing across words. *)
let patterns =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let var_word v w =
  if v < 6 then patterns.(v) else if (w lsr (v - 6)) land 1 = 1 then -1L else 0L

let const ~nvars b = init ~nvars (fun _ -> if b then -1L else 0L)

let var ~nvars v =
  if v < 0 || v >= nvars then invalid_arg "Truth.var";
  init ~nvars (var_word v)

let map2 f a b =
  if a.nvars <> b.nvars then invalid_arg "Truth: tables over different variables";
  init ~nvars:a.nvars (fun w -> f (word a w) (word b w))

let not_ a = init ~nvars:a.nvars (fun w -> Int64.lognot (word a w))
let and_ = map2 Int64.logand
let or_ = map2 Int64.logor

let implies a b =
  if a.nvars <> b.nvars then invalid_arg "Truth: tables over different variables";
  let rec go w =
    w >= nwords a || (Int64.logand (word a w) (Int64.lognot (word b w)) = 0L && go (w + 1))
  in
  go 0

let get t s = Int64.logand (Int64.shift_right_logical (word t (s lsr 6)) (s land 63)) 1L = 1L

let of_lits man ~nvars ~var lits =
  let prog = Prog.compile man (Array.to_list lits) in
  let buf = Prog.words prog in
  let tables = Array.map (fun _ -> Bytes.create (words nvars lsl 3)) lits in
  let input i =
    let v = var i in
    if v < 0 || v >= nvars then invalid_arg "Truth.of_lits: an input outside the variables";
    v
  in
  for w = 0 to words nvars - 1 do
    Prog.eval64 prog buf (fun i -> var_word (input i) w);
    Array.iteri (fun r l -> Bytes.set_int64_ne tables.(r) (w lsl 3) (Prog.lit_word prog buf l)) lits
  done;
  Array.map (fun bits -> { nvars; bits }) tables

(* [if x then f1 else f0], one AND node when a branch is constant. *)
let mux man x f1 f0 =
  if f1 = f0 then f0
  else if f1 = Aig.lit_true then Aig.or_ man x f0
  else if f1 = Aig.lit_false then Aig.and_ man (Aig.not_ x) f0
  else if f0 = Aig.lit_true then Aig.or_ man (Aig.not_ x) f1
  else if f0 = Aig.lit_false then Aig.and_ man x f1
  else Aig.ite man x f1 f0

let to_aig man ~var_lit t =
  (* The function on states [lo .. lo + 2^m - 1], split on variable
     [m - 1]. *)
  let rec build m lo =
    if m = 0 then if get t lo then Aig.lit_true else Aig.lit_false
    else
      let half = 1 lsl (m - 1) in
      let f0 = build (m - 1) lo in
      let f1 = build (m - 1) (lo + half) in
      mux man (var_lit (m - 1)) f1 f0
  in
  build t.nvars 0
