exception Overflow

type t = int

(* Terminals: 0 = false, 1 = true.  Internal nodes from index 2. *)
let bfalse = 0
let btrue = 1

type man = {
  mutable vars : int array;  (* node -> level *)
  mutable lows : int array;
  mutable highs : int array;
  mutable n : int;
  unique : (int * int * int, int) Hashtbl.t;
  ite_cache : (int * int * int, int) Hashtbl.t;
  max_nodes : int;
  nvars : int;
}

let create ?(max_nodes = max_int) ?(size_hint = 1024) ~nvars () =
  (* The node arrays double on demand and the tables rehash, so the hint
     only sets where they start; the two terminals always fit. *)
  let size = max 2 size_hint in
  let m =
    {
      vars = Array.make size max_int;
      lows = Array.make size 0;
      highs = Array.make size 0;
      n = 2;
      unique = Hashtbl.create (4 * size);
      ite_cache = Hashtbl.create (4 * size);
      max_nodes;
      nvars;
    }
  in
  (* Terminals carry level max_int so they sort below every variable. *)
  m.vars.(0) <- max_int;
  m.vars.(1) <- max_int;
  m

let num_nodes m = m.n

let mk m v lo hi =
  if lo = hi then lo
  else
    match Hashtbl.find_opt m.unique (v, lo, hi) with
    | Some node -> node
    | None ->
      if m.n >= m.max_nodes then raise Overflow;
      if m.n = Array.length m.vars then begin
        let cap = 2 * m.n in
        let grow a def =
          let a' = Array.make cap def in
          Array.blit a 0 a' 0 m.n;
          a'
        in
        m.vars <- grow m.vars max_int;
        m.lows <- grow m.lows 0;
        m.highs <- grow m.highs 0
      end;
      let node = m.n in
      m.vars.(node) <- v;
      m.lows.(node) <- lo;
      m.highs.(node) <- hi;
      m.n <- node + 1;
      Hashtbl.add m.unique (v, lo, hi) node;
      node

let var m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.var";
  mk m i bfalse btrue

let nvar m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.nvar";
  mk m i btrue bfalse

let level m t = m.vars.(t)

let rec ite m f g h =
  (* Terminal cases. *)
  if f = btrue then g
  else if f = bfalse then h
  else if g = h then g
  else if g = btrue && h = bfalse then f
  else
    match Hashtbl.find_opt m.ite_cache (f, g, h) with
    | Some r -> r
    | None ->
      let top = min (level m f) (min (level m g) (level m h)) in
      let branch t pos =
        if level m t = top then if pos then m.highs.(t) else m.lows.(t) else t
      in
      let hi = ite m (branch f true) (branch g true) (branch h true) in
      let lo = ite m (branch f false) (branch g false) (branch h false) in
      let r = mk m top lo hi in
      Hashtbl.add m.ite_cache (f, g, h) r;
      r

let bnot m t = ite m t bfalse btrue
let band m a b = ite m a b bfalse
let bor m a b = ite m a btrue b
let bxor m a b = ite m a (bnot m b) b
let bimp m a b = ite m a b btrue
let biff m a b = ite m a b (bnot m b)

let exists m in_set t =
  let memo = Hashtbl.create 256 in
  let rec go t =
    if t <= 1 then t
    else
      match Hashtbl.find_opt memo t with
      | Some r -> r
      | None ->
        let v = level m t in
        let lo = go m.lows.(t) and hi = go m.highs.(t) in
        let r = if in_set v then bor m lo hi else mk m v lo hi in
        Hashtbl.add memo t r;
        r
  in
  go t

let and_exists m in_set a b =
  let memo = Hashtbl.create 1024 in
  let rec go a b =
    if a = bfalse || b = bfalse then bfalse
    else if a = btrue && b = btrue then btrue
    else if a = btrue then exists m in_set b
    else if b = btrue then exists m in_set a
    else
      let key = if a <= b then (a, b) else (b, a) in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
        let la = level m a and lb = level m b in
        let top = min la lb in
        let a0 = if la = top then m.lows.(a) else a
        and a1 = if la = top then m.highs.(a) else a
        and b0 = if lb = top then m.lows.(b) else b
        and b1 = if lb = top then m.highs.(b) else b in
        let lo = go a0 b0 and hi = go a1 b1 in
        let r = if in_set top then bor m lo hi else mk m top lo hi in
        Hashtbl.add memo key r;
        r
  in
  go a b

let permute m sigma t =
  let memo = Hashtbl.create 256 in
  let rec go t =
    if t <= 1 then t
    else
      match Hashtbl.find_opt memo t with
      | Some r -> r
      | None ->
        let lo = go m.lows.(t) and hi = go m.highs.(t) in
        (* Order preservation makes a simple [mk] sufficient. *)
        let r = mk m (sigma (level m t)) lo hi in
        Hashtbl.add memo t r;
        r
  in
  go t

let eval m env t =
  let rec go t =
    if t = bfalse then false
    else if t = btrue then true
    else if env (level m t) then go m.highs.(t)
    else go m.lows.(t)
  in
  go t

let any_sat m t =
  let rec go acc t =
    if t = btrue then List.rev acc
    else if t = bfalse then raise Not_found
    else if m.lows.(t) <> bfalse then go ((level m t, false) :: acc) m.lows.(t)
    else go ((level m t, true) :: acc) m.highs.(t)
  in
  go [] t

let count_sat m ~nvars t =
  let memo = Hashtbl.create 256 in
  (* Count assignments below a node as if it sat at level [from]. *)
  let rec go t =
    if t = bfalse then 0.0
    else if t = btrue then 1.0
    else
      match Hashtbl.find_opt memo t with
      | Some c -> c
      | None ->
        let v = level m t in
        let weight sub =
          let lv = if sub <= 1 then nvars else level m sub in
          go sub *. (2.0 ** float_of_int (lv - v - 1))
        in
        let c = weight m.lows.(t) +. weight m.highs.(t) in
        Hashtbl.add memo t c;
        c
  in
  let lv = if t <= 1 then nvars else level m t in
  go t *. (2.0 ** float_of_int lv)

let size m t =
  let seen = Hashtbl.create 64 in
  let rec go t =
    if not (Hashtbl.mem seen t) then begin
      Hashtbl.add seen t ();
      if t > 1 then begin
        go m.lows.(t);
        go m.highs.(t)
      end
    end
  in
  go t;
  Hashtbl.length seen

let to_aig m aman ~var_lit t =
  let open Isr_aig in
  let memo = Hashtbl.create 256 in
  let rec go t =
    if t = bfalse then Aig.lit_false
    else if t = btrue then Aig.lit_true
    else
      match Hashtbl.find_opt memo t with
      | Some l -> l
      | None ->
        let v = var_lit (level m t) in
        let l = Aig.ite aman v (go m.highs.(t)) (go m.lows.(t)) in
        Hashtbl.add memo t l;
        l
  in
  go t

let of_aig m aman ~input_var root =
  let open Isr_aig in
  let memo = Hashtbl.create 256 in
  let rec node_bdd node =
    match Hashtbl.find_opt memo node with
    | Some b -> b
    | None ->
      let aig_l = node lsl 1 in
      let b =
        if Aig.is_const aman aig_l then bfalse
        else if Aig.is_input aman aig_l then input_var (Aig.input_index aman aig_l)
        else begin
          let f0, f1 = Aig.fanins aman aig_l in
          band m (lit_bdd f0) (lit_bdd f1)
        end
      in
      Hashtbl.add memo node b;
      b
  and lit_bdd l =
    let b = node_bdd (Aig.node_of l) in
    if Aig.is_complemented l then bnot m b else b
  in
  lit_bdd root
