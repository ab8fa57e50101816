open Isr_sat
open Isr_aig
module Tseitin = Isr_cnf.Tseitin

(* Template variables: [0, nl) the frame's state variables in latch
   order, [nl, nl + ni) its primary inputs, and from [nl + ni] on the
   variables the frame allocates, in allocation order, its PI block
   excluded. *)
type t = {
  nl : int;
  ni : int;
  nfresh : int;       (* variables the frame allocates, PI block excluded *)
  pi_at : int;        (* fresh variables allocated before the PI block; -1: no PI read *)
  pre_fresh : int;    (* fresh variables allocated before the first clause *)
  pre_pi : bool;      (* whether the PI block is allocated before the first clause *)
  lits : Lit.t array; (* template literals, clause after clause, as emitted *)
  ends : int array;   (* clause [c] is [lits.(ends.(c - 1)) .. lits.(ends.(c) - 1)] *)
  latch : int array;  (* per clause, the latch of a state-equality clause, or -1 *)
  neq : int;          (* state-equality clauses *)
  next : int array;   (* per latch, the template variable of its next state *)
}

let compile ~man ~num_inputs ~next ~frozen =
  let nl = Array.length next and ni = num_inputs in
  let nfresh = ref 0 and pi_at = ref (-1) in
  let pre_fresh = ref 0 and pre_pi = ref false and neq = ref 0 in
  let lits = Vec.create () and ends = Vec.create () and latch = Vec.create () in
  let fresh () =
    let v = nl + ni + !nfresh in
    incr nfresh;
    Lit.pos v
  in
  let emit i c =
    if Vec.size ends = 0 then begin
      pre_fresh := !nfresh;
      pre_pi := !pi_at >= 0
    end;
    List.iter (Vec.push lits) c;
    Vec.push ends (Vec.size lits);
    Vec.push latch i;
    if i >= 0 then incr neq
  in
  let input_lit i =
    if i >= ni then Lit.pos (i - ni)
    else begin
      if !pi_at < 0 then pi_at := !nfresh;
      Lit.pos (nl + i)
    end
  in
  let ctx = Tseitin.of_sink ~man ~fresh ~emit:(emit (-1)) ~input_lit in
  let next =
    Array.init nl (fun i ->
        if frozen i then Lit.var (fresh ())
        else begin
          let enc = Tseitin.lit ctx next.(i) in
          let v = fresh () in
          (* The two equality clauses belong to latch [i]: proof-based
             abstraction reads which of them reach an unsat core. *)
          emit i [ Lit.neg v; enc ];
          emit i [ v; Lit.neg enc ];
          Lit.var v
        end)
  in
  {
    nl;
    ni;
    nfresh = !nfresh;
    pi_at = !pi_at;
    pre_fresh = !pre_fresh;
    pre_pi = !pre_pi;
    lits = Vec.to_array lits;
    ends = Vec.to_array ends;
    latch = Vec.to_array latch;
    neq = !neq;
    next;
  }

let vars f = f.nfresh + if f.pi_at >= 0 then f.ni else 0
let clauses f = Array.length f.ends
let lits f = Array.length f.lits
let equalities f = f.neq

(* The solver variable of every template variable, for a frame whose
   first new variable is [base]; whether the frame allocates its PIs. *)
let var_map f ~base ~state ~pis =
  let nl = f.nl and ni = f.ni in
  let map = Array.make (nl + ni + f.nfresh) (-1) in
  for j = 0 to nl - 1 do
    map.(j) <- Lit.var state.(j)
  done;
  let new_pis = Option.is_none pis && f.pi_at >= 0 in
  for i = 0 to ni - 1 do
    map.(nl + i) <-
      (match pis with
      | Some a -> Lit.var a.(i)
      | None -> if new_pis then base + f.pi_at + i else -1)
  done;
  for k = 0 to f.nfresh - 1 do
    map.(nl + ni + k) <- base + k + if new_pis && k >= f.pi_at then ni else 0
  done;
  (map, new_pis)

let instantiate f solver ~tag ~state ~pis ~attribute =
  let base = Solver.nvars solver in
  let map, new_pis = var_map f ~base ~state ~pis in
  let nvars = f.nfresh + if new_pis then f.ni else 0 in
  let nclauses = Array.length f.ends in
  (* Variables are allocated in two blocks, split where the first clause
     is added: that clause returns the solver to the root level, and the
     branching heap must see the variables and the unassigned trail in
     the order one-by-one allocation gave it. *)
  let pre =
    if nclauses = 0 then nvars else f.pre_fresh + if new_pis && f.pre_pi then f.ni else 0
  in
  ignore (Solver.new_vars solver pre);
  for c = 0 to nclauses - 1 do
    let lo = if c = 0 then 0 else f.ends.(c - 1) in
    let a = Array.make (f.ends.(c) - lo) 0 in
    for p = 0 to Array.length a - 1 do
      let l = f.lits.(lo + p) in
      a.(p) <- Lit.pos map.(Lit.var l) lor Lit.sign l
    done;
    if f.latch.(c) >= 0 then attribute f.latch.(c);
    Solver.add_clause_array solver ~tag a;
    if c = 0 then ignore (Solver.new_vars solver (nvars - pre))
  done;
  let next_state = Array.map (fun v -> Lit.pos map.(v)) f.next in
  let pis =
    if new_pis then Some (Array.init f.ni (fun i -> Lit.pos (base + f.pi_at + i))) else None
  in
  (next_state, pis)

(* --- the per-model cache ------------------------------------------------- *)

(* A compiled frame with what it was compiled from: a model updated with
   [{ m with ... }] shares its cache, so an entry is used only for the
   same manager and next-state array (physically) and the same mask. *)
type entry = { e_man : Aig.man; e_next : Aig.lit array; e_mask : Bytes.t; e_frame : t }

type cache = { plain : entry option Atomic.t; masked : entry option Atomic.t }

let cache () = { plain = Atomic.make None; masked = Atomic.make None }

let no_mask = Bytes.empty

let find cache ~man ~num_inputs ~next ~frozen =
  let mask =
    match frozen with
    | None -> no_mask
    | Some f ->
      let m = Bytes.init (Array.length next) (fun i -> if f i then '\001' else '\000') in
      (* A mask freezing nothing compiles to the unfrozen frame. *)
      if Bytes.contains m '\001' then m else no_mask
  in
  let slot = if mask == no_mask then cache.plain else cache.masked in
  match Atomic.get slot with
  | Some e when e.e_man == man && e.e_next == next && Bytes.equal e.e_mask mask -> e.e_frame
  | _ ->
    let frozen i = Bytes.length mask > 0 && Bytes.get mask i = '\001' in
    let frame = compile ~man ~num_inputs ~next ~frozen in
    (* Entries are immutable: a domain racing on the same slot at worst
       compiles the frame again. *)
    Atomic.set slot (Some { e_man = man; e_next = next; e_mask = mask; e_frame = frame });
    frame
