open Isr_sat
open Isr_aig

(* One encoding, two sinks: a context either adds its clauses to a
   solver under a tag, or hands variables and clauses to its creator
   (which compiles a frame once and instantiates it many times). *)
type t = {
  man : Aig.man;
  target : (Solver.t * int) option;   (* the solver and tag of [create] *)
  fresh : unit -> Lit.t;              (* a new variable, as a positive literal *)
  emit : Lit.t list -> unit;          (* one clause *)
  input_lit : int -> Lit.t;
  node_lit : (int, Lit.t) Hashtbl.t;  (* AIG node -> SAT literal *)
  mutable const_false : Lit.t option; (* SAT literal asserted false *)
}

let make ~man ~target ~fresh ~emit ~input_lit =
  { man; target; fresh; emit; input_lit; node_lit = Hashtbl.create 64; const_false = None }

let create ~man ~solver ~tag ~input_lit =
  make ~man ~target:(Some (solver, tag)) ~input_lit
    ~fresh:(fun () -> Lit.pos (Solver.new_var solver))
    ~emit:(fun c -> Solver.add_clause solver ~tag c)

let of_sink ~man ~fresh ~emit ~input_lit = make ~man ~target:None ~fresh ~emit ~input_lit

let target t what =
  match t.target with
  | Some st -> st
  | None -> invalid_arg (Printf.sprintf "Tseitin.%s: the context has no solver" what)

let tag t = snd (target t "tag")
let solver t = fst (target t "solver")
let man t = t.man
let fold_nodes t ~init ~f = Hashtbl.fold (fun node l acc -> f acc node l) t.node_lit init

let const_false t =
  match t.const_false with
  | Some l -> l
  | None ->
    let l = t.fresh () in
    t.emit [ Lit.neg l ];
    t.const_false <- Some l;
    l

let rec node_lit t node =
  match Hashtbl.find_opt t.node_lit node with
  | Some l -> l
  | None ->
    let aig_l = node lsl 1 in
    let l =
      if Aig.is_const t.man aig_l then const_false t
      else if Aig.is_input t.man aig_l then t.input_lit (Aig.input_index t.man aig_l)
      else begin
        let f0, f1 = Aig.fanins t.man aig_l in
        let l0 = lit t f0 and l1 = lit t f1 in
        let v = t.fresh () in
        (* v <-> l0 /\ l1 *)
        t.emit [ Lit.neg v; l0 ];
        t.emit [ Lit.neg v; l1 ];
        t.emit [ v; Lit.neg l0; Lit.neg l1 ];
        v
      end
    in
    Hashtbl.add t.node_lit node l;
    l

and lit t l =
  let base = node_lit t (Aig.node_of l) in
  if Aig.is_complemented l then Lit.neg base else base

let assert_lit t l =
  if l = Aig.lit_true then ()
  else if l = Aig.lit_false then t.emit []
  else t.emit [ lit t l ]

let assert_clause t ls =
  if List.mem Aig.lit_true ls then ()
  else
    let ls = List.filter (fun l -> l <> Aig.lit_false) ls in
    t.emit (List.map (lit t) ls)
