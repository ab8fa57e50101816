(* Differential testing of the whole encode/solve pipeline: random small
   sequential circuits, where exact-k BMC answers are compared against a
   brute-force breadth-first search of the explicit state graph, and the
   engines' verdicts are compared against exhaustive reachability. *)

open Isr_aig
open Isr_model
open Isr_core

let nl = 3 (* latches *)
let ni = 2 (* inputs *)

(* Random combinational functions over the latches and inputs. *)
type expr = T | F | In of int | L of int | Not of expr | And of expr * expr | Xor of expr * expr

let gen_expr =
  let open QCheck2.Gen in
  sized_size (int_range 0 5) @@ fix (fun self n ->
      if n = 0 then
        oneof
          [
            pure T; pure F;
            map (fun i -> In i) (int_range 0 (ni - 1));
            map (fun i -> L i) (int_range 0 (nl - 1));
          ]
      else
        let sub = self (n / 2) in
        oneof
          [
            map (fun e -> Not e) sub;
            map2 (fun a b -> And (a, b)) sub sub;
            map2 (fun a b -> Xor (a, b)) sub sub;
          ])

let gen_circuit =
  let open QCheck2.Gen in
  let* nexts = list_size (pure nl) gen_expr in
  let* bad = gen_expr in
  let* inits = list_size (pure nl) bool in
  pure (nexts, bad, inits)

let rec interp env_in env_l = function
  | T -> true
  | F -> false
  | In i -> env_in i
  | L i -> env_l i
  | Not e -> not (interp env_in env_l e)
  | And (a, b) -> interp env_in env_l a && interp env_in env_l b
  | Xor (a, b) -> interp env_in env_l a <> interp env_in env_l b

let build (nexts, bad, inits) =
  let b = Builder.create "random" in
  let ins = Builder.inputs b ni in
  let ls = Array.of_list (List.mapi (fun i init -> ignore i; Builder.latch b ~init ()) inits) in
  let rec tr = function
    | T -> Aig.lit_true
    | F -> Aig.lit_false
    | In i -> ins.(i)
    | L i -> ls.(i)
    | Not e -> Aig.not_ (tr e)
    | And (a, b') -> Aig.and_ (Builder.man b) (tr a) (tr b')
    | Xor (a, b') -> Aig.xor_ (Builder.man b) (tr a) (tr b')
  in
  List.iteri (fun i e -> Builder.set_next b ls.(i) (tr e)) nexts;
  Builder.finish b ~bad:(tr bad)

(* Explicit-state BFS: the set of states reachable in exactly d steps and
   whether some state/input pair at depth d asserts bad. *)
let explicit_analysis (nexts, bad, inits) max_depth =
  let nexts = Array.of_list nexts in
  let init_state =
    List.fold_left (fun (acc, i) b -> ((if b then acc lor (1 lsl i) else acc), i + 1)) (0, 0) inits
    |> fst
  in
  let step state input =
    let env_in i = (input lsr i) land 1 = 1 in
    let env_l i = (state lsr i) land 1 = 1 in
    let out = ref 0 in
    Array.iteri (fun i e -> if interp env_in env_l e then out := !out lor (1 lsl i)) nexts;
    !out
  in
  let bad_at state =
    let env_l i = (state lsr i) land 1 = 1 in
    let rec any input =
      input < 1 lsl ni
      && (interp (fun i -> (input lsr i) land 1 = 1) env_l bad || any (input + 1))
    in
    any 0
  in
  (* frontier.(d) = states reachable in exactly d steps (as a set). *)
  let frontier = Array.make (max_depth + 1) [] in
  frontier.(0) <- [ init_state ];
  for d = 0 to max_depth - 1 do
    let nxt = Hashtbl.create 16 in
    List.iter
      (fun s ->
        for input = 0 to (1 lsl ni) - 1 do
          Hashtbl.replace nxt (step s input) ()
        done)
      frontier.(d);
    frontier.(d + 1) <- Hashtbl.fold (fun s () acc -> s :: acc) nxt []
  done;
  Array.map (fun states -> List.exists bad_at states) frontier

let limits = { Budget.time_limit = 20.0; conflict_limit = 200_000; bound_limit = 20; reduce = Isr_sat.Solver.default_reduce }

let print_circuit (nexts, bad, inits) =
  let rec pe = function
    | T -> "1" | F -> "0"
    | In i -> Printf.sprintf "i%d" i
    | L i -> Printf.sprintf "l%d" i
    | Not e -> "!" ^ pe e
    | And (a, b) -> Printf.sprintf "(%s&%s)" (pe a) (pe b)
    | Xor (a, b) -> Printf.sprintf "(%s^%s)" (pe a) (pe b)
  in
  Printf.sprintf "next=[%s] bad=%s init=[%s]"
    (String.concat ";" (List.map pe nexts))
    (pe bad)
    (String.concat ";" (List.map string_of_bool inits))

let max_depth = 6

let prop_exact_bmc_matches_bfs =
  QCheck2.Test.make ~count:300 ~name:"exact-k BMC = explicit BFS" ~print:print_circuit
    gen_circuit (fun spec ->
      let model = build spec in
      let expected = explicit_analysis spec max_depth in
      let budget = Budget.start limits in
      let stats = Verdict.mk_stats () in
      let ok = ref true in
      for k = 0 to max_depth do
        match Bmc.check_depth budget stats ~proof:false model ~check:Bmc.Exact ~k with
        | `Sat u ->
          if not expected.(k) then ok := false;
          (* And the extracted trace must replay to a bad state within k. *)
          let tr = Unroll.trace u in
          if Sim.first_bad model tr = None then ok := false
        | `Unsat _ -> if expected.(k) then ok := false
      done;
      !ok)

let prop_engines_match_reachability =
  QCheck2.Test.make ~count:60 ~name:"engine verdicts = exhaustive reachability"
    ~print:print_circuit gen_circuit (fun spec ->
      let model = build spec in
      let truly_safe =
        match Isr_bdd.Reach.forward ~max_steps:64 model with
        | { Isr_bdd.Reach.verdict = Isr_bdd.Reach.Proved; _ } -> true
        | { Isr_bdd.Reach.verdict = Isr_bdd.Reach.Falsified _; _ } -> false
        | _ -> QCheck2.assume_fail ()
      in
      List.for_all
        (fun engine ->
          match Engine.run engine ~limits model with
          | (Verdict.Proved _ as v), _ ->
            (* Safe verdicts must also carry certificates the independent
               checker accepts. *)
            truly_safe && Certify.check_verdict model v = Ok ()
          | Verdict.Falsified { trace; _ }, _ ->
            (not truly_safe) && Sim.check_trace model trace
          | Verdict.Unknown _, _ -> true)
        [
          Engine.Itp;
          Engine.Itpseq Bmc.Assume;
          Engine.Sitpseq (0.5, Bmc.Assume);
          Engine.Itpseq_cba (0.5, Bmc.Exact);
          Engine.Itpseq_pba (0.0, Bmc.Exact);
          Engine.Kind;
          Engine.Pdr;
        ])

(* --- compiled frames ----------------------------------------------------- *)

(* The oracle for [Unroll.add_transition]: the per-frame Tseitin walk the
   compiled frames replaced, written out here over a bare solver.  A
   context caches node literals, allocates one [const_false] on demand,
   and reads a frame's PIs through [pi_frame], which allocates the whole
   block at the first PI read. *)
module Ref_unroll = struct
  open Isr_sat

  type t = {
    m : Model.t;
    s : Solver.t;
    mutable states : Lit.t array list; (* newest frame first *)
    pis : (int, Lit.t array) Hashtbl.t;
    eq : (int, int) Hashtbl.t; (* proof-log id -> latch *)
  }

  let fresh_block s n =
    let v0 = Solver.new_vars s n in
    Array.init n (fun i -> Lit.pos (v0 + i))

  let create ~proof m =
    let s = Solver.create ~proof () in
    {
      m;
      s;
      states = [ fresh_block s m.Model.num_latches ];
      pis = Hashtbl.create 8;
      eq = Hashtbl.create 64;
    }

  let nframes t = List.length t.states
  let state t frame = List.nth t.states (nframes t - 1 - frame)

  let pi_frame t frame =
    match Hashtbl.find_opt t.pis frame with
    | Some a -> a
    | None ->
      let a = fresh_block t.s t.m.Model.num_inputs in
      Hashtbl.add t.pis frame a;
      a

  (* One Tseitin context over a frame: returns its literal encoder. *)
  let context t ~frame ~tag =
    let man = t.m.Model.man and ni = t.m.Model.num_inputs in
    let cache = Hashtbl.create 64 and const_false = ref None in
    let fresh () = Lit.pos (Solver.new_var t.s) in
    let rec node n =
      match Hashtbl.find_opt cache n with
      | Some l -> l
      | None ->
        let a = n lsl 1 in
        let l =
          if Aig.is_const man a then (
            match !const_false with
            | Some l -> l
            | None ->
              let l = fresh () in
              Solver.add_clause t.s ~tag [ Lit.neg l ];
              const_false := Some l;
              l)
          else if Aig.is_input man a then
            let i = Aig.input_index man a in
            if i < ni then (pi_frame t frame).(i) else (state t frame).(i - ni)
          else begin
            let f0, f1 = Aig.fanins man a in
            let l0 = lit f0 in
            let l1 = lit f1 in
            let v = fresh () in
            Solver.add_clause t.s ~tag [ Lit.neg v; l0 ];
            Solver.add_clause t.s ~tag [ Lit.neg v; l1 ];
            Solver.add_clause t.s ~tag [ v; Lit.neg l0; Lit.neg l1 ];
            v
          end
        in
        Hashtbl.add cache n l;
        l
    and lit l =
      let b = node (Aig.node_of l) in
      if Aig.is_complemented l then Lit.neg b else b
    in
    lit

  let assert_circuit t ~frame ~tag l =
    if l = Aig.lit_true then ()
    else if l = Aig.lit_false then Solver.add_clause t.s ~tag []
    else Solver.add_clause t.s ~tag [ context t ~frame ~tag l ]

  let add_transition ?(frozen = fun _ -> false) t ~tag =
    let frame = nframes t - 1 in
    let enc = context t ~frame ~tag in
    let next =
      Array.init t.m.Model.num_latches (fun i ->
          if frozen i then Lit.pos (Solver.new_var t.s)
          else begin
            let e = enc t.m.Model.next.(i) in
            let v = Lit.pos (Solver.new_var t.s) in
            Hashtbl.replace t.eq (Solver.next_step_id t.s) i;
            Solver.add_clause t.s ~tag [ Lit.neg v; e ];
            Hashtbl.replace t.eq (Solver.next_step_id t.s) i;
            Solver.add_clause t.s ~tag [ v; Lit.neg e ];
            v
          end)
    in
    t.states <- next :: t.states
end

let rec cone m = function
  | T -> Aig.lit_true
  | F -> Aig.lit_false
  | In i -> Model.input_lit m i
  | L i -> Model.latch_lit m i
  | Not e -> Aig.not_ (cone m e)
  | And (a, b) -> Aig.and_ m.Model.man (cone m a) (cone m b)
  | Xor (a, b) -> Aig.xor_ m.Model.man (cone m a) (cone m b)

(* What the unroller hands the solver, and the search it gets: the
   variable count, every input clause's tag and stored literals (read
   through the proof log, so only when it records), the latch of every
   proof-log id, then the effort counters and every learnt clause of a
   solve, and the stored input clauses again. *)
let intake_digest ~proof s ~latch_of_clause =
  let open Isr_sat in
  let buf = Buffer.create 4096 in
  let add i = Buffer.add_string buf (string_of_int i ^ " ") in
  let inputs () =
    if proof then
      Solver.iter_input_clauses s (fun ~tag lits ->
        add tag;
        Array.iter add lits;
        Buffer.add_char buf '\n')
  in
  add (Solver.nvars s);
  for cid = 0 to Solver.next_step_id s - 1 do
    match latch_of_clause cid with
    | Some i ->
      add cid;
      add i
    | None -> ()
  done;
  inputs ();
  Solver.on_learnt s
    (Some
       (fun ~lits ~lbd ->
         add lbd;
         Array.iter add lits;
         Buffer.add_char buf '\n'));
  let r = Solver.solve s in
  Solver.on_learnt s None;
  add (match r with Solver.Sat -> 1 | Solver.Unsat -> 0 | Solver.Undef -> 2);
  List.iter add
    [
      Solver.num_conflicts s;
      Solver.num_decisions s;
      Solver.num_propagations s;
      Solver.num_learnt s;
      Solver.proof_steps s;
    ];
  inputs ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Per frame: an optional cone over the frame's inputs and latches,
   asserted before the transition (so the transition may find the
   frame's PIs allocated), whether to solve before the transition (a
   satisfiable solve leaves the trail above the root level, which the
   transition's first clause cancels), and an optional frozen mask. *)
let gen_frames =
  let open QCheck2.Gen in
  let* k = int_range 1 4 in
  list_size (pure k)
    (triple (opt ~ratio:0.5 gen_expr) bool (opt ~ratio:0.5 (array_size (pure nl) bool)))

let print_frames_case (c, proof, frames, reserve) =
  Printf.sprintf "%s proof=%b reserve=%s frames=[%s]" (print_circuit c) proof
    (match reserve with None -> "-" | Some (f, p) -> Printf.sprintf "%d,%d" f p)
    (String.concat "; "
       (List.map
          (fun (pre, solve, mask) ->
            Printf.sprintf "%s/%s/%s"
              (if pre = None then "-" else "cone")
              (if solve then "solve" else "-")
              (match mask with
              | None -> "-"
              | Some m ->
                String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") m))))
          frames))

let prop_compiled_frame_is_tseitin_frame =
  QCheck2.Test.make ~count:300 ~name:"compiled frame = Tseitin frame" ~print:print_frames_case
    QCheck2.Gen.(
      quad gen_circuit bool gen_frames (opt ~ratio:0.7 (pair (int_range 0 6) (int_range 0 3))))
    (fun (c, proof, frames, reserve) ->
      let model = build c in
      let u = Unroll.create ~proof model in
      let r = Ref_unroll.create ~proof model in
      (* Sizing the solver up front, for too few frames, the right number
         or too many, changes nothing the digest reads. *)
      (match (reserve, frames) with
      | Some (frames, props), (_, _, mask) :: _ ->
        let frozen = Option.map (fun m i -> m.(i)) mask in
        Unroll.reserve ?frozen u ~frames ~props
      | _ -> ());
      Unroll.assert_init u ~tag:1;
      Array.iteri
        (fun i l ->
          let l = if model.Model.init.(i) then l else Isr_sat.Lit.neg l in
          Isr_sat.Solver.add_clause r.Ref_unroll.s ~tag:1 [ l ])
        (Ref_unroll.state r 0);
      List.iteri
        (fun f (pre, solve, mask) ->
          let tag = f + 1 in
          (match pre with
          | Some e ->
            let l = cone model e in
            Unroll.assert_circuit u ~frame:f ~tag l;
            Ref_unroll.assert_circuit r ~frame:f ~tag l
          | None -> ());
          if solve then begin
            ignore (Isr_sat.Solver.solve (Unroll.solver u));
            ignore (Isr_sat.Solver.solve r.Ref_unroll.s)
          end;
          let frozen = Option.map (fun m i -> m.(i)) mask in
          Unroll.add_transition ?frozen u ~tag;
          Ref_unroll.add_transition ?frozen r ~tag)
        frames;
      let k = List.length frames in
      Unroll.assert_circuit u ~frame:k ~tag:(k + 1) model.Model.bad;
      Ref_unroll.assert_circuit r ~frame:k ~tag:(k + 1) model.Model.bad;
      let expected =
        intake_digest ~proof r.Ref_unroll.s ~latch_of_clause:(Hashtbl.find_opt r.Ref_unroll.eq)
      in
      let got =
        intake_digest ~proof (Unroll.solver u) ~latch_of_clause:(Unroll.latch_of_clause u)
      in
      String.equal expected got)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_exact_bmc_matches_bfs;
        prop_engines_match_reachability;
        prop_compiled_frame_is_tseitin_frame;
      ]
  in
  Alcotest.run "isr_bmc_random" [ ("differential", props) ]
