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

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [ prop_exact_bmc_matches_bfs; prop_engines_match_reachability ]
  in
  Alcotest.run "isr_bmc_random" [ ("differential", props) ]
