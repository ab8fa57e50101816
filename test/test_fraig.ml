(* Tests for SAT sweeping: merges are machine-checked, models stay
   sequentially equivalent, and semantically redundant logic shrinks. *)

open Isr_aig
open Isr_model
open Isr_fraig

let test_equivalent_basic () =
  let man = Aig.create () in
  let a = Aig.fresh_input man and b = Aig.fresh_input man in
  (* x&y vs y&x are already structurally shared; build semantic twins:
     !(!a | !b) == a & b by De Morgan. *)
  let conj = Aig.and_ man a b in
  let demorgan = Aig.not_ (Aig.or_ man (Aig.not_ a) (Aig.not_ b)) in
  Alcotest.(check bool) "demorgan" true (Fraig.equivalent man conj demorgan = Some true);
  let xor1 = Aig.xor_ man a b in
  Alcotest.(check bool) "xor vs and differ" true
    (Fraig.equivalent man conj xor1 = Some false);
  (* ite(a, b, b) == b *)
  let ite = Aig.ite man a b b in
  Alcotest.(check bool) "ite collapse" true (Fraig.equivalent man ite b = Some true)

(* A model with deliberate semantic (not structural) redundancy: the
   same mux computed through two different decompositions. *)
let redundant_model () =
  let b = Builder.create "redundant" in
  let sel = Builder.input b in
  let x = Builder.input b in
  let y = Builder.input b in
  let m = Builder.man b in
  let q1 = Builder.latch b () in
  let q2 = Builder.latch b () in
  (* mux as (sel&x) | (!sel&y) and as !( (!(sel&x)) & (!(!sel&y)) ) plus
     an xor-based variant: x xor ((x xor y) & !sel). *)
  let mux_a = Aig.or_ m (Aig.and_ m sel x) (Aig.and_ m (Aig.not_ sel) y) in
  let mux_b = Aig.xor_ m x (Aig.and_ m (Aig.xor_ m x y) (Aig.not_ sel)) in
  Builder.set_next b q1 mux_a;
  Builder.set_next b q2 mux_b;
  Builder.finish b ~bad:(Aig.xor_ m q1 q2)

let test_sweep_preserves_behaviour () =
  let m = redundant_model () in
  let swept = fst (Fraig.sweep m) in
  Alcotest.(check int) "same inputs" m.Model.num_inputs swept.Model.num_inputs;
  Alcotest.(check int) "same latches" m.Model.num_latches swept.Model.num_latches;
  let rand = Random.State.make [| 99 |] in
  for _ = 1 to 100 do
    let depth = 1 + Random.State.int rand 6 in
    let inputs =
      Array.init depth (fun _ -> Array.init m.Model.num_inputs (fun _ -> Random.State.bool rand))
    in
    let tr = { Trace.inputs } in
    if Sim.run m tr <> Sim.run swept tr then Alcotest.fail "behaviour diverged";
    if Sim.check_trace m tr <> Sim.check_trace swept tr then Alcotest.fail "bad diverged"
  done

let test_sweep_shrinks_redundancy () =
  let m = redundant_model () in
  let swept = fst (Fraig.sweep m) in
  (* The two mux decompositions must collapse: bad = q1 xor q2 where both
     latches now load the same node. *)
  Alcotest.(check bool)
    (Printf.sprintf "swept (%d) smaller than original (%d)" (Model.num_ands swept)
       (Model.num_ands m))
    true
    (Model.num_ands swept < Model.num_ands m);
  Alcotest.(check int) "next functions merged" swept.Model.next.(0) swept.Model.next.(1)

(* Sweeping never changes engine verdicts. *)
let test_sweep_verdicts () =
  List.iter
    (fun name ->
      match Isr_suite.Registry.find name with
      | None -> Alcotest.failf "missing %s" name
      | Some e ->
        let m = Isr_suite.Registry.build_validated e in
        let swept = fst (Fraig.sweep m) in
        let limits =
          { Isr_core.Budget.time_limit = 30.0; conflict_limit = 2_000_000; bound_limit = 60; reduce = Isr_sat.Solver.default_reduce }
        in
        let v1, _ = Isr_core.Engine.run (Isr_core.Engine.Itpseq Isr_core.Bmc.Assume) ~limits m in
        let v2, _ =
          Isr_core.Engine.run (Isr_core.Engine.Itpseq Isr_core.Bmc.Assume) ~limits swept
        in
        (match (v1, v2) with
        | Isr_core.Verdict.Proved _, Isr_core.Verdict.Proved _ -> ()
        | ( Isr_core.Verdict.Falsified { depth = d1; _ },
            Isr_core.Verdict.Falsified { depth = d2; trace } ) ->
          Alcotest.(check int) (name ^ " depth") d1 d2;
          Alcotest.(check bool) (name ^ " swept trace replays on original") true
            (Sim.first_bad m trace = Some d2)
        | _ -> Alcotest.failf "%s: verdicts diverged" name))
    [ "traffic6"; "tcas12"; "coherence3"; "amba2g3" ]

(* Random sequential circuits: sweeping preserves the entire visible
   behaviour (states and bad) on random input sequences. *)
type expr = T | F | In of int | L of int | Not of expr | And of expr * expr | Xor of expr * expr

let nl = 3
let ni = 2

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
  pure (nexts, bad)

let build_circuit (nexts, bad) =
  let b = Builder.create "rand" in
  let ins = Builder.inputs b ni in
  let ls = Builder.latches b nl in
  let m = Builder.man b in
  let rec tr = function
    | T -> Aig.lit_true
    | F -> Aig.lit_false
    | In i -> ins.(i)
    | L i -> ls.(i)
    | Not e -> Aig.not_ (tr e)
    | And (a, b') -> Aig.and_ m (tr a) (tr b')
    | Xor (a, b') -> Aig.xor_ m (tr a) (tr b')
  in
  List.iteri (fun i e -> Builder.set_next b ls.(i) (tr e)) nexts;
  Builder.finish b ~bad:(tr bad)

let prop_sweep_random =
  QCheck2.Test.make ~count:150 ~name:"sweeping preserves random circuits"
    (QCheck2.Gen.pair gen_circuit (QCheck2.Gen.int_bound 10000))
    (fun (spec, seed) ->
      let m = build_circuit spec in
      let swept = fst (Fraig.sweep m) in
      let rand = Random.State.make [| seed |] in
      let ok = ref true in
      for _ = 1 to 20 do
        let depth = 1 + Random.State.int rand 5 in
        let inputs =
          Array.init depth (fun _ -> Array.init ni (fun _ -> Random.State.bool rand))
        in
        let tr = { Trace.inputs } in
        if Sim.run m tr <> Sim.run swept tr then ok := false
      done;
      !ok)

(* The reference sweep: the algorithm before counterexample refinement.
   Signatures come from [Aig.eval64] with one memo per pattern, every
   bucket candidate gets a miter, and a failed miter teaches nothing. *)
let reference_sweep ?(rounds = 8) ?(conflict_budget = 10_000) (m : Model.t) =
  let man = m.Model.man in
  let ninputs = Aig.num_inputs man in
  let rand = Random.State.make [| 0xf4a16 |] in
  let patterns =
    List.init rounds (fun _ ->
        (Array.init ninputs (fun _ -> Random.State.bits64 rand), Hashtbl.create 64))
  in
  let signature node =
    List.map (fun (pat, memo) -> Aig.eval64 ~memo man (fun i -> pat.(i)) (node lsl 1)) patterns
  in
  let dst = Aig.create () in
  let new_inputs = Array.init ninputs (fun _ -> Aig.fresh_input dst) in
  let buckets = Hashtbl.create 64 in
  let mapping = Hashtbl.create 64 in
  let merges = ref 0 in
  let try_bucket l0 key ~compl =
    match Hashtbl.find_opt buckets key with
    | None -> None
    | Some candidates ->
      List.find_map
        (fun (old, repr_new) ->
          let target = if compl then Aig.not_ (old lsl 1) else old lsl 1 in
          match Fraig.equivalent ~conflict_budget man l0 target with
          | Some true ->
            incr merges;
            Some (if compl then Aig.not_ repr_new else repr_new)
          | _ -> None)
        candidates
  in
  let rec rebuild_node node =
    match Hashtbl.find_opt mapping node with
    | Some l -> l
    | None ->
      let l0 = node lsl 1 in
      let nl =
        if Aig.is_const man l0 then Aig.lit_false
        else if Aig.is_input man l0 then new_inputs.(Aig.input_index man l0)
        else begin
          let f0, f1 = Aig.fanins man l0 in
          let built = Aig.and_ dst (rebuild_lit f0) (rebuild_lit f1) in
          let key = signature node in
          match try_bucket l0 key ~compl:false with
          | Some repr -> repr
          | None -> (
            match try_bucket l0 (List.map Int64.lognot key) ~compl:true with
            | Some repr -> repr
            | None ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
              Hashtbl.replace buckets key ((node, built) :: prev);
              built)
        end
      in
      Hashtbl.add mapping node nl;
      nl
  and rebuild_lit l =
    let nl = rebuild_node (Aig.node_of l) in
    if Aig.is_complemented l then Aig.not_ nl else nl
  in
  let next = Array.map rebuild_lit m.Model.next in
  let bad = rebuild_lit m.Model.bad in
  ({ m with Model.man = dst; next; bad }, !merges)

(* Two managers hold the same nodes under the same indices. *)
let same_manager a b =
  Aig.num_nodes a = Aig.num_nodes b
  && List.for_all
       (fun node ->
         let l = node lsl 1 in
         Aig.is_input a l = Aig.is_input b l
         && Aig.is_and a l = Aig.is_and b l
         && (not (Aig.is_and a l) || Aig.fanins a l = Aig.fanins b l)
         && ((not (Aig.is_input a l)) || Aig.input_index a l = Aig.input_index b l))
       (List.init (Aig.num_nodes a) Fun.id)

(* Deeper circuits than [gen_circuit], with XOR and OR also written the
   long way round, so that next-state functions share subterms in
   different forms and buckets hold several candidates. *)
let gen_wide =
  let open QCheck2.Gen in
  let leaf =
    oneof [ map (fun i -> In i) (int_range 0 1); map (fun i -> L i) (int_range 0 (nl - 1)) ]
  in
  let expr =
    sized_size (int_range 1 7) @@ fix (fun self n ->
        if n = 0 then leaf
        else
          let sub = self (n / 2) in
          oneof
            [
              map (fun e -> Not e) sub;
              map2 (fun a b -> And (a, b)) sub sub;
              map2 (fun a b -> Xor (a, b)) sub sub;
              map2 (fun a b -> Xor (Xor (a, b), b)) sub sub;
              map2 (fun a b -> Not (And (Not a, Not b))) sub sub;
            ])
  in
  let* nexts = list_size (pure nl) expr in
  let* bad = expr in
  pure (nexts, bad)

(* Sparse circuits: wide conjunctions over 14 inputs are almost always
   false, so eight random pattern words cannot tell them apart, buckets
   fill with non-equivalent candidates, and failed miters refine them.
   Each use of a conjunction associates it afresh (left or right), and
   pairs of uses combine as OR, XOR or a second XNOR form, so that both
   plain and complemented equivalences are there to merge. *)
type sparse = {
  terms : (int * bool) list list;  (** (input, negated) literals *)
  outs : (int * bool * int * bool * int) list;  (** term, assoc, term, assoc, combinator *)
}

let sparse_inputs = 14

let gen_sparse =
  let open QCheck2.Gen in
  let lit = pair (int_range 0 (sparse_inputs - 1)) bool in
  let* nterms = int_range 3 6 in
  let* terms = list_size (pure nterms) (list_size (int_range 7 11) lit) in
  let use = pair (int_range 0 (nterms - 1)) bool in
  let* outs =
    list_size (pure 3)
      (map3 (fun (t, a) (u, b) op -> (t, a, u, b, op)) use use (int_range 0 2))
  in
  pure { terms; outs }

let build_sparse { terms; outs } =
  let b = Builder.create "sparse" in
  let ins = Builder.inputs b sparse_inputs in
  let q = Builder.latches b 2 in
  let m = Builder.man b in
  let terms = Array.of_list terms in
  let term t left =
    let lits = List.map (fun (i, neg) -> if neg then Aig.not_ ins.(i) else ins.(i)) terms.(t) in
    if left then Aig.big_and m lits else List.fold_right (fun l acc -> Aig.and_ m l acc) lits Aig.lit_true
  in
  let out (t, a, u, c, op) =
    let x = term t a and y = term u c in
    match op with
    | 0 -> Aig.or_ m x y
    | 1 -> Aig.xor_ m x y
    | _ -> Aig.or_ m (Aig.and_ m x y) (Aig.and_ m (Aig.not_ x) (Aig.not_ y))
  in
  match List.map out outs with
  | [ n0; n1; bad ] ->
    Builder.set_next b q.(0) n0;
    Builder.set_next b q.(1) (Aig.xor_ m n1 q.(0));
    Builder.finish b ~bad:(Aig.and_ m bad q.(1))
  | _ -> assert false

(* Refinement only skips candidates that cannot be equivalent, so the
   merges and the output manager are the reference sweep's, node for
   node.  Tiny conflict budgets leave some miters undecided, so that a
   bucket can hold several candidates equivalent to a node and its order
   decides the merge. *)
let prop_sweep_reference =
  QCheck2.Test.make ~count:400 ~name:"sweep = reference sweep"
    QCheck2.Gen.(
      pair
        (oneof
           [
             map (fun c -> build_circuit c) gen_circuit;
             map (fun c -> build_circuit c) gen_wide;
             map build_sparse gen_sparse;
           ])
        (oneofl [ 0; 1; 2; 10_000 ]))
    (fun (m, conflict_budget) ->
      let swept, merges = Fraig.sweep ~conflict_budget m in
      let expected, expected_merges = reference_sweep ~conflict_budget m in
      merges = expected_merges
      && swept.Model.next = expected.Model.next
      && swept.Model.bad = expected.Model.bad
      && same_manager swept.Model.man expected.Model.man)

let () =
  Alcotest.run "isr_fraig"
    [
      ( "fraig",
        [
          Alcotest.test_case "equivalence checks" `Quick test_equivalent_basic;
          Alcotest.test_case "behaviour preserved" `Quick test_sweep_preserves_behaviour;
          Alcotest.test_case "redundancy merged" `Quick test_sweep_shrinks_redundancy;
          Alcotest.test_case "verdicts stable" `Slow test_sweep_verdicts;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_sweep_random; prop_sweep_reference ] );
    ]
