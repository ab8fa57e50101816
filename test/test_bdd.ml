(* Tests for the ROBDD package and BDD-based reachability. *)

open Isr_bdd
open Isr_model

let nv = 4

(* Random boolean expressions, evaluated both directly and through BDDs. *)
type expr = T | F | V of int | Not of expr | And of expr * expr | Or of expr * expr | Xor of expr * expr

let rec interp env = function
  | T -> true
  | F -> false
  | V i -> env i
  | Not e -> not (interp env e)
  | And (a, b) -> interp env a && interp env b
  | Or (a, b) -> interp env a || interp env b
  | Xor (a, b) -> interp env a <> interp env b

let rec build m = function
  | T -> Bdd.btrue
  | F -> Bdd.bfalse
  | V i -> Bdd.var m i
  | Not e -> Bdd.bnot m (build m e)
  | And (a, b) -> Bdd.band m (build m a) (build m b)
  | Or (a, b) -> Bdd.bor m (build m a) (build m b)
  | Xor (a, b) -> Bdd.bxor m (build m a) (build m b)

let gen_expr =
  let open QCheck2.Gen in
  sized_size (int_range 0 6) @@ fix (fun self n ->
      if n = 0 then oneof [ pure T; pure F; map (fun i -> V i) (int_range 0 (nv - 1)) ]
      else
        let sub = self (n / 2) in
        oneof
          [
            map (fun e -> Not e) sub;
            map2 (fun a b -> And (a, b)) sub sub;
            map2 (fun a b -> Or (a, b)) sub sub;
            map2 (fun a b -> Xor (a, b)) sub sub;
          ])

let rec print_expr = function
  | T -> "1"
  | F -> "0"
  | V i -> Printf.sprintf "v%d" i
  | Not e -> Printf.sprintf "!%s" (print_expr e)
  | And (a, b) -> Printf.sprintf "(%s&%s)" (print_expr a) (print_expr b)
  | Or (a, b) -> Printf.sprintf "(%s|%s)" (print_expr a) (print_expr b)
  | Xor (a, b) -> Printf.sprintf "(%s^%s)" (print_expr a) (print_expr b)

let prop_eval =
  QCheck2.Test.make ~count:500 ~name:"bdd eval matches interpreter" ~print:print_expr
    gen_expr (fun e ->
      let m = Bdd.create ~nvars:nv () in
      let b = build m e in
      let ok = ref true in
      for mask = 0 to (1 lsl nv) - 1 do
        let env i = (mask lsr i) land 1 = 1 in
        if Bdd.eval m env b <> interp env e then ok := false
      done;
      !ok)

let prop_canonicity =
  QCheck2.Test.make ~count:300 ~name:"equivalent formulas share one node"
    ~print:(fun (a, b) -> print_expr a ^ " vs " ^ print_expr b)
    QCheck2.Gen.(pair gen_expr gen_expr)
    (fun (e1, e2) ->
      let m = Bdd.create ~nvars:nv () in
      let b1 = build m e1 and b2 = build m e2 in
      let equiv = ref true in
      for mask = 0 to (1 lsl nv) - 1 do
        let env i = (mask lsr i) land 1 = 1 in
        if interp env e1 <> interp env e2 then equiv := false
      done;
      (b1 = b2) = !equiv)

let prop_exists =
  QCheck2.Test.make ~count:300 ~name:"exists quantifies correctly" ~print:print_expr
    gen_expr (fun e ->
      let m = Bdd.create ~nvars:nv () in
      let b = build m e in
      let q = Bdd.exists m (fun v -> v = 0) b in
      let ok = ref true in
      for mask = 0 to (1 lsl nv) - 1 do
        let env i = (mask lsr i) land 1 = 1 in
        let expected = interp (fun i -> if i = 0 then false else env i) e
                       || interp (fun i -> if i = 0 then true else env i) e in
        if Bdd.eval m env q <> expected then ok := false
      done;
      !ok)

let prop_and_exists =
  QCheck2.Test.make ~count:300 ~name:"and_exists = exists of and"
    ~print:(fun (a, b) -> print_expr a ^ " & " ^ print_expr b)
    QCheck2.Gen.(pair gen_expr gen_expr)
    (fun (e1, e2) ->
      let m = Bdd.create ~nvars:nv () in
      let b1 = build m e1 and b2 = build m e2 in
      let in_set v = v land 1 = 0 in
      Bdd.and_exists m in_set b1 b2 = Bdd.exists m in_set (Bdd.band m b1 b2))

let prop_to_aig_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"to_aig inverts of_aig" ~print:print_expr gen_expr
    (fun e ->
      let m = Bdd.create ~nvars:nv () in
      let b = build m e in
      let aman = Isr_aig.Aig.create () in
      let inputs = Array.init nv (fun _ -> Isr_aig.Aig.fresh_input aman) in
      let l = Bdd.to_aig m aman ~var_lit:(fun v -> inputs.(v)) b in
      let ok = ref true in
      for mask = 0 to (1 lsl nv) - 1 do
        let env i = (mask lsr i) land 1 = 1 in
        if Isr_aig.Aig.eval aman env l <> interp env e then ok := false
      done;
      !ok)

let test_count_sat () =
  let m = Bdd.create ~nvars:3 () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  Alcotest.(check (float 0.001)) "x has 4 models over 3 vars" 4.0 (Bdd.count_sat m ~nvars:3 x);
  Alcotest.(check (float 0.001)) "x&y has 2" 2.0 (Bdd.count_sat m ~nvars:3 (Bdd.band m x y));
  Alcotest.(check (float 0.001)) "true has 8" 8.0 (Bdd.count_sat m ~nvars:3 Bdd.btrue);
  Alcotest.(check (float 0.001)) "false has 0" 0.0 (Bdd.count_sat m ~nvars:3 Bdd.bfalse)

let test_any_sat () =
  let m = Bdd.create ~nvars:3 () in
  let f = Bdd.band m (Bdd.var m 0) (Bdd.bnot m (Bdd.var m 2)) in
  let path = Bdd.any_sat m f in
  let env i = match List.assoc_opt i path with Some b -> b | None -> false in
  Alcotest.(check bool) "path satisfies" true (Bdd.eval m env f);
  Alcotest.check_raises "false has no model" Not_found (fun () -> ignore (Bdd.any_sat m Bdd.bfalse))

let test_overflow () =
  let m = Bdd.create ~max_nodes:8 ~nvars:8 () in
  match
    let acc = ref Bdd.btrue in
    for i = 0 to 7 do
      acc := Bdd.band m !acc (Bdd.var m i)
    done;
    !acc
  with
  | exception Bdd.Overflow -> ()
  | _ -> Alcotest.fail "expected overflow with an 8-node budget"

(* --- reachability ------------------------------------------------------- *)

let counter_model ?(bits = 4) ~target () =
  let b = Builder.create "counter" in
  let q = Builder.latches b bits in
  let q1 = Builder.vec_incr b q in
  Array.iteri (fun i l -> Builder.set_next b l q1.(i)) q;
  Builder.finish b ~bad:(Builder.vec_eq_const b q target)

let gated_counter_for_compact () =
  let b = Builder.create "gated_compact" in
  let en = Builder.input b in
  let q = Builder.latches b 2 in
  let q1 = Builder.vec_mux b en (Builder.vec_incr b q) q in
  Array.iteri (fun i l -> Builder.set_next b l q1.(i)) q;
  Builder.finish b ~bad:(Builder.vec_eq_const b q 3)

(* Semantically q0 | q1 | q2, built the long way. *)
let redundant_pred model =
  let open Isr_aig in
  let aman = model.Model.man and q i = Model.latch_lit model i in
  Aig.big_or aman
    [
      Aig.and_ aman (q 0) (q 1);
      Aig.and_ aman (q 0) (Aig.not_ (q 1));
      Aig.and_ aman (Aig.not_ (q 0)) (q 1);
      Aig.big_and aman [ Aig.not_ (q 0); Aig.not_ (q 1); q 2 ];
    ]

(* Does [q] agree with [p] on every state of the model's latches? *)
let equivalent_on_all_states model p q =
  let ni = model.Model.num_inputs and nl = model.Model.num_latches in
  let aman = model.Model.man in
  let ok = ref true in
  for mask = 0 to (1 lsl nl) - 1 do
    let env i = i >= ni && (mask lsr (i - ni)) land 1 = 1 in
    if Isr_aig.Aig.eval aman env p <> Isr_aig.Aig.eval aman env q then ok := false
  done;
  !ok

let test_compact_preserves_and_shrinks () =
  let model = counter_model ~bits:4 ~target:9 () in
  let aman = model.Model.man in
  let p = redundant_pred model in
  let compacted = Isr_bdd.Compact.state_predicate model p in
  Alcotest.(check bool) "not larger" true
    (Isr_aig.Aig.cone_size aman compacted <= Isr_aig.Aig.cone_size aman p);
  Alcotest.(check bool) "same value on every state" true
    (equivalent_on_all_states model p compacted);
  (* Predicates reading primary inputs are left alone. *)
  let gated = gated_counter_for_compact () in
  let pi = Model.input_lit gated 0 in
  Alcotest.(check int) "pi predicate unchanged" pi
    (Isr_bdd.Compact.state_predicate gated pi)

(* --- column compaction ---------------------------------------------- *)

(* A model with [n] free-running latches and one primary input. *)
let latch_model n =
  let b = Builder.create "latches" in
  ignore (Builder.input b);
  Array.iter (fun l -> Builder.set_next b l (Isr_aig.Aig.not_ l)) (Builder.latches b n);
  Builder.finish b ~bad:Isr_aig.Aig.lit_false

let rec build_aig model = function
  | T -> Isr_aig.Aig.lit_true
  | F -> Isr_aig.Aig.lit_false
  | V i -> Model.latch_lit model i
  | Not e -> Isr_aig.Aig.not_ (build_aig model e)
  | And (a, b) -> Isr_aig.Aig.and_ model.Model.man (build_aig model a) (build_aig model b)
  | Or (a, b) -> Isr_aig.Aig.or_ model.Model.man (build_aig model a) (build_aig model b)
  | Xor (a, b) -> Isr_aig.Aig.xor_ model.Model.man (build_aig model a) (build_aig model b)

(* Random latch predicates over 1 to 10 latches, with repeated leaves so
   the circuits carry the redundancy compaction removes. *)
let gen_latch_pred =
  let open QCheck2.Gen in
  int_range 1 10 >>= fun n ->
  let leaf = oneof [ pure T; pure F; map (fun i -> V i) (int_range 0 (n - 1)) ] in
  let expr =
    sized_size (int_range 0 40) @@ fix (fun self size ->
        if size = 0 then leaf
        else
          let sub = self (size / 2) in
          oneof
            [
              map (fun e -> Not e) sub;
              map2 (fun a b -> And (a, b)) sub sub;
              map2 (fun a b -> Or (a, b)) sub sub;
              map2 (fun a b -> Xor (a, b)) sub sub;
            ])
  in
  map (fun e -> (n, e)) expr

let print_latch_pred (n, e) = Printf.sprintf "%d latches: %s" n (print_expr e)

let prop_column_equivalent_not_larger =
  QCheck2.Test.make ~count:300 ~name:"column: equivalent, never larger"
    ~print:print_latch_pred gen_latch_pred (fun (n, e) ->
      let model = latch_model n in
      let aman = model.Model.man in
      let p = build_aig model e in
      let c, before, after = Compact.column model p in
      equivalent_on_all_states model p c
      && before = Isr_aig.Aig.cone_size aman p
      && after = Isr_aig.Aig.cone_size aman c
      && after <= before)

(* Hints from 0 up make the node arrays start below the BDD's size and
   grow on the way. *)
let prop_size_hint_neutral =
  QCheck2.Test.make ~count:300 ~name:"size hint never changes result"
    ~print:(fun (e, h) -> Printf.sprintf "%s, hint %d" (print_expr e) h)
    QCheck2.Gen.(pair gen_expr (int_range 0 64))
    (fun (e, hint) ->
      let aman = Isr_aig.Aig.create () in
      let inputs = Array.init nv (fun _ -> Isr_aig.Aig.fresh_input aman) in
      let rebuild m = Bdd.to_aig m aman ~var_lit:(fun v -> inputs.(v)) (build m e) in
      rebuild (Bdd.create ~nvars:nv ()) = rebuild (Bdd.create ~size_hint:hint ~nvars:nv ()))

let test_column_kept () =
  let model = latch_model 4 in
  let open Isr_aig in
  let aman = model.Model.man in
  let p = redundant_pred model in
  let c, _, _ = Compact.column model p in
  Alcotest.(check bool) "an unbounded rebuild shrinks it" true (c <> p);
  (* A primary input, read redundantly: (pi & q0) | (pi & !q0). *)
  let pi = Model.input_lit model 0 in
  let with_pi =
    Aig.or_ aman (Aig.and_ aman pi (Model.latch_lit model 0))
      (Aig.and_ aman pi (Aig.not_ (Model.latch_lit model 0)))
  in
  let c, before, after = Compact.column model with_pi in
  Alcotest.(check bool) "input-reading column unchanged" true (c == with_pi);
  Alcotest.(check int) "sizes of the kept column" before after;
  (* Three BDD nodes cannot hold q0 | q1 | q2. *)
  let c, _, _ = Compact.column ~max_nodes:3 model p in
  Alcotest.(check bool) "overflowing column unchanged" true (c == p)

(* A 3-bit counter whose bad condition is unsatisfiable (q = 5 and q = 2
   simultaneously): safe, with the full d_F = 7 forward diameter. *)
let counter_safe () =
  let b = Builder.create "counter_safe" in
  let q = Builder.latches b 3 in
  let q1 = Builder.vec_incr b q in
  Array.iteri (fun i l -> Builder.set_next b l q1.(i)) q;
  let bad =
    Isr_aig.Aig.and_ (Builder.man b) (Builder.vec_eq_const b q 5) (Builder.vec_eq_const b q 2)
  in
  Builder.finish b ~bad

let test_forward_counter () =
  (* A 3-bit free counter visits all 8 states: d_F = 7 from state 0. *)
  let m_safe = counter_safe () in
  (match Reach.forward m_safe with
  | { verdict = Proved; diameter = Some d; _ } -> Alcotest.(check int) "d_F" 7 d
  | _ -> Alcotest.fail "expected proved");
  let m_bad = counter_model ~bits:3 ~target:5 () in
  match Reach.forward m_bad with
  | { verdict = Falsified d; _ } -> Alcotest.(check int) "cex depth" 5 d
  | _ -> Alcotest.fail "expected falsified"

let test_backward_counter () =
  let m_bad = counter_model ~bits:3 ~target:5 () in
  (match Reach.backward m_bad with
  | { verdict = Falsified d; _ } -> Alcotest.(check int) "cex depth" 5 d
  | _ -> Alcotest.fail "expected falsified");
  (* Unsatisfiable bad -> empty bad set: backward proves immediately with
     d_B = 0. *)
  let m_safe = counter_safe () in
  match Reach.backward m_safe with
  | { verdict = Proved; diameter = Some d; _ } -> Alcotest.(check int) "d_B" 0 d
  | _ -> Alcotest.fail "expected proved"

let test_backward_diameter_nontrivial () =
  (* Modular counter with an unreachable flag: latch f set when q = 6,
     but the counter is reset at 4.  Bad = f. *)
  let b = Builder.create "flagged" in
  let q = Builder.latches b 3 in
  let f = Builder.latch b () in
  let at6 = Builder.vec_eq_const b q 6 in
  let at3 = Builder.vec_eq_const b q 3 in
  let man = Builder.man b in
  let q1 = Builder.vec_mux b at3 (Builder.vec_const b ~width:3 0) (Builder.vec_incr b q) in
  Array.iteri (fun i l -> Builder.set_next b l q1.(i)) q;
  Builder.set_next b f (Isr_aig.Aig.or_ man f at6);
  let m = Builder.finish b ~bad:f in
  (match Reach.forward m with
  | { verdict = Proved; diameter = Some d; _ } ->
    (* states 0,1,2,3 then wrap: diameter 3 *)
    Alcotest.(check int) "d_F" 3 d
  | _ -> Alcotest.fail "forward should prove");
  match Reach.backward m with
  | { verdict = Proved; diameter = Some d; _ } ->
    (* bad = f; preimages: f=1 states, then q=6 states, then q=5, 4: but 4
       unreachable from wrap... backward explores the full graph: depth
       grows until preimage closure. *)
    Alcotest.(check bool) "d_B positive" true (d > 0)
  | _ -> Alcotest.fail "backward should prove"

let test_gated_falsified_depth () =
  (* Gated counter: with the enable input the shortest cex is still
     target steps. *)
  let b = Builder.create "gated" in
  let en = Builder.input b in
  let q = Builder.latches b 3 in
  let q1 = Builder.vec_mux b en (Builder.vec_incr b q) q in
  Array.iteri (fun i l -> Builder.set_next b l q1.(i)) q;
  let m = Builder.finish b ~bad:(Builder.vec_eq_const b q 3) in
  match Reach.forward m with
  | { verdict = Falsified d; _ } -> Alcotest.(check int) "depth 3" 3 d
  | _ -> Alcotest.fail "expected falsified"

let test_overflow_reported () =
  let m = counter_model ~bits:6 ~target:50 () in
  match Reach.forward ~max_nodes:64 m with
  | { verdict = Overflow; _ } -> ()
  | _ -> Alcotest.fail "expected overflow verdict"

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_eval;
        prop_canonicity;
        prop_exists;
        prop_and_exists;
        prop_to_aig_roundtrip;
        prop_column_equivalent_not_larger;
        prop_size_hint_neutral;
      ]
  in
  Alcotest.run "isr_bdd"
    [
      ( "bdd",
        [
          Alcotest.test_case "count_sat" `Quick test_count_sat;
          Alcotest.test_case "any_sat" `Quick test_any_sat;
          Alcotest.test_case "overflow" `Quick test_overflow;
          Alcotest.test_case "compact" `Quick test_compact_preserves_and_shrinks;
          Alcotest.test_case "column kept" `Quick test_column_kept;
        ] );
      ( "reach",
        [
          Alcotest.test_case "forward counter" `Quick test_forward_counter;
          Alcotest.test_case "backward counter" `Quick test_backward_counter;
          Alcotest.test_case "backward nontrivial" `Quick test_backward_diameter_nontrivial;
          Alcotest.test_case "gated depth" `Quick test_gated_falsified_depth;
          Alcotest.test_case "overflow verdict" `Quick test_overflow_reported;
        ] );
      ("properties", props);
    ]
