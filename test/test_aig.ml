(* Tests for the hash-consed AIG package. *)

open Isr_aig

(* A tiny expression language interpreted both directly and through the
   AIG, for differential testing. *)
type expr =
  | T
  | F
  | V of int
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr
  | Ite of expr * expr * expr

let rec interp env = function
  | T -> true
  | F -> false
  | V i -> env i
  | Not e -> not (interp env e)
  | And (a, b) -> interp env a && interp env b
  | Or (a, b) -> interp env a || interp env b
  | Xor (a, b) -> interp env a <> interp env b
  | Ite (c, t, e) -> if interp env c then interp env t else interp env e

let rec build m inputs = function
  | T -> Aig.lit_true
  | F -> Aig.lit_false
  | V i -> inputs.(i)
  | Not e -> Aig.not_ (build m inputs e)
  | And (a, b) -> Aig.and_ m (build m inputs a) (build m inputs b)
  | Or (a, b) -> Aig.or_ m (build m inputs a) (build m inputs b)
  | Xor (a, b) -> Aig.xor_ m (build m inputs a) (build m inputs b)
  | Ite (c, t, e) -> Aig.ite m (build m inputs c) (build m inputs t) (build m inputs e)

let gen_expr nvars =
  let open QCheck2.Gen in
  sized_size (int_range 0 6) @@ fix (fun self n ->
      if n = 0 then
        oneof [ pure T; pure F; map (fun i -> V i) (int_range 0 (nvars - 1)) ]
      else
        let sub = self (n / 2) in
        oneof
          [
            map (fun e -> Not e) sub;
            map2 (fun a b -> And (a, b)) sub sub;
            map2 (fun a b -> Or (a, b)) sub sub;
            map2 (fun a b -> Xor (a, b)) sub sub;
            map3 (fun a b c -> Ite (a, b, c)) sub sub sub;
          ])

let rec print_expr = function
  | T -> "1"
  | F -> "0"
  | V i -> Printf.sprintf "v%d" i
  | Not e -> Printf.sprintf "!%s" (print_expr e)
  | And (a, b) -> Printf.sprintf "(%s&%s)" (print_expr a) (print_expr b)
  | Or (a, b) -> Printf.sprintf "(%s|%s)" (print_expr a) (print_expr b)
  | Xor (a, b) -> Printf.sprintf "(%s^%s)" (print_expr a) (print_expr b)
  | Ite (a, b, c) -> Printf.sprintf "(%s?%s:%s)" (print_expr a) (print_expr b) (print_expr c)

let nv = 4

let with_aig e =
  let m = Aig.create () in
  let inputs = Array.init nv (fun _ -> Aig.fresh_input m) in
  (m, build m inputs e)

(* --- unit tests -------------------------------------------------------- *)

let test_simplifications () =
  let m = Aig.create () in
  let a = Aig.fresh_input m and b = Aig.fresh_input m in
  Alcotest.(check int) "x & 1 = x" a (Aig.and_ m a Aig.lit_true);
  Alcotest.(check int) "x & 0 = 0" Aig.lit_false (Aig.and_ m a Aig.lit_false);
  Alcotest.(check int) "x & x = x" a (Aig.and_ m a a);
  Alcotest.(check int) "x & !x = 0" Aig.lit_false (Aig.and_ m a (Aig.not_ a));
  Alcotest.(check int) "hash-consing" (Aig.and_ m a b) (Aig.and_ m b a);
  Alcotest.(check int) "double negation" a (Aig.not_ (Aig.not_ a))

let test_counts () =
  let m = Aig.create () in
  let a = Aig.fresh_input m and b = Aig.fresh_input m in
  let x = Aig.and_ m a b in
  let _y = Aig.or_ m a b in
  Alcotest.(check int) "inputs" 2 (Aig.num_inputs m);
  Alcotest.(check int) "ands" 2 (Aig.num_ands m);
  Alcotest.(check bool) "is_and" true (Aig.is_and m x);
  Alcotest.(check bool) "is_input" true (Aig.is_input m a);
  let f0, f1 = Aig.fanins m x in
  Alcotest.(check bool) "fanins are the inputs" true
    ((f0 = a && f1 = b) || (f0 = b && f1 = a))

let test_support () =
  let m = Aig.create () in
  let a = Aig.fresh_input m and b = Aig.fresh_input m and c = Aig.fresh_input m in
  ignore c;
  let x = Aig.and_ m a (Aig.not_ b) in
  Alcotest.(check (list int)) "support" [ 0; 1 ] (Aig.support m x);
  Alcotest.(check (list int)) "const support" [] (Aig.support m Aig.lit_true)

let test_substitute () =
  let m = Aig.create () in
  let a = Aig.fresh_input m and b = Aig.fresh_input m in
  let x = Aig.xor_ m a b in
  (* substitute a -> b gives b xor b = false *)
  let y = Aig.substitute m (fun i -> if i = 0 then b else b) x in
  Alcotest.(check int) "xor collapses" Aig.lit_false y;
  let z = Aig.substitute m (fun i -> if i = 0 then Aig.not_ a else b) x in
  (* (!a) xor b *)
  let expected = Aig.xor_ m (Aig.not_ a) b in
  Alcotest.(check int) "rebuilt shared" expected z

(* --- property tests ---------------------------------------------------- *)

let prop_eval_matches =
  QCheck2.Test.make ~count:500 ~name:"aig eval matches interpreter" ~print:print_expr
    (gen_expr nv) (fun e ->
      let m, l = with_aig e in
      let ok = ref true in
      for mask = 0 to (1 lsl nv) - 1 do
        let env i = (mask lsr i) land 1 = 1 in
        if Aig.eval m env l <> interp env e then ok := false
      done;
      !ok)

let prop_eval64_matches =
  QCheck2.Test.make ~count:200 ~name:"eval64 packs 64 evals" ~print:print_expr
    (gen_expr nv) (fun e ->
      let m, l = with_aig e in
      (* Lane [k] of input [i] carries bit i of mask k: 16 lanes used. *)
      let env64 i =
        let w = ref 0L in
        for mask = 0 to (1 lsl nv) - 1 do
          if (mask lsr i) land 1 = 1 then w := Int64.logor !w (Int64.shift_left 1L mask)
        done;
        !w
      in
      let packed = Aig.eval64 m env64 l in
      let ok = ref true in
      for mask = 0 to (1 lsl nv) - 1 do
        let env i = (mask lsr i) land 1 = 1 in
        let lane = Int64.logand (Int64.shift_right_logical packed mask) 1L = 1L in
        if lane <> interp env e then ok := false
      done;
      !ok)

let prop_support_sound =
  QCheck2.Test.make ~count:300 ~name:"support covers dependencies" ~print:print_expr
    (gen_expr nv) (fun e ->
      let m, l = with_aig e in
      let sup = Aig.support m l in
      (* Flipping a variable outside the support never changes the value. *)
      let ok = ref true in
      for mask = 0 to (1 lsl nv) - 1 do
        for i = 0 to nv - 1 do
          if not (List.mem i sup) then begin
            let env j = (mask lsr j) land 1 = 1 in
            let env' j = if j = i then not (env j) else env j in
            if Aig.eval m env l <> Aig.eval m env' l then ok := false
          end
        done
      done;
      !ok)

let prop_substitute_semantics =
  QCheck2.Test.make ~count:200 ~name:"substitute = composition"
    ~print:(fun (a, b) -> print_expr a ^ " o " ^ print_expr b)
    (QCheck2.Gen.pair (gen_expr nv) (gen_expr nv))
    (fun (e, g) ->
      let m = Aig.create () in
      let inputs = Array.init nv (fun _ -> Aig.fresh_input m) in
      let le = build m inputs e in
      let lg = build m inputs g in
      (* Substitute input 0 by g in e. *)
      let composed = Aig.substitute m (fun i -> if i = 0 then lg else inputs.(i)) le in
      let ok = ref true in
      for mask = 0 to (1 lsl nv) - 1 do
        let env i = (mask lsr i) land 1 = 1 in
        let direct = interp (fun i -> if i = 0 then interp env g else env i) e in
        if Aig.eval m env composed <> direct then ok := false
      done;
      !ok)

(* A compiled cone program computes, lane by lane, what [Aig.eval]
   computes on every node of the union cone: random roots over one
   manager (plus logic outside the cone), random 64-lane patterns. *)
let prop_prog_eval64 =
  QCheck2.Test.make ~count:300 ~name:"program eval64 = Aig.eval per lane"
    ~print:(fun (roots, dead, _) ->
      String.concat " ; " (List.map print_expr roots) ^ " / dead " ^ print_expr dead)
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 4) (gen_expr nv))
        (gen_expr nv)
        (list_size (pure nv) ui64))
    (fun (roots, dead, words) ->
      let m = Aig.create () in
      let inputs = Array.init nv (fun _ -> Aig.fresh_input m) in
      let lits = List.map (build m inputs) roots in
      ignore (build m inputs dead);
      let words = Array.of_list words in
      let p = Prog.compile m lits in
      let buf = Prog.words p in
      Prog.eval64 p buf (fun i -> words.(i));
      let lane_env b i = Int64.logand (Int64.shift_right_logical words.(i) b) 1L = 1L in
      let agrees w l =
        List.for_all
          (fun b -> (Int64.logand (Int64.shift_right_logical w b) 1L = 1L) = Aig.eval m (lane_env b) l)
          (List.init 64 Fun.id)
      in
      Prog.size p = List.length (Aig.fold_cones m lits ~init:[] ~f:(fun acc n -> n :: acc))
      && List.for_all (fun l -> agrees (Prog.lit_word p buf l) l) lits
      && List.for_all
           (fun s -> agrees (Prog.word buf s) (Prog.node p s lsl 1))
           (List.init (Prog.size p) Fun.id))

(* Truth tables over n <= 10 latch inputs that follow [lo] primary
   inputs, as in a model's manager: each table is [Aig.eval] on every
   state, the word operations are the pointwise ones, and table -> AIG
   -> table is the identity. *)
let prop_truth_tables =
  QCheck2.Test.make ~count:300 ~name:"truth table = Aig.eval on every state"
    ~print:(fun (n, (a, b)) -> Printf.sprintf "n=%d: %s ; %s" n (print_expr a) (print_expr b))
    QCheck2.Gen.(int_range 1 Truth.max_vars >>= fun n -> pair (pure n) (pair (gen_expr n) (gen_expr n)))
    (fun (n, (a, b)) ->
      let lo = 2 in
      let m = Aig.create () in
      let pis = Array.init lo (fun _ -> Aig.fresh_input m) in
      let latches = Array.init n (fun _ -> Aig.fresh_input m) in
      ignore (Aig.and_ m pis.(0) (Aig.not_ pis.(1)));
      let la = build m latches a and lb = build m latches b in
      let tables = Truth.of_lits m ~nvars:n ~var:(fun i -> i - lo) [| la; lb |] in
      let ta = tables.(0) and tb = tables.(1) in
      let states = List.init (1 lsl n) Fun.id in
      let env s i = i >= lo && (s lsr (i - lo)) land 1 = 1 in
      let pointwise t f = List.for_all (fun s -> Truth.get t s = f s) states in
      let fresh = Aig.create () in
      let inputs = Array.init n (fun _ -> Aig.fresh_input fresh) in
      let back t =
        (Truth.of_lits fresh ~nvars:n ~var:Fun.id [| Truth.to_aig fresh ~var_lit:(Array.get inputs) t |]).(0)
      in
      pointwise ta (fun s -> Aig.eval m (env s) la)
      && pointwise tb (fun s -> Aig.eval m (env s) lb)
      && pointwise (Truth.and_ ta tb) (fun s -> Truth.get ta s && Truth.get tb s)
      && pointwise (Truth.or_ ta tb) (fun s -> Truth.get ta s || Truth.get tb s)
      && pointwise (Truth.not_ ta) (fun s -> not (Truth.get ta s))
      && Truth.implies ta tb = List.for_all (fun s -> (not (Truth.get ta s)) || Truth.get tb s) states
      && pointwise (back ta) (Truth.get ta)
      && pointwise (back tb) (Truth.get tb)
      && pointwise ta (fun s ->
             Aig.eval m (env s) (Truth.to_aig m ~var_lit:(fun v -> latches.(v)) ta)))

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_eval_matches; prop_eval64_matches; prop_support_sound; prop_substitute_semantics;
        prop_prog_eval64; prop_truth_tables;
      ]
  in
  Alcotest.run "isr_aig"
    [
      ( "aig",
        [
          Alcotest.test_case "simplifications" `Quick test_simplifications;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "substitute" `Quick test_substitute;
        ] );
      ("properties", props);
    ]
