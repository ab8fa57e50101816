(* Tests for the BTOR2 front-end: exhaustive differential checking of the
   bit-blasted word-level operators against integer semantics, the
   valid-prefix constraint transformation, uninitialized states, and the
   end-to-end path through the engines. *)

open Isr_model
open Isr_btor

let w = 6
let mask = (1 lsl w) - 1

(* A model computing [a OP b] over two w-bit inputs, with one bad line
   per result bit (so parse_string_multi exposes every bit). *)
let op_model ~result_width op =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "1 sort bitvec %d" w;
  line "2 sort bitvec 1";
  line "3 input 1 a";
  line "4 input 1 b";
  line "5 sort bitvec %d" result_width;
  line "6 %s 5 3 4" op;
  for j = 0 to result_width - 1 do
    line "%d slice 2 6 %d %d" (7 + (2 * j)) j j;
    line "%d bad %d" (8 + (2 * j)) (7 + (2 * j))
  done;
  Buffer.contents buf

let bit_of_model model a b =
  let inputs = Array.init (2 * w) (fun i -> if i < w then (a lsr i) land 1 = 1 else (b lsr (i - w)) land 1 = 1) in
  Sim.bad_now model ~state:[||] ~inputs

let check_binary_op op ~result_width spec =
  match Btor2.parse_string (op_model ~result_width op) with
  | Error e -> Alcotest.failf "%s: parse: %s" op e
  | Ok models ->
    Alcotest.(check int) (op ^ " bad count") result_width (List.length models);
    let models = Array.of_list models in
    for a = 0 to mask do
      for b = 0 to mask do
        let expected = spec a b in
        for j = 0 to result_width - 1 do
          let got = bit_of_model models.(j) a b in
          if got <> ((expected lsr j) land 1 = 1) then
            Alcotest.failf "%s %d %d: bit %d wrong" op a b j
        done
      done
    done

let signed x = if x land (1 lsl (w - 1)) <> 0 then x - (1 lsl w) else x

let test_arith () =
  check_binary_op "add" ~result_width:w (fun a b -> (a + b) land mask);
  check_binary_op "sub" ~result_width:w (fun a b -> (a - b) land mask);
  check_binary_op "mul" ~result_width:w (fun a b -> a * b land mask)

let test_divrem () =
  check_binary_op "udiv" ~result_width:w (fun a b -> if b = 0 then mask else a / b);
  check_binary_op "urem" ~result_width:w (fun a b -> if b = 0 then a else a mod b)

let test_shifts () =
  check_binary_op "sll" ~result_width:w (fun a b ->
      if b >= w then 0 else (a lsl b) land mask);
  check_binary_op "srl" ~result_width:w (fun a b -> if b >= w then 0 else a lsr b);
  check_binary_op "sra" ~result_width:w (fun a b ->
      let s = signed a in
      let shift = min b (w - 1) in
      let r = if b >= w then if s < 0 then -1 else 0 else s asr shift in
      r land mask)

let test_comparisons () =
  check_binary_op "ult" ~result_width:1 (fun a b -> if a < b then 1 else 0);
  check_binary_op "ulte" ~result_width:1 (fun a b -> if a <= b then 1 else 0);
  check_binary_op "slt" ~result_width:1 (fun a b -> if signed a < signed b then 1 else 0);
  check_binary_op "sgte" ~result_width:1 (fun a b -> if signed a >= signed b then 1 else 0);
  check_binary_op "eq" ~result_width:1 (fun a b -> if a = b then 1 else 0);
  check_binary_op "neq" ~result_width:1 (fun a b -> if a <> b then 1 else 0)

let test_bitwise () =
  check_binary_op "and" ~result_width:w (fun a b -> a land b);
  check_binary_op "xor" ~result_width:w (fun a b -> a lxor b);
  check_binary_op "nor" ~result_width:w (fun a b -> lnot (a lor b) land mask);
  check_binary_op "concat" ~result_width:(2 * w) (fun a b -> (a lsl w) lor b)

(* A 4-bit counter that trips at 9: the canonical end-to-end check. *)
let counter_text =
  {|
1 sort bitvec 4
2 sort bitvec 1
3 zero 1
4 state 1
5 init 1 4 3
6 one 1
7 add 1 4 6
8 next 1 4 7
9 constd 1 9
10 eq 2 4 9
11 bad 10
|}

let test_counter_end_to_end () =
  match Btor2.parse_string counter_text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok [ model ] -> (
    (match Model.validate model with Ok () -> () | Error e -> Alcotest.failf "validate: %s" e);
    match Isr_core.Engine.run (Isr_core.Engine.Itpseq Isr_core.Bmc.Assume) model with
    | Isr_core.Verdict.Falsified { depth; trace }, _ ->
      Alcotest.(check int) "depth" 9 depth;
      Alcotest.(check bool) "replays" true (Sim.check_trace model trace)
    | v, _ -> Alcotest.failf "engine: %a" Isr_core.Verdict.pp v)
  | Ok models -> Alcotest.failf "expected one model, got %d" (List.length models)

(* Constraints: an input-driven counter where the environment is forced
   to always push — the bug becomes inevitable; with the opposite
   constraint it becomes unreachable. *)
let constrained_text force =
  Printf.sprintf
    {|
1 sort bitvec 3
2 sort bitvec 1
3 zero 1
4 state 1
5 init 1 4 3
6 input 2
7 uext 1 6 2
8 add 1 4 7
9 next 1 4 8
10 constd 1 3
11 eq 2 4 10
12 bad 11
13 constd 2 %d
14 eq 2 6 13
15 constraint 14
|}
    force

let test_constraints () =
  (match Btor2.parse_string (constrained_text 1) with
  | Ok [ model ] -> (
    match Isr_core.Bmc.run ~check:Isr_core.Bmc.Exact model with
    | Isr_core.Verdict.Falsified { depth; _ }, _ -> Alcotest.(check int) "forced depth" 3 depth
    | v, _ -> Alcotest.failf "forced: %a" Isr_core.Verdict.pp v)
  | Ok _ | Error _ -> Alcotest.fail "parse failed (force)");
  match Btor2.parse_string (constrained_text 0) with
  | Ok [ model ] -> (
    (* Pushing is forbidden: the counter never moves; k-induction proves
       it quickly. *)
    match Isr_core.Engine.run Isr_core.Engine.Kind model with
    | Isr_core.Verdict.Proved _, _ -> ()
    | v, _ -> Alcotest.failf "frozen: %a" Isr_core.Verdict.pp v)
  | Ok _ | Error _ -> Alcotest.fail "parse failed (freeze)"

(* Uninitialized states take a free value in the first cycle. *)
let uninit_text =
  {|
1 sort bitvec 3
2 sort bitvec 1
3 state 1
4 next 1 3 3
5 constd 1 5
6 eq 2 3 5
7 bad 6
|}

let test_uninit_state () =
  match Btor2.parse_string uninit_text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok [ model ] -> (
    match Isr_core.Bmc.run ~check:Isr_core.Bmc.Exact model with
    | Isr_core.Verdict.Falsified { depth; trace }, _ ->
      Alcotest.(check int) "free at cycle 0" 0 depth;
      Alcotest.(check bool) "replays" true (Sim.check_trace model trace)
    | v, _ -> Alcotest.failf "engine: %a" Isr_core.Verdict.pp v)
  | Ok _ -> Alcotest.fail "expected one model"

(* Justice: a free-running 2-bit counter visits 0 infinitely often (fair
   lasso exists -> the L2S safety model is falsifiable); a saturating
   counter never revisits 0 (safe). *)
let justice_text saturating =
  Printf.sprintf
    {|
1 sort bitvec 2
2 sort bitvec 1
3 zero 1
4 state 1
5 init 1 4 3
6 one 1
7 add 1 4 6
8 constd 1 3
9 eq 2 4 8
10 ite 1 9 %s 7
11 next 1 4 10
12 eq 2 4 3
13 justice 1 12
|}
    (if saturating then "4" else "7")

let test_justice () =
  (match Btor2.parse_string (justice_text false) with
  | Ok [ model ] -> (
    match Isr_core.Bmc.run ~check:Isr_core.Bmc.Exact model with
    | Isr_core.Verdict.Falsified _, _ -> ()
    | v, _ -> Alcotest.failf "wrapping: %a" Isr_core.Verdict.pp v)
  | Ok l -> Alcotest.failf "wrapping: %d models" (List.length l)
  | Error e -> Alcotest.failf "wrapping parse: %s" e);
  match Btor2.parse_string (justice_text true) with
  | Ok [ model ] -> (
    match Isr_core.Engine.run Isr_core.Engine.Pdr model with
    | Isr_core.Verdict.Proved _, _ -> ()
    | v, _ -> Alcotest.failf "saturating: %a" Isr_core.Verdict.pp v)
  | Ok l -> Alcotest.failf "saturating: %d models" (List.length l)
  | Error e -> Alcotest.failf "saturating parse: %s" e

let test_writer_roundtrip () =
  List.iter
    (fun name ->
      match Isr_suite.Registry.find name with
      | None -> Alcotest.failf "missing %s" name
      | Some e -> (
        let m = Isr_suite.Registry.build_validated e in
        let text = Btor2.to_string m in
        match Btor2.parse_string text with
        | Error err -> Alcotest.failf "%s roundtrip: %s" name err
        | Ok [ m' ] ->
          Alcotest.(check int) "inputs" m.Model.num_inputs m'.Model.num_inputs;
          Alcotest.(check int) "latches" m.Model.num_latches m'.Model.num_latches;
          let rand = Random.State.make [| 31 |] in
          for _ = 1 to 40 do
            let depth = 1 + Random.State.int rand 8 in
            let inputs =
              Array.init depth (fun _ ->
                  Array.init m.Model.num_inputs (fun _ -> Random.State.bool rand))
            in
            let tr = { Trace.inputs } in
            if Sim.run m tr <> Sim.run m' tr then
              Alcotest.failf "%s: behaviour diverged after roundtrip" name;
            if Sim.check_trace m tr <> Sim.check_trace m' tr then
              Alcotest.failf "%s: bad diverged after roundtrip" name
          done
        | Ok l -> Alcotest.failf "%s roundtrip: %d models" name (List.length l)))
    [ "peterson"; "tcas12"; "coherence3"; "vending11"; "eijkring8" ]

let test_parse_errors () =
  List.iter
    (fun (text, what) ->
      match Btor2.parse_string text with
      | Ok _ -> Alcotest.failf "expected error: %s" what
      | Error _ -> ())
    [
      ("1 sort array 2 3", "array sort");
      ("1 sort bitvec 4\n2 frobnicate 1", "unknown op");
      ("1 sort bitvec 4\n2 input 1\n3 add 1 2 9", "forward reference");
      ("1 sort bitvec 4\n1 sort bitvec 5", "duplicate id");
    ]

let test_negated_refs () =
  (* -id means bitwise complement: bad = !(a == a) is never true. *)
  let text =
    {|
1 sort bitvec 4
2 sort bitvec 1
3 input 1
4 state 2
5 next 2 4 4
6 eq 2 3 3
7 bad -6
|}
  in
  match Btor2.parse_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok [ model ] -> (
    match Isr_core.Engine.run Isr_core.Engine.Kind model with
    | Isr_core.Verdict.Proved _, _ -> ()
    | v, _ -> Alcotest.failf "engine: %a" Isr_core.Verdict.pp v)
  | Ok _ -> Alcotest.fail "expected one model"

let () =
  Alcotest.run "isr_btor"
    [
      ( "operators",
        [
          Alcotest.test_case "arithmetic" `Slow test_arith;
          Alcotest.test_case "division" `Slow test_divrem;
          Alcotest.test_case "shifts" `Slow test_shifts;
          Alcotest.test_case "comparisons" `Slow test_comparisons;
          Alcotest.test_case "bitwise+concat" `Slow test_bitwise;
        ] );
      ( "models",
        [
          Alcotest.test_case "counter end-to-end" `Quick test_counter_end_to_end;
          Alcotest.test_case "constraints" `Quick test_constraints;
          Alcotest.test_case "uninit state" `Quick test_uninit_state;
          Alcotest.test_case "justice (liveness)" `Quick test_justice;
          Alcotest.test_case "writer roundtrip" `Quick test_writer_roundtrip;
          Alcotest.test_case "negated refs" `Quick test_negated_refs;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
    ]
