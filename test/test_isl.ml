(* Tests for the ISL netlist language: golden circuits match their
   Builder-built twins by simulation, properties verify end-to-end, and
   malformed programs get precise line-numbered errors. *)

open Isr_model
open Isr_isl

let parse_one text =
  match Isl.parse_string text with
  | Ok [ m ] -> m
  | Ok l -> Alcotest.failf "expected one model, got %d" (List.length l)
  | Error e -> Alcotest.failf "parse: %s" e

let vending_isl =
  {|
// 4-bit vending machine
input coin;
input vend_req;
reg credit[4] = 0;

wire below    = credit < 7;
wire at_price = credit == 7;
wire vend     = vend_req & at_price;
wire accept   = coin & below;

next credit = vend ? 0 : (accept ? credit + 1 : credit);

bad credit == 8;
|}

let test_vending_matches_builder () =
  let isl = parse_one vending_isl in
  let builder = Isr_suite.Circuits.vending ~price:7 ~buggy:false in
  Alcotest.(check int) "inputs" builder.Model.num_inputs isl.Model.num_inputs;
  Alcotest.(check int) "latches" builder.Model.num_latches isl.Model.num_latches;
  let rand = Random.State.make [| 5 |] in
  for _ = 1 to 100 do
    let depth = 1 + Random.State.int rand 12 in
    let inputs =
      Array.init depth (fun _ -> Array.init 2 (fun _ -> Random.State.bool rand))
    in
    let tr = { Trace.inputs } in
    if Sim.run builder tr <> Sim.run isl tr then Alcotest.fail "state divergence";
    if Sim.check_trace builder tr <> Sim.check_trace isl tr then Alcotest.fail "bad divergence"
  done

let test_engine_on_isl () =
  (* The buggy variant (no guard) written directly in ISL. *)
  let text =
    {|
input coin;
input vend_req;
reg credit[4] = 0;
wire vend = vend_req & (credit == 7);
next credit = vend ? 0 : (coin ? credit + 1 : credit);
bad credit == 8;
|}
  in
  let m = parse_one text in
  match Isr_core.Engine.run (Isr_core.Engine.Itpseq Isr_core.Bmc.Assume) m with
  | Isr_core.Verdict.Falsified { depth; trace }, _ ->
    Alcotest.(check int) "depth" 8 depth;
    Alcotest.(check bool) "replays" true (Sim.check_trace m trace)
  | v, _ -> Alcotest.failf "engine: %a" Isr_core.Verdict.pp v

let test_operators_and_slices () =
  (* Concat/slice/select identities: bad is structurally false only if
     the semantics are right — prove with k-induction. *)
  let text =
    {|
input x[8];
reg dummy = 0;
next dummy = dummy;
wire lo = x[3:0];
wire hi = x[7:4];
wire back = {hi, lo};
wire third = x[2];
bad back != x;
bad third ^ x[2];
|}
  in
  match Isl.parse_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok models ->
    Alcotest.(check int) "two properties" 2 (List.length models);
    List.iter
      (fun m ->
        match Isr_core.Engine.run Isr_core.Engine.Kind m with
        | Isr_core.Verdict.Proved _, _ -> ()
        | v, _ -> Alcotest.failf "%s: %a" m.Model.name Isr_core.Verdict.pp v)
      models

let test_arith_semantics () =
  (* Exhaustive 5-bit check of the DSL arithmetic against OCaml. *)
  let text =
    {|
input a[5];
input b[5];
reg dummy = 0;
next dummy = dummy;
wire sum = a + b;
wire prod = a * b;
wire quot = a / b;
wire shifted = a << b;
bad sum[4];
bad prod[0];
bad quot[1];
bad shifted[3];
|}
  in
  match Isl.parse_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok models ->
    let models = Array.of_list models in
    for a = 0 to 31 do
      for b = 0 to 31 do
        let inputs =
          Array.init 10 (fun i -> if i < 5 then (a lsr i) land 1 = 1 else (b lsr (i - 5)) land 1 = 1)
        in
        let bit m = Sim.bad_now m ~state:[| false |] ~inputs in
        let expect_sum = ((a + b) lsr 4) land 1 = 1 in
        let expect_prod = a * b land 1 = 1 in
        let expect_quot = (if b = 0 then 31 else a / b) lsr 1 land 1 = 1 in
        let expect_shift = (if b >= 5 then 0 else (a lsl b) land 31) lsr 3 land 1 = 1 in
        if bit models.(0) <> expect_sum then Alcotest.failf "sum %d %d" a b;
        if bit models.(1) <> expect_prod then Alcotest.failf "prod %d %d" a b;
        if bit models.(2) <> expect_quot then Alcotest.failf "quot %d %d" a b;
        if bit models.(3) <> expect_shift then Alcotest.failf "shift %d %d" a b
      done
    done

let test_assume () =
  let text =
    {|
input push;
reg c[3] = 0;
next c = push ? c + 1 : c;
assume push == 1;
bad c == 3;
|}
  in
  let m = parse_one text in
  match Isr_core.Bmc.run ~check:Isr_core.Bmc.Exact m with
  | Isr_core.Verdict.Falsified { depth; _ }, _ -> Alcotest.(check int) "forced" 3 depth
  | v, _ -> Alcotest.failf "assume: %a" Isr_core.Verdict.pp v

let test_justice () =
  (* The wrap-around counter visits zero infinitely often. *)
  let text =
    {|
reg c[2] = 0;
next c = c + 1;
justice c == 0;
|}
  in
  let m = parse_one text in
  match Isr_core.Bmc.run ~check:Isr_core.Bmc.Exact m with
  | Isr_core.Verdict.Falsified _, _ -> ()
  | v, _ -> Alcotest.failf "justice: %a" Isr_core.Verdict.pp v

(* Temporal asserts: request/acknowledge latency. *)
let handshake_isl latency good =
  Printf.sprintf
    {|
input req;
reg pending = 0;
reg t0 = 0;
reg t1 = 0;
reg ack = 0;

// ack exactly %d cycles after a request is registered
next pending = req & !pending & !t0 & !t1 & !ack;
next t0 = pending;
next t1 = t0;
next ack = %s;

assert always req -> within[%d] ack;
|}
    (if good then 3 else 4) (if good then "t1" else "0") latency

let test_assert_within () =
  (* Ack comes 4 cycles after req (pending, t0, t1, ack): within[4] holds. *)
  let m = parse_one (handshake_isl 4 true) in
  (match Isr_core.Engine.run Isr_core.Engine.Pdr m with
  | Isr_core.Verdict.Proved _, _ -> ()
  | v, _ -> Alcotest.failf "within[4] should hold: %a" Isr_core.Verdict.pp v);
  (* With a latency budget of 3 it must fail... *)
  let m2 = parse_one (handshake_isl 3 true) in
  (match Isr_core.Bmc.run ~check:Isr_core.Bmc.Exact m2 with
  | Isr_core.Verdict.Falsified { trace; _ }, _ ->
    Alcotest.(check bool) "replays" true (Sim.check_trace m2 trace)
  | v, _ -> Alcotest.failf "within[3] should fail: %a" Isr_core.Verdict.pp v);
  (* ...and with a broken responder even within[4] fails. *)
  let m3 = parse_one (handshake_isl 4 false) in
  match Isr_core.Bmc.run ~check:Isr_core.Bmc.Exact m3 with
  | Isr_core.Verdict.Falsified _, _ -> ()
  | v, _ -> Alcotest.failf "broken responder should fail: %a" Isr_core.Verdict.pp v

let test_assert_next () =
  (* grant one cycle after a request, checked with the next operator. *)
  let text =
    {|
input req;
reg grant = 0;
next grant = req;
assert always req -> next grant;
|}
  in
  let m = parse_one text in
  (match Isr_core.Engine.run Isr_core.Engine.Kind m with
  | Isr_core.Verdict.Proved _, _ -> ()
  | v, _ -> Alcotest.failf "next grant should hold: %a" Isr_core.Verdict.pp v);
  let broken =
    {|
input req;
reg grant = 0;
next grant = 0;
assert always req -> next grant;
|}
  in
  let m2 = parse_one broken in
  match Isr_core.Bmc.run ~check:Isr_core.Bmc.Exact m2 with
  | Isr_core.Verdict.Falsified { depth; _ }, _ -> Alcotest.(check int) "depth" 1 depth
  | v, _ -> Alcotest.failf "broken grant: %a" Isr_core.Verdict.pp v

let test_assert_until () =
  (* A bus request keeps the busy flag high until the done pulse, which
     the device produces two cycles later. *)
  let text =
    {|
input start;
reg busy = 0;
reg s0 = 0;
reg fin = 0;
wire go = start & !busy & !s0 & !fin;
next busy = go | (busy & !fin);
next s0 = go;
next fin = s0;
assert always go -> next (busy until[2] fin);
|}
  in
  let m = parse_one text in
  (match Isr_core.Engine.run Isr_core.Engine.Pdr m with
  | Isr_core.Verdict.Proved _, _ -> ()
  | v, _ -> Alcotest.failf "until should hold: %a" Isr_core.Verdict.pp v);
  (* Shrinking the window below the real latency breaks it. *)
  let broken =
    {|
input start;
reg busy = 0;
reg s0 = 0;
reg fin = 0;
wire go = start & !busy & !s0 & !fin;
next busy = go | (busy & !fin);
next s0 = go;
next fin = s0;
assert always go -> next (busy until[0] fin);
|}
  in
  let m2 = parse_one broken in
  match Isr_core.Bmc.run ~check:Isr_core.Bmc.Exact m2 with
  | Isr_core.Verdict.Falsified _, _ -> ()
  | v, _ -> Alcotest.failf "until[0] should fail: %a" Isr_core.Verdict.pp v

let test_errors () =
  let cases =
    [
      ("wire x = y;", "unknown name", "line 1");
      ("input x;\ninput x;", "duplicate", "line 2");
      ("reg r[3] = 0;", "no next", "line 1");
      ("input a[3];\ninput b[4];\nreg d=0;\nnext d=d;\nbad a == b;", "width mismatch", "line 5");
      ("reg r[2] = 9;\nnext r = r;", "reset too wide", "line 1");
      ("input a[4];\nreg d=0;\nnext d=d;\nbad a[9];", "bit range", "line 4");
      ("input a;\nnext a = a;", "next on input", "line 2");
      ("bad 2;", "literal too wide for bad", "line 1");
      ("wire = 3;", "missing name", "line 1");
    ]
  in
  List.iter
    (fun (text, what, where) ->
      match Isl.parse_string text with
      | Ok _ -> Alcotest.failf "expected error (%s)" what
      | Error e ->
        if not (String.length e >= String.length where && String.sub e 0 (String.length where) = where)
        then Alcotest.failf "%s: expected %S prefix, got %S" what where e)
    cases

let () =
  Alcotest.run "isr_isl"
    [
      ( "isl",
        [
          Alcotest.test_case "vending twin" `Quick test_vending_matches_builder;
          Alcotest.test_case "engine end-to-end" `Quick test_engine_on_isl;
          Alcotest.test_case "slices and concat" `Quick test_operators_and_slices;
          Alcotest.test_case "arithmetic semantics" `Slow test_arith_semantics;
          Alcotest.test_case "assume" `Quick test_assume;
          Alcotest.test_case "justice" `Quick test_justice;
          Alcotest.test_case "assert within" `Quick test_assert_within;
          Alcotest.test_case "assert next" `Quick test_assert_next;
          Alcotest.test_case "assert until" `Quick test_assert_until;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
    ]
