(* Tests for models, the builder, simulation, AIGER I/O, Tseitin encoding
   and the time-frame unroller. *)

open Isr_sat
open Isr_aig
open Isr_model

(* A [bits]-wide counter that flags bad when it reaches [target]. *)
let counter_model ?(bits = 4) ~target () =
  let b = Builder.create (Printf.sprintf "counter%d_%d" bits target) in
  let q = Builder.latches b bits in
  let q1 = Builder.vec_incr b q in
  Array.iteri (fun i l -> Builder.set_next b l q1.(i)) q;
  Builder.finish b ~bad:(Builder.vec_eq_const b q target)

(* A counter frozen by an enable input. *)
let gated_counter ?(bits = 3) ~target () =
  let b = Builder.create "gated" in
  let en = Builder.input b in
  let q = Builder.latches b bits in
  let q1 = Builder.vec_mux b en (Builder.vec_incr b q) q in
  Array.iteri (fun i l -> Builder.set_next b l q1.(i)) q;
  Builder.finish b ~bad:(Builder.vec_eq_const b q target)

let test_builder_counter () =
  let m = counter_model ~bits:3 ~target:5 () in
  Alcotest.(check int) "latches" 3 m.Model.num_latches;
  Alcotest.(check int) "inputs" 0 m.Model.num_inputs;
  (* Simulate 8 steps; bad must hold exactly at step 5. *)
  let state = ref (Model.init_state m) in
  for step = 0 to 7 do
    let bad = Sim.bad_now m ~state:!state ~inputs:[||] in
    Alcotest.(check bool) (Printf.sprintf "bad at %d" step) (step = 5) bad;
    state := Sim.step m ~state:!state ~inputs:[||]
  done

let test_builder_missing_next () =
  let b = Builder.create "broken" in
  let _q = Builder.latch b () in
  match Builder.finish b ~bad:Aig.lit_false with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_init_values () =
  let b = Builder.create "init" in
  let q0 = Builder.latch b ~init:true () in
  let q1 = Builder.latch b () in
  Builder.set_next b q0 q1;
  Builder.set_next b q1 q0;
  let m = Builder.finish b ~bad:(Aig.and_ (Builder.man b) q0 q1) in
  Alcotest.(check bool) "q0 starts true" true m.Model.init.(0);
  Alcotest.(check bool) "q1 starts false" false m.Model.init.(1);
  (* The two latches swap forever; bad (both true) never holds. *)
  let state = ref (Model.init_state m) in
  for _ = 0 to 5 do
    Alcotest.(check bool) "never both" false (Sim.bad_now m ~state:!state ~inputs:[||]);
    state := Sim.step m ~state:!state ~inputs:[||]
  done

let test_trace_check () =
  let m = gated_counter ~bits:3 ~target:2 () in
  (* Enable for two frames: counter reaches 2 at frame 2. *)
  let tr = { Trace.inputs = [| [| true |]; [| true |]; [| false |] |] } in
  Alcotest.(check bool) "trace reaches bad" true (Sim.check_trace m tr);
  Alcotest.(check (option int)) "first bad at 2" (Some 2) (Sim.first_bad m tr);
  let tr_bad = { Trace.inputs = [| [| true |]; [| false |]; [| false |] |] } in
  Alcotest.(check bool) "stalled trace misses bad" false (Sim.check_trace m tr_bad)

(* --- AIGER -------------------------------------------------------------- *)

let models_equal_by_sim m1 m2 =
  (* Differential simulation on random input sequences. *)
  let rand = Random.State.make [| 42 |] in
  let ok = ref true in
  for _ = 1 to 50 do
    let depth = 1 + Random.State.int rand 8 in
    let inputs =
      Array.init depth (fun _ ->
          Array.init m1.Model.num_inputs (fun _ -> Random.State.bool rand))
    in
    let tr = { Trace.inputs } in
    let s1 = Sim.run m1 tr and s2 = Sim.run m2 tr in
    if s1 <> s2 then ok := false;
    if Sim.check_trace m1 tr <> Sim.check_trace m2 tr then ok := false
  done;
  !ok

let test_aiger_roundtrip () =
  let m = gated_counter ~bits:4 ~target:11 () in
  let text = Aiger.to_string m in
  match Aiger.parse_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok m' ->
    Alcotest.(check int) "inputs" m.Model.num_inputs m'.Model.num_inputs;
    Alcotest.(check int) "latches" m.Model.num_latches m'.Model.num_latches;
    Alcotest.(check bool) "behaviour preserved" true (models_equal_by_sim m m')

let test_aiger_init_roundtrip () =
  let b = Builder.create "init_rt" in
  let q0 = Builder.latch b ~init:true () in
  Builder.set_next b q0 (Aig.not_ q0);
  let m = Builder.finish b ~bad:q0 in
  match Aiger.parse_string (Aiger.to_string m) with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok m' ->
    Alcotest.(check bool) "init preserved" true m'.Model.init.(0);
    Alcotest.(check bool) "behaviour" true (models_equal_by_sim m m')

let test_aiger_binary_roundtrip () =
  List.iter
    (fun m ->
      let bin = Aiger.to_binary_string m in
      Alcotest.(check bool) "binary header" true (String.sub bin 0 4 = "aig ");
      match Aiger.parse_string bin with
      | Error e -> Alcotest.failf "binary parse: %s" e
      | Ok m' ->
        Alcotest.(check int) "inputs" m.Model.num_inputs m'.Model.num_inputs;
        Alcotest.(check int) "latches" m.Model.num_latches m'.Model.num_latches;
        Alcotest.(check bool) "behaviour preserved" true (models_equal_by_sim m m'))
    [
      gated_counter ~bits:4 ~target:11 ();
      counter_model ~bits:5 ~target:17 ();
    ]

(* The check names the linter gives a file, sorted and without repeats. *)
let lint_checks text =
  Isr_check.Lint_aig.lint_netlist (Aiger.decode text)
  |> List.map (fun d -> d.Isr_check.Diag.check)
  |> List.sort_uniq compare

let test_aiger_ascii_binary_agree () =
  let m = gated_counter ~bits:4 ~target:9 () in
  (match (Aiger.parse_string (Aiger.to_string m), Aiger.parse_string (Aiger.to_binary_string m)) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "same behaviour via both encodings" true (models_equal_by_sim a b)
  | Error e, _ | _, Error e -> Alcotest.failf "parse: %s" e);
  (* One decoder: both encodings of every suite model lint alike. *)
  List.iter
    (fun e ->
      let m = Isr_suite.Registry.build_validated e in
      Alcotest.(check (list string))
        (e.Isr_suite.Registry.name ^ " lint checks")
        (lint_checks (Aiger.to_string m))
        (lint_checks (Aiger.to_binary_string m)))
    Isr_suite.Registry.fig6

(* The same defect seeded into both encodings of one model gets the same
   checks, the named one among them. *)
let test_aiger_binary_defects () =
  let m = gated_counter ~bits:3 ~target:5 () in
  let ascii = Aiger.to_string m and binary = Aiger.to_binary_string m in
  let ni = m.Model.num_inputs and nl = m.Model.num_latches in
  let lines text = String.split_on_char '\n' text in
  let map_line k f text =
    String.concat "\n" (List.mapi (fun j l -> if j = k then f l else l) (lines text))
  in
  let max_var = int_of_string (List.nth (String.split_on_char ' ' (List.hd (lines ascii))) 1) in
  let set_field k v line =
    String.concat " " (List.mapi (fun j f -> if j = k then v else f) (String.split_on_char ' ' line))
  in
  let comment = Printf.sprintf "c\nmodel %s\n" m.Model.name in
  let ands_end text = String.length text - String.length comment in
  List.iter
    (fun (what, check, seed_ascii, seed_binary) ->
      let a = lint_checks (seed_ascii ascii) and b = lint_checks (seed_binary binary) in
      Alcotest.(check bool) (what ^ ": ascii gets " ^ check) true (List.mem check a);
      Alcotest.(check (list string)) (what ^ ": binary as ascii") a b)
    [
      ( "latch reset 2", "aig.latch_init",
        map_line (ni + 1) (set_field 2 "2"),
        map_line 1 (set_field 1 "2") );
      ( "output past M", "aig.out_of_range",
        map_line (ni + nl + 1) (fun _ -> string_of_int (2 * (max_var + 1))),
        map_line (nl + 1) (fun _ -> string_of_int (2 * (max_var + 1))) );
      ( "AND section cut short", "aig.truncated",
        (fun t ->
          (* Everything from the last AND line on is gone. *)
          let keep = List.length (lines t) - 4 in
          String.concat "\n" (List.filteri (fun j _ -> j < keep) (lines t)) ^ "\n"),
        fun t -> String.sub t 0 (ands_end t - 1) );
      ( "M < I + L + A", "aig.header",
        map_line 0 (set_field 1 (string_of_int (max_var - 1))),
        map_line 0 (set_field 1 (string_of_int (max_var - 1))) );
    ]

(* Seeded mutants of one suite file in each encoding: flipped bytes,
   dropped lines, edited numbers and cut tails.  The decoder, the model
   builder and the linter return on every one of them, and they agree:
   the linter finds an error exactly when no model is built. *)
let test_aiger_mutants_never_raise () =
  let m = Isr_suite.Registry.build_validated (Option.get (Isr_suite.Registry.find "vending11")) in
  let rs = Random.State.make [| 24 |] in
  let mutate text =
    let len = String.length text in
    match if len = 0 then 4 else Random.State.int rs 4 with
    | 4 -> text
    | 0 ->
      let b = Bytes.of_string text in
      Bytes.set b (Random.State.int rs len) (Char.chr (Random.State.int rs 256));
      Bytes.to_string b
    | 1 ->
      let ls = String.split_on_char '\n' text in
      let k = Random.State.int rs (List.length ls) in
      String.concat "\n" (List.filteri (fun j _ -> j <> k) ls)
    | 2 ->
      (* Replace one space-separated number of the text lines. *)
      let ls = Array.of_list (String.split_on_char '\n' text) in
      let k = Random.State.int rs (Array.length ls) in
      let fs = Array.of_list (String.split_on_char ' ' ls.(k)) in
      let j = Random.State.int rs (Array.length fs) in
      fs.(j) <-
        List.nth
          [ "-1"; "0"; "1"; "2"; string_of_int max_int; "42525637027882"; "x" ]
          (Random.State.int rs 7);
      ls.(k) <- String.concat " " (Array.to_list fs);
      String.concat "\n" (Array.to_list ls)
    | _ -> String.sub text 0 (Random.State.int rs len)
  in
  List.iter
    (fun text ->
      for _ = 1 to 300 do
        let t = mutate (mutate text) in
        match
          let n = Aiger.decode t in
          (Aiger.models n, Isr_check.Diag.has_errors (Isr_check.Lint_aig.lint_netlist n))
        with
        | Ok _, false | Error _, true -> ()
        | Ok _, true -> Alcotest.failf "%S: lint finds an error, the model builds" t
        | Error e, false -> Alcotest.failf "%S: lint is clean, the model does not build: %s" t e
        | exception e -> Alcotest.failf "%S raised %s" t (Printexc.to_string e)
      done)
    [ Aiger.to_string m; Aiger.to_binary_string m ]

let test_aiger_errors () =
  let cases =
    [
      "";
      "aig 1 0 0 0 0";
      "aag x";
      "aag 1 1 0 1 0\n2";
      "aag 2 1 0 1 1\n2\n6\n4 2 6";
      (* and uses lit 6 > max var *)
    ]
  in
  List.iter
    (fun text ->
      match Aiger.parse_string text with
      | Ok _ -> Alcotest.failf "expected error for %S" text
      | Error _ -> ())
    cases

(* Hostile headers and literals, in both encodings: each must come back
   as an [Error] at once — no exception, no allocation sized by a count
   the file does not hold. *)
let hostile_aiger =
  [
    "aag 3 1 1 1 1\n2\n4 6\n6\n6 2 -5\n";
    "aag 42525637027882 1 0 1 0\n";
    "aag 3 1 0 1 42525637027882\n2\n2\n";
    "aag -4 1 0 1 0\n2\n2\n";
    "aig 3 1 1 1 1\n-5\n6\n\x02\x02";
    "aig 3 1 1 1 1\n6\n6\n\x04\x07";
    "aig 42525637027882 1 0 1 0\n2\n";
    "aig 42525637027882 42525637027882 0 1 0\n2\n";
    "aig 42525637027883 1 0 1 42525637027882\n2\n";
  ]

let test_aiger_hostile () =
  List.iter
    (fun text ->
      match Aiger.parse_string text with
      | Ok _ -> Alcotest.failf "expected an error for %S" text
      | Error _ -> ()
      | exception e -> Alcotest.failf "%S raised %s" text (Printexc.to_string e))
    hostile_aiger;
  (* M bounds the variable indices, not their number: a huge M over one
     input is a legal file. *)
  match Aiger.parse_string "aag 42525637027882 1 0 1 0\n2\n2\n" with
  | Ok m -> Alcotest.(check int) "inputs" 1 m.Model.num_inputs
  | Error e -> Alcotest.failf "huge M: %s" e

(* ASCII AND lines may come in any order: a gate listed before its fanin
   builds the same model as the sorted file, while a real cycle is an
   error that names it, as the linter does.  A binary AND whose first
   delta is 0 reads itself, which the format forbids. *)
let test_aiger_and_order () =
  let sorted = "aag 4 1 1 1 2\n2\n4 8\n8\n6 4 2\n8 6 3\n" in
  let swapped = "aag 4 1 1 1 2\n2\n4 8\n8\n8 6 3\n6 4 2\n" in
  (match (Aiger.parse_string sorted, Aiger.parse_string swapped) with
  | Ok a, Ok b ->
    Alcotest.(check string) "swapped builds the sorted model" (Aiger.to_string a) (Aiger.to_string b)
  | Error e, _ | _, Error e -> Alcotest.failf "parse: %s" e);
  Alcotest.(check (list string)) "swapped lints clean" [] (lint_checks swapped);
  (* On a suite file: each AND line swapped with the next, and the last
     one moved to the front, build a model that behaves as the sorted
     file's (gates that do not depend on each other may be numbered in
     another order). *)
  let m = gated_counter ~bits:4 ~target:9 () in
  let text = Aiger.to_string m in
  let reference = Result.get_ok (Aiger.parse_string text) in
  let ls = Array.of_list (String.split_on_char '\n' text) in
  let first_and = 1 + m.Model.num_inputs + m.Model.num_latches + 1 in
  let last = first_and + Model.num_ands m - 1 in
  let reordered f = String.concat "\n" (Array.to_list (f (Array.copy ls))) in
  for j = first_and to last - 1 do
    let swapped =
      reordered (fun a ->
          let x = a.(j) in
          a.(j) <- a.(j + 1);
          a.(j + 1) <- x;
          a)
    in
    match Aiger.parse_string swapped with
    | Ok m' ->
      Alcotest.(check bool) (Printf.sprintf "lines %d, %d swapped" j (j + 1)) true
        (models_equal_by_sim reference m')
    | Error e -> Alcotest.failf "lines %d, %d swapped: %s" j (j + 1) e
  done;
  let moved =
    reordered (fun a ->
        Array.concat
          [ Array.sub a 0 first_and; [| a.(last) |]; Array.sub a first_and (last - first_and);
            Array.sub a (last + 1) (Array.length a - last - 1) ])
  in
  (match Aiger.parse_string moved with
  | Ok m' -> Alcotest.(check bool) "last gate first" true (models_equal_by_sim reference m')
  | Error e -> Alcotest.failf "last gate first: %s" e);
  let cyclic = "aag 3 1 0 1 2\n2\n6\n4 6 2\n6 4 2\n" in
  (match Aiger.parse_string cyclic with
  | Ok _ -> Alcotest.fail "a cycle builds"
  | Error e ->
    Alcotest.(check string) "cycle named" "combinational cycle through and gate 2" e);
  Alcotest.(check (list string)) "cycle lints" [ "aig.cycle" ] (lint_checks cyclic);
  let self = "aig 1 0 0 1 1\n2\n\000\000" in
  (match Aiger.parse_string self with
  | Ok _ -> Alcotest.fail "zero delta builds"
  | Error e ->
    Alcotest.(check string) "zero delta named" "combinational cycle through and gate 1" e);
  Alcotest.(check int) "one aig.cycle" 1
    (List.length (Isr_check.Lint_aig.lint_netlist (Aiger.decode self)))

let test_aiger_minimal () =
  (* Hand-written file: 1 input, 1 latch toggling, bad = latch & input. *)
  let text = "aag 3 1 1 1 1\n2\n4 5 0\n6\n6 4 2\n" in
  match Aiger.parse_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok m ->
    Alcotest.(check int) "inputs" 1 m.Model.num_inputs;
    Alcotest.(check int) "latches" 1 m.Model.num_latches;
    (* latch starts 0, next = !latch; bad = latch & input *)
    let tr = { Trace.inputs = [| [| true |]; [| true |] |] } in
    Alcotest.(check bool) "bad at frame 1" true (Sim.check_trace m tr)

(* --- Tseitin ------------------------------------------------------------ *)

let test_tseitin_equisat () =
  (* For a sample of small circuits: SAT result matches brute force. *)
  let m = Aig.create () in
  let a = Aig.fresh_input m and b = Aig.fresh_input m and c = Aig.fresh_input m in
  let circuits =
    [
      Aig.and_ m a (Aig.not_ a);
      Aig.big_and m [ a; b; c ];
      Aig.xor_ m (Aig.xor_ m a b) c;
      Aig.and_ m (Aig.or_ m a b) (Aig.and_ m (Aig.not_ a) (Aig.not_ b));
      Aig.lit_true;
      Aig.lit_false;
    ]
  in
  List.iter
    (fun circuit ->
      let solver = Solver.create () in
      let in_vars = Array.init 3 (fun _ -> Lit.pos (Solver.new_var solver)) in
      let ctx =
        Isr_cnf.Tseitin.create ~man:m ~solver ~tag:1 ~input_lit:(fun i -> in_vars.(i))
      in
      Isr_cnf.Tseitin.assert_lit ctx circuit;
      let expect =
        let rec any mask =
          mask < 8 && (Aig.eval m (fun i -> (mask lsr i) land 1 = 1) circuit || any (mask + 1))
        in
        any 0
      in
      let got = Solver.solve solver = Solver.Sat in
      Alcotest.(check bool) "equisatisfiable" expect got)
    circuits

let test_aiger_multi_output () =
  (* Two outputs: latch0 (depth 2 with enable) and constant false. *)
  let m = gated_counter ~bits:3 ~target:2 () in
  (* Hand-build a two-output file from the single-output rendering: add a
     second output line referencing constant false (literal 0). *)
  let text = Aiger.to_string m in
  let lines = String.split_on_char '\n' text in
  let header, rest =
    match lines with h :: r -> (h, r) | [] -> Alcotest.fail "empty render"
  in
  let header' =
    match String.split_on_char ' ' header with
    | [ "aag"; m'; i; l; _o; a ] -> String.concat " " [ "aag"; m'; i; l; "2"; a ]
    | _ -> Alcotest.fail "unexpected header"
  in
  (* Insert the extra output line right after the existing output. *)
  let num_i = m.Model.num_inputs and num_l = m.Model.num_latches in
  let before, after =
    let rec split n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | x :: rest -> split (n - 1) (x :: acc) rest
      | [] -> (List.rev acc, [])
    in
    split (num_i + num_l + 1) [] rest
  in
  let text2 = String.concat "\n" ((header' :: before) @ ("0" :: after)) in
  match Aiger.parse_string_multi text2 with
  | Error e -> Alcotest.failf "multi parse: %s" e
  | Ok models ->
    Alcotest.(check int) "two models" 2 (List.length models);
    let m0 = List.nth models 0 and m1 = List.nth models 1 in
    Alcotest.(check bool) "p0 behaves like original" true (models_equal_by_sim m m0);
    (* p1's bad is constant false: no trace can reach it. *)
    let tr = { Trace.inputs = [| [| true |]; [| true |]; [| true |] |] } in
    Alcotest.(check bool) "p1 never bad" false (Sim.check_trace m1 tr)

let test_witness_roundtrip () =
  let m = gated_counter ~bits:3 ~target:2 () in
  let tr = { Trace.inputs = [| [| true |]; [| true |]; [| false |] |] } in
  Alcotest.(check bool) "trace valid" true (Sim.check_trace m tr);
  let text = Aiger.witness_to_string m tr in
  (match Aiger.witness_of_string m text with
  | Error e -> Alcotest.failf "witness parse: %s" e
  | Ok tr' ->
    Alcotest.(check bool) "roundtrip equal" true (tr = tr');
    Alcotest.(check bool) "still replays" true (Sim.check_trace m tr'));
  (* Malformed witnesses are rejected. *)
  List.iter
    (fun bad ->
      match Aiger.witness_of_string m bad with
      | Ok _ -> Alcotest.failf "expected error for %S" bad
      | Error _ -> ())
    [ ""; "0\nb0\n000\n.\n"; "1\nb0\n00\n.\n"; "1\nb0\n000\n11\n.\n" ]

(* --- cone of influence ------------------------------------------------------ *)

let test_coi_drops_irrelevant () =
  (* A relevant 3-bit counter plus 5 disconnected junk latches. *)
  let b = Builder.create "junky" in
  let junk_in = Builder.input b in
  let q = Builder.latches b 3 in
  let junk = Builder.latches b 5 in
  let q1 = Builder.vec_incr b q in
  Array.iteri (fun i l -> Builder.set_next b l q1.(i)) q;
  Array.iteri
    (fun i l ->
      Builder.set_next b l
        (Isr_aig.Aig.xor_ (Builder.man b) junk_in junk.((i + 1) mod 5)))
    junk;
  let m = Builder.finish b ~bad:(Builder.vec_eq_const b q 5) in
  let r = Coi.reduce m in
  Alcotest.(check int) "kept latches" 3 r.Coi.model.Model.num_latches;
  Alcotest.(check int) "kept inputs" 0 r.Coi.model.Model.num_inputs;
  (* Reachability is preserved: both fail at depth 5. *)
  let rec first_bad model state step =
    if step > 10 then None
    else if Sim.bad_now model ~state ~inputs:(Array.make model.Model.num_inputs false)
    then Some step
    else
      first_bad model
        (Sim.step model ~state ~inputs:(Array.make model.Model.num_inputs false))
        (step + 1)
  in
  Alcotest.(check (option int)) "original depth" (Some 5)
    (first_bad m (Model.init_state m) 0);
  Alcotest.(check (option int)) "reduced depth" (Some 5)
    (first_bad r.Coi.model (Model.init_state r.Coi.model) 0)

let test_coi_keeps_everything_when_needed () =
  let m = gated_counter ~bits:3 ~target:5 () in
  let r = Coi.reduce m in
  Alcotest.(check int) "latches kept" m.Model.num_latches r.Coi.model.Model.num_latches;
  Alcotest.(check int) "inputs kept" m.Model.num_inputs r.Coi.model.Model.num_inputs

let test_coi_lift_trace () =
  (* Reduced-model counterexamples replay on the original model. *)
  let b = Builder.create "liftable" in
  let junk_in = Builder.input b in
  let en = Builder.input b in
  let q = Builder.latches b 3 in
  let junk = Builder.latch b () in
  Builder.set_next b junk junk_in;
  let q1 = Builder.vec_mux b en (Builder.vec_incr b q) q in
  Array.iteri (fun i l -> Builder.set_next b l q1.(i)) q;
  let m = Builder.finish b ~bad:(Builder.vec_eq_const b q 3) in
  let r = Coi.reduce m in
  Alcotest.(check int) "one input kept" 1 r.Coi.model.Model.num_inputs;
  (* Drive the reduced model to the bug, lift, replay on the original. *)
  let tr_red = { Trace.inputs = Array.make 4 [| true |] } in
  Alcotest.(check bool) "reduced trace hits" true (Sim.first_bad r.Coi.model tr_red = Some 3);
  let lifted = Coi.lift_trace r tr_red in
  Alcotest.(check bool) "lifted trace hits" true (Sim.first_bad m lifted = Some 3)

(* --- random simulation ---------------------------------------------------- *)

let test_randsim_finds_inputfree_bug () =
  (* No inputs: every lane runs the same execution, so the bug at depth 6
     is found deterministically. *)
  let m = counter_model ~bits:4 ~target:6 () in
  match Rand_sim.falsify m with
  | None -> Alcotest.fail "expected a counterexample"
  | Some tr ->
    Alcotest.(check bool) "replays" true (Sim.check_trace m tr);
    Alcotest.(check int) "depth" 6 (Trace.depth tr)

let test_randsim_finds_robust_bug () =
  (* Bad = latch that copies the input: hit with probability 1 - 2^-64
     per frame. *)
  let b = Builder.create "copy" in
  let x = Builder.input b in
  let q = Builder.latch b () in
  Builder.set_next b q x;
  let m = Builder.finish b ~bad:q in
  match Rand_sim.falsify m with
  | None -> Alcotest.fail "expected a counterexample"
  | Some tr -> Alcotest.(check bool) "replays" true (Sim.check_trace m tr)

let test_randsim_none_on_safe () =
  let b = Builder.create "safe" in
  let q = Builder.latch b () in
  Builder.set_next b q q;
  let m = Builder.finish b ~bad:q in
  (* q stays 0 forever. *)
  Alcotest.(check bool) "no cex" true (Rand_sim.falsify m = None)

(* --- Unroll: hand-rolled BMC -------------------------------------------- *)

(* Exact-k BMC on a model: is bad reachable in exactly k steps? *)
let bmc_exact model k =
  let u = Unroll.create ~proof:false model in
  Unroll.assert_init u ~tag:1;
  for f = 1 to k do
    ignore f;
    Unroll.add_transition u ~tag:(Unroll.nframes u)
  done;
  Unroll.assert_circuit u ~frame:k ~tag:(k + 1) model.Model.bad;
  match Solver.solve (Unroll.solver u) with
  | Solver.Sat -> Some (Unroll.trace u)
  | Solver.Unsat -> None
  | Solver.Undef -> assert false

let test_unroll_counter () =
  let m = counter_model ~bits:4 ~target:6 () in
  for k = 0 to 8 do
    match bmc_exact m k with
    | Some tr ->
      Alcotest.(check bool) (Printf.sprintf "depth %d reaches bad iff k=6" k) true (k = 6);
      Alcotest.(check bool) "trace validates" true (Sim.check_trace m tr)
    | None -> Alcotest.(check bool) (Printf.sprintf "unsat at %d" k) true (k <> 6)
  done

let test_unroll_gated () =
  let m = gated_counter ~bits:3 ~target:3 () in
  (* target 3 needs three enabled steps: reachable at exactly k >= 3. *)
  (match bmc_exact m 2 with
  | None -> ()
  | Some _ -> Alcotest.fail "depth 2 should be unsat");
  match bmc_exact m 3 with
  | None -> Alcotest.fail "depth 3 should be sat"
  | Some tr ->
    Alcotest.(check bool) "returned trace is a real counterexample" true
      (Sim.check_trace m tr)

let test_unroll_state_values () =
  let m = counter_model ~bits:3 ~target:2 () in
  match
    let u = Unroll.create ~proof:false m in
    Unroll.assert_init u ~tag:1;
    Unroll.add_transition u ~tag:2;
    Unroll.add_transition u ~tag:3;
    Unroll.assert_circuit u ~frame:2 ~tag:4 m.Model.bad;
    (u, Solver.solve (Unroll.solver u))
  with
  | u, Solver.Sat ->
    Alcotest.(check (array bool)) "frame0 = init" (Model.init_state m)
      (Unroll.state_values u ~frame:0);
    Alcotest.(check (array bool)) "frame2 = 2" [| false; true; false |]
      (Unroll.state_values u ~frame:2)
  | _ -> Alcotest.fail "expected sat"

(* Frame and index bounds: out-of-range accesses must fail loudly (and
   name the offending accessor), never read a stale or foreign frame. *)
let test_unroll_bounds () =
  let m = gated_counter ~bits:3 ~target:3 () in
  let u = Unroll.create ~proof:false m in
  Unroll.assert_init u ~tag:1;
  Unroll.add_transition u ~tag:2;
  Alcotest.(check int) "two frames allocated" 2 (Unroll.nframes u);
  (* In-range accesses succeed, including the last frame. *)
  ignore (Unroll.state_lit u ~frame:1 2);
  ignore (Unroll.pi_lit u ~frame:1 0);
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  (match Unroll.state_lit u ~frame:2 0 with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "state_lit names itself" "Unroll.state_lit: no such frame" msg
  | _ -> Alcotest.fail "state_lit past the last frame: expected Invalid_argument");
  (match Unroll.pi_lit u ~frame:2 0 with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "pi_lit goes through pi_frame" "Unroll.pi_frame: no such frame"
      msg
  | _ -> Alcotest.fail "pi_lit past the last frame: expected Invalid_argument");
  expect_invalid "state_lit negative frame" (fun () -> Unroll.state_lit u ~frame:(-1) 0);
  expect_invalid "pi_lit negative frame" (fun () -> Unroll.pi_lit u ~frame:(-1) 0);
  expect_invalid "state_lit latch out of range" (fun () -> Unroll.state_lit u ~frame:0 3);
  expect_invalid "pi_lit input out of range" (fun () -> Unroll.pi_lit u ~frame:0 1)

let () =
  Alcotest.run "isr_model"
    [
      ( "builder+sim",
        [
          Alcotest.test_case "counter" `Quick test_builder_counter;
          Alcotest.test_case "missing next" `Quick test_builder_missing_next;
          Alcotest.test_case "init values" `Quick test_init_values;
          Alcotest.test_case "trace check" `Quick test_trace_check;
        ] );
      ( "aiger",
        [
          Alcotest.test_case "roundtrip" `Quick test_aiger_roundtrip;
          Alcotest.test_case "binary roundtrip" `Quick test_aiger_binary_roundtrip;
          Alcotest.test_case "ascii/binary agree" `Quick test_aiger_ascii_binary_agree;
          Alcotest.test_case "binary defects lint as ascii" `Quick test_aiger_binary_defects;
          Alcotest.test_case "mutants never raise" `Quick test_aiger_mutants_never_raise;
          Alcotest.test_case "init roundtrip" `Quick test_aiger_init_roundtrip;
          Alcotest.test_case "errors" `Quick test_aiger_errors;
          Alcotest.test_case "minimal file" `Quick test_aiger_minimal;
          Alcotest.test_case "and order" `Quick test_aiger_and_order;
          Alcotest.test_case "hostile headers and literals" `Quick test_aiger_hostile;
          Alcotest.test_case "multi output" `Quick test_aiger_multi_output;
          Alcotest.test_case "witness roundtrip" `Quick test_witness_roundtrip;
        ] );
      ("tseitin", [ Alcotest.test_case "equisat" `Quick test_tseitin_equisat ]);
      ( "coi",
        [
          Alcotest.test_case "drops irrelevant" `Quick test_coi_drops_irrelevant;
          Alcotest.test_case "keeps needed" `Quick test_coi_keeps_everything_when_needed;
          Alcotest.test_case "lift trace" `Quick test_coi_lift_trace;
        ] );
      ( "rand_sim",
        [
          Alcotest.test_case "input-free bug" `Quick test_randsim_finds_inputfree_bug;
          Alcotest.test_case "robust bug" `Quick test_randsim_finds_robust_bug;
          Alcotest.test_case "safe model" `Quick test_randsim_none_on_safe;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "counter bmc" `Quick test_unroll_counter;
          Alcotest.test_case "gated bmc" `Quick test_unroll_gated;
          Alcotest.test_case "state values" `Quick test_unroll_state_values;
          Alcotest.test_case "frame and index bounds" `Quick test_unroll_bounds;
        ] );
    ]
