(* Tests for the certified static analyzer: ternary simulation agrees
   with concrete simulation on X-free inputs and is monotone under
   X-refinement; pipeline verdicts match exhaustive reachability on
   small random circuits; and counterexamples lifted through any pass
   composition replay on the original model. *)

open Isr_aig
open Isr_model
module A = Isr_analyze
module Ternary = Isr_analyze.Ternary
module Level = Isr_check_core.Level

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

let print_circuit (_ : expr list * expr * bool list) = "<circuit>"

let build (nexts, bad, inits) =
  let b = Builder.create "random" in
  let ins = Builder.inputs b ni in
  let ls =
    Array.of_list (List.map (fun init -> Builder.latch b ~init ()) inits)
  in
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

(* Exhaustive reachability on the explicit state graph: is some
   reachable state bad under some input assignment? *)
let explicit_unsafe m =
  let bools_of mask width = Array.init width (fun i -> (mask lsr i) land 1 = 1) in
  let visited = Array.make (1 lsl nl) false in
  let mask_of state =
    Array.to_list state
    |> List.mapi (fun i b -> if b then 1 lsl i else 0)
    |> List.fold_left ( + ) 0
  in
  let rec explore frontier =
    match frontier with
    | [] -> false
    | state :: rest ->
      let sm = mask_of state in
      if visited.(sm) then explore rest
      else begin
        visited.(sm) <- true;
        let bad_here = ref false in
        let succs = ref rest in
        for im = 0 to (1 lsl ni) - 1 do
          let inputs = bools_of im ni in
          if Sim.bad_now m ~state ~inputs then bad_here := true;
          succs := Sim.step m ~state ~inputs :: !succs
        done;
        !bad_here || explore !succs
      end
  in
  explore [ Model.init_state m ]

let with_level level f =
  let prev = Level.get () in
  Level.set level;
  Fun.protect ~finally:(fun () -> Level.set prev) f

(* --- ternary simulator ------------------------------------------------- *)

(* On X-free environments the ternary simulator is exact: it agrees with
   concrete Sim and with lane 0 of the 64-bit kernel. *)
let ternary_concrete_agreement =
  QCheck2.Test.make ~count:300 ~name:"ternary = concrete Sim/Rand_sim on X-free inputs"
    ~print:print_circuit
    gen_circuit
    (fun circuit ->
      let m = build circuit in
      let state = Model.init_state m in
      let inputs = [| true; false |] in
      let tstate = Array.map Ternary.of_bool state in
      let tinputs = Array.map Ternary.of_bool inputs in
      let broadcast b = if b then -1L else 0L in
      let fr =
        Rand_sim.frame64 m ~state:(Array.map broadcast state)
          ~input:(fun i -> broadcast inputs.(i))
      in
      let lane0 w = Int64.logand w 1L = 1L in
      let ok_bad =
        Ternary.bad_now m ~state:tstate ~inputs:tinputs
        = Ternary.of_bool (Sim.bad_now m ~state ~inputs)
        && lane0 fr.Rand_sim.bad = Sim.bad_now m ~state ~inputs
      in
      let concrete_next = Sim.step m ~state ~inputs in
      let ternary_next = Ternary.step m ~state:tstate ~inputs:tinputs in
      ok_bad
      && Array.for_all2
           (fun tv b -> tv = Ternary.of_bool b)
           ternary_next concrete_next
      && Array.for_all2
           (fun w b -> lane0 w = b)
           fr.Rand_sim.next concrete_next)

(* Refining X inputs to concrete values can only refine the output: a
   constant ternary answer is pinned for every completion. *)
let ternary_monotone =
  QCheck2.Test.make ~count:300 ~name:"ternary eval is monotone under X-refinement"
    ~print:print_circuit
    gen_circuit
    (fun circuit ->
      let m = build circuit in
      let state = Model.init_state m in
      let tstate = Array.map Ternary.of_bool state in
      (* Abstract: every input X.  Refined: concrete values. *)
      let xin = Array.make ni Ternary.X in
      let inputs = [| false; true |] in
      let tin = Array.map Ternary.of_bool inputs in
      let roots = m.Model.bad :: Array.to_list m.Model.next in
      let abs = Ternary.node_values m.Model.man ~env:(Ternary.env_of m ~state:tstate ~inputs:xin) roots in
      let conc = Ternary.node_values m.Model.man ~env:(Ternary.env_of m ~state:tstate ~inputs:tin) roots in
      List.for_all
        (fun root ->
          Ternary.refines (Ternary.lit_value conc root) (Ternary.lit_value abs root))
        roots)

(* Everything the lfp pins constant really is stuck there: walk concrete
   executions for a few random steps and compare. *)
let lfp_sound =
  QCheck2.Test.make ~count:200 ~name:"lfp constants hold on concrete executions"
    ~print:(fun _ -> "<circuit+inputs>")
    QCheck2.Gen.(pair gen_circuit (list_size (pure 8) (int_bound ((1 lsl ni) - 1))))
    (fun (circuit, input_masks) ->
      let m = build circuit in
      let fix = Ternary.lfp m in
      let state = ref (Model.init_state m) in
      let ok = ref true in
      List.iter
        (fun mask ->
          let inputs = Array.init ni (fun i -> (mask lsr i) land 1 = 1) in
          Array.iteri
            (fun i v ->
              match Ternary.to_bool v with
              | Some b -> if !state.(i) <> b then ok := false
              | None -> ())
            fix;
          state := Sim.step m ~state:!state ~inputs)
        input_masks;
      !ok)

(* The 64-lane frame computes what [Aig.eval] computes in each lane, with
   and without a latch mask (masked latches read [0L]). *)
let frame64_lanes =
  QCheck2.Test.make ~count:300 ~name:"frame64 = Aig.eval lane by lane"
    ~print:(fun _ -> "<circuit+words+mask>")
    QCheck2.Gen.(
      quad gen_circuit (list_size (pure (ni + nl)) ui64) (list_size (pure nl) bool) bool)
    (fun (circuit, words, mask, masked) ->
      let m = build circuit in
      let words = Array.of_list words and mask = Array.of_list mask in
      let state = Array.sub words ni nl in
      let fr =
        if masked then
          Rand_sim.frame64 ~latch_mask:(fun i -> mask.(i)) m ~state ~input:(fun i -> words.(i))
        else Rand_sim.frame64 m ~state ~input:(fun i -> words.(i))
      in
      let bit w b = Int64.logand (Int64.shift_right_logical w b) 1L = 1L in
      List.for_all
        (fun b ->
          let eval l = Aig.eval m.Model.man (fun i -> bit words.(i) b) l in
          bit fr.Rand_sim.bad b = eval m.Model.bad
          && List.for_all
               (fun i ->
                 if masked && not mask.(i) then fr.Rand_sim.next.(i) = 0L
                 else bit fr.Rand_sim.next.(i) b = eval m.Model.next.(i))
               (List.init nl Fun.id))
        (List.init 64 Fun.id))

(* The reference ternary evaluator: a recursive walk with one memo per
   evaluation, the algorithm the compiled programs replaced. *)
let ref_node_values man ~env roots =
  let memo = Hashtbl.create 64 in
  let rec node_value node =
    match Hashtbl.find_opt memo node with
    | Some v -> v
    | None ->
      let l = node lsl 1 in
      let v =
        if Aig.is_const man l then Ternary.F
        else if Aig.is_input man l then env (Aig.input_index man l)
        else
          let f0, f1 = Aig.fanins man l in
          Ternary.tand (lit_value f0) (lit_value f1)
      in
      Hashtbl.add memo node v;
      v
  and lit_value l =
    let v = node_value (Aig.node_of l) in
    if Aig.is_complemented l then Ternary.tnot v else v
  in
  List.iter (fun r -> ignore (lit_value r)) roots;
  lit_value

let ref_lfp (m : Model.t) =
  let xin = Array.make m.Model.num_inputs Ternary.X in
  let state = Array.map Ternary.of_bool m.Model.init in
  let changed = ref true in
  while !changed do
    changed := false;
    let value =
      ref_node_values m.Model.man ~env:(Ternary.env_of m ~state ~inputs:xin)
        (Array.to_list m.Model.next)
    in
    let ns = Array.map value m.Model.next in
    Array.iteri
      (fun i v ->
        let v = Ternary.join state.(i) v in
        if v <> state.(i) then begin
          state.(i) <- v;
          changed := true
        end)
      ns
  done;
  state

let gen_tv = QCheck2.Gen.oneofl [ Ternary.F; Ternary.T; Ternary.X ]

(* Every node of the cone, both polarities, under a random ternary
   environment; and the reachability fixpoint. *)
let ternary_reference =
  QCheck2.Test.make ~count:300 ~name:"ternary = reference evaluator"
    ~print:(fun _ -> "<circuit+env>")
    QCheck2.Gen.(triple gen_circuit (list_size (pure nl) gen_tv) (list_size (pure ni) gen_tv))
    (fun (circuit, state, inputs) ->
      let m = build circuit in
      let state = Array.of_list state and inputs = Array.of_list inputs in
      let env = Ternary.env_of m ~state ~inputs in
      let roots = m.Model.bad :: Array.to_list m.Model.next in
      let v = Ternary.node_values m.Model.man ~env roots in
      let expected = ref_node_values m.Model.man ~env roots in
      Aig.fold_cones m.Model.man roots ~init:true ~f:(fun ok node ->
          let l = node lsl 1 in
          ok
          && Ternary.lit_value v l = expected l
          && Ternary.lit_value v (Aig.not_ l) = expected (Aig.not_ l))
      && Ternary.bad_now m ~state ~inputs = expected m.Model.bad
      && Ternary.step m ~state ~inputs = Array.map expected m.Model.next
      && Ternary.lfp m = ref_lfp m)

(* --- pipeline ----------------------------------------------------------- *)

(* Trivial verdicts agree with exhaustive reachability, under full
   certification. *)
let verdict_sound =
  QCheck2.Test.make ~count:150 ~name:"analyzer verdicts = exhaustive reachability"
    ~print:print_circuit
    gen_circuit
    (fun circuit ->
      let m = build circuit in
      with_level Level.Paranoid (fun () ->
          let r = A.run ~mode:A.Full m in
          match r.A.verdict with
          | None -> true
          | Some (A.Safe _) -> not (explicit_unsafe m)
          | Some (A.Unsafe { trace }) -> Sim.check_trace m trace))

(* A counterexample found on the simplified model lifts through the
   whole pass composition (const, dangling, coi, fraig) to a trace that
   replays on the original via Sim. *)
let lift_replays =
  QCheck2.Test.make ~count:150 ~name:"lifted counterexamples replay on the original"
    ~print:print_circuit
    gen_circuit
    (fun circuit ->
      let m = build circuit in
      with_level Level.Fast (fun () ->
          let r = A.run ~mode:A.Full m in
          match r.A.verdict with
          | Some (A.Unsafe { trace }) -> Sim.check_trace m trace
          | Some (A.Safe _) -> true
          | None -> (
            match Rand_sim.falsify ~rounds:4 ~max_depth:16 r.A.model with
            | None -> true
            | Some tr -> Sim.check_trace m (r.A.lift tr))))

(* --- unit tests on hand-built models ----------------------------------- *)

(* A latch frozen at its initial value gating the property: the ternary
   fixpoint must prove safety outright, with a certified invariant. *)
let test_stuck_latch_safe () =
  let b = Builder.create "stuck" in
  let _free = Builder.input b in
  let frozen = Builder.latch b ~init:false () in
  let counter = Builder.latches b 2 in
  Builder.set_next b frozen frozen;
  Array.iteri
    (fun i l -> Builder.set_next b l (Builder.vec_incr b counter).(i))
    counter;
  (* bad requires the frozen latch: unreachable. *)
  let bad = Aig.and_ (Builder.man b) frozen (Builder.vec_eq_const b counter 3) in
  let m = Builder.finish b ~bad in
  with_level Level.Paranoid (fun () ->
      let r = A.run ~mode:A.Fast m in
      match r.A.verdict with
      | Some (A.Safe { invariant }) ->
        (* The invariant must hold initially and exclude bad states. *)
        let env i =
          if i < m.Model.num_inputs then false else m.Model.init.(i - m.Model.num_inputs)
        in
        Alcotest.(check bool) "init |= inv" true (Aig.eval m.Model.man env invariant)
      | _ -> Alcotest.fail "expected a Safe verdict from the stuck-at analysis")

let test_depth0_unsafe () =
  let b = Builder.create "d0" in
  let x = Builder.input b in
  let q = Builder.latch b ~init:true () in
  Builder.set_next b q q;
  let m = Builder.finish b ~bad:(Aig.and_ (Builder.man b) q x) in
  with_level Level.Paranoid (fun () ->
      let r = A.run m in
      match r.A.verdict with
      | Some (A.Unsafe { trace }) ->
        Alcotest.(check bool) "replays" true (Sim.check_trace m trace);
        Alcotest.(check int) "depth 0" 0 (Trace.depth trace)
      | _ -> Alcotest.fail "expected an Unsafe verdict at depth 0")

(* Reductions compose: a stuck-at latch, the logic it gates and the
   latches feeding only that logic all disappear, while the residual
   (deeper) counterexample still lifts through the composition. *)
let test_reductions_compose () =
  let b = Builder.create "compose" in
  let man = Builder.man b in
  let i0 = Builder.input b in
  let stuck = Builder.latch b ~init:false () in
  Builder.set_next b stuck stuck;
  let dead = Builder.latch b () in
  Builder.set_next b dead (Aig.xor_ man dead i0);
  let q = Builder.latches b 2 in
  Array.iteri (fun i l -> Builder.set_next b l (Builder.vec_incr b q).(i)) q;
  (* Dangling logic: built but unused. *)
  ignore (Aig.and_ man i0 (Aig.not_ i0));
  (* Reachable only at q = 3 with i0 high — beyond the analyzer's
     depth-0 horizon, so no trivial verdict; the [stuck && dead] arm is
     constant-folded away, which then strands [dead] outside the COI. *)
  let bad =
    Aig.or_ man
      (Aig.and_ man (Aig.and_ man q.(0) q.(1)) i0)
      (Aig.and_ man stuck dead)
  in
  let m = Builder.finish b ~bad in
  with_level Level.Paranoid (fun () ->
      let r = A.run ~mode:A.Full m in
      (match r.A.verdict with
      | None -> ()
      | Some _ -> Alcotest.fail "bad is reachable only at depth 3: no trivial verdict");
      Alcotest.(check bool) "latches reduced" true
        (r.A.model.Model.num_latches < m.Model.num_latches);
      Alcotest.(check bool) "ands reduced" true
        (Model.num_ands r.A.model < Model.num_ands m);
      Alcotest.(check bool) "claims discharged" true (A.total_claims r >= 1);
      match Rand_sim.falsify r.A.model with
      | None -> Alcotest.fail "random simulation must falsify the 2-bit counter"
      | Some tr ->
        Alcotest.(check bool) "lifted trace replays on the original" true
          (Sim.check_trace m (r.A.lift tr)))

let test_analyze_off_is_identity () =
  let m = build ([ L 0; L 1; In 0 ], In 1, [ false; true; false ]) in
  let r = A.run ~mode:A.Off m in
  Alcotest.(check bool) "same model" true (r.A.model == m);
  Alcotest.(check int) "no passes" 0 (List.length r.A.passes)

let test_metrics_recorded () =
  let m = build ([ F; L 1; L 2 ], And (L 0, In 0), [ false; false; false ]) in
  let reg = Isr_obs.Metrics.create () in
  let _r = A.run ~mode:A.Fast ~registry:reg m in
  let names = Isr_obs.Metrics.names reg in
  Alcotest.(check bool) "analyze.* gauges present" true
    (List.mem "analyze.ands_before" names && List.mem "analyze.ands_after" names)

(* The summary is a block the caller ends: no branch may end in a
   newline of its own, or every `verify --analyze` prints a blank line. *)
let test_summary_no_trailing_newline () =
  let m = build ([ L 0; L 1; In 0 ], In 1, [ false; true; false ]) in
  let check what r =
    let s = Format.asprintf "%a" A.pp_summary r in
    Alcotest.(check bool) (what ^ ": non-empty") true (s <> "");
    Alcotest.(check bool) (what ^ ": no trailing newline") false (s.[String.length s - 1] = '\n')
  in
  let off = A.run ~mode:A.Off m in
  check "no reduction" off;
  let coi =
    { A.pass = "coi"; ands_before = 9; ands_after = 4; latches_before = 3; latches_after = 2;
      claims = 0 }
  in
  check "pass table" { off with A.passes = [ coi ] };
  check "pass table and verdict"
    { off with A.passes = [ coi ]; verdict = Some (A.Safe { invariant = Aig.lit_true }) }

(* --- identity pins -------------------------------------------------------- *)

(* Simulation speed-ups must leave every analysis result untouched.  For
   each Figure 6 instance these cases pin, at the default check level:
   the [Full] pipeline's pass table, its verdict (with a digest of the
   invariant's cone or of the trace), a digest of the reduced model's
   next/bad cones, the ternary fixpoint of the original model, and what
   [Rand_sim.falsify] returns on the reduced model, which is what the
   portfolio's random-simulation lane runs.  The values were recorded with the
   hash-table evaluators that preceded the compiled cone programs. *)

let short_md5 s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let cones_digest man roots =
  let buf = Buffer.create 4096 in
  List.iter (fun r -> Printf.bprintf buf "%d " r) roots;
  Aig.iter_cones man roots ~f:(fun node ->
      let l = node lsl 1 in
      if Aig.is_and man l then
        let f0, f1 = Aig.fanins man l in
        Printf.bprintf buf "%d=%d&%d " node f0 f1
      else if Aig.is_input man l then Printf.bprintf buf "%d=i%d " node (Aig.input_index man l)
      else Printf.bprintf buf "%d=0 " node);
  short_md5 (Buffer.contents buf)

let trace_digest (tr : Trace.t) =
  short_md5
    (String.concat "|"
       (Array.to_list
          (Array.map
             (fun frame ->
               String.init (Array.length frame) (fun i -> if frame.(i) then '1' else '0'))
             tr.Trace.inputs)))

let identity_fingerprint (e : Isr_suite.Registry.entry) =
  with_level Level.Off @@ fun () ->
  let m = Isr_suite.Registry.build_validated e in
  let r = A.run ~mode:A.Full m in
  let passes =
    String.concat " "
      (List.map
         (fun (p : A.pass_stats) ->
           Printf.sprintf "%s:%d>%d/%d>%d/%d" p.A.pass p.A.ands_before p.A.ands_after
             p.A.latches_before p.A.latches_after p.A.claims)
         r.A.passes)
  in
  let verdict =
    match r.A.verdict with
    | None -> "none"
    | Some (A.Safe { invariant }) -> "safe:" ^ cones_digest m.Model.man [ invariant ]
    | Some (A.Unsafe { trace }) ->
      Printf.sprintf "unsafe%d:%s" (Trace.depth trace) (trace_digest trace)
  in
  let rm = r.A.model in
  let model =
    Printf.sprintf "%d/%d/%s/%s" rm.Model.num_inputs rm.Model.num_latches
      (String.init rm.Model.num_latches (fun i -> if rm.Model.init.(i) then '1' else '0')
      |> short_md5)
      (cones_digest rm.Model.man (rm.Model.bad :: Array.to_list rm.Model.next))
  in
  let lfp =
    short_md5 (String.concat "" (Array.to_list (Array.map Ternary.to_string (Ternary.lfp m))))
  in
  let rand =
    match Rand_sim.falsify rm with
    | None -> "none"
    | Some tr -> Printf.sprintf "d%d:%s" (Trace.depth tr) (trace_digest tr)
  in
  Printf.sprintf "[%s] %s model=%s lfp=%s rand=%s" passes verdict model lfp rand

let identity_pins =
  [
    ("amba2g3",
     "[] none model=2/3/c6f057b86584/032d961a6dfe lfp=f561aaf6ef0b rand=none");
    ("amba3g4",
     "[] none model=3/5/dcddb75469b4/cbf3ee669897 lfp=fb0e22c79ac7 rand=none");
    ("amba4bug",
     "[fraig:64>57/6>6/6] none model=4/6/670b14728ad9/50b07cd82a98 lfp=dad3a37aa9d5 rand=d2:0e9a198093f6");
    ("eijkring8",
     "[] none model=1/8/d1ca3aaf52b4/7951d6fd7153 lfp=0b0cfc07fca8 rand=none");
    ("eijkring12",
     "[] none model=1/12/df26925296c7/dfefb934a052 lfp=f94c84fac5cb rand=none");
    ("eijkring10u7",
     "[] none model=1/10/a4bcaee7d57e/478633f48df4 lfp=336311a01618 rand=d8:d7593d0a65e0");
    ("lfsr8d40",
     "[] none model=0/8/d1ca3aaf52b4/cb8c8f580f77 lfp=0b0cfc07fca8 rand=d40:d62381f46f0f");
    ("lfsr9safe",
     "[] none model=0/9/4999644a5eb7/e35e8cfdf993 lfp=aba369f7d2b2 rand=none");
    ("vending11",
     "[fraig:35>34/4>4/1] none model=2/4/4a7d1ed41447/261338c8bfa4 lfp=ea416ed0759d rand=none");
    ("vending7bug",
     "[] none model=2/4/4a7d1ed41447/e34dc98b6b00 lfp=ea416ed0759d rand=d8:bef1d3593cea");
    ("traffic6",
     "[coi:23>23/7>7/0] none model=0/7/7086e2b607ee/1d1f5a1cf15f lfp=04adb4e2f055 rand=none");
    ("traffic5bug",
     "[fraig:25>24/7>7/1] none model=1/7/7086e2b607ee/c2e9898c0132 lfp=04adb4e2f055 rand=d1:3baf8cec88b3");
    ("peterson",
     "[fraig:50>42/7>7/8] none model=1/7/29c3eea3f305/3a478a5fe6d9 lfp=04adb4e2f055 rand=none");
    ("prodcons8",
     "[fraig:54>46/4>4/6] none model=2/4/4a7d1ed41447/332564bf0106 lfp=ea416ed0759d rand=none");
    ("prodcons6bug",
     "[fraig:36>31/3>3/3] none model=2/3/c6f057b86584/959f294efac6 lfp=f561aaf6ef0b rand=d9:f344e08443a2");
    ("coherence3",
     "[fraig:74>64/6>6/4] none model=6/6/670b14728ad9/29201f731be7 lfp=dad3a37aa9d5 rand=none");
    ("coherence4",
     "[fraig:107>94/8>8/5] none model=8/8/dd4b21e9ef71/29bb3db9cc9f lfp=0b0cfc07fca8 rand=none");
    ("coherence3bug",
     "[fraig:65>55/6>6/4] none model=6/6/670b14728ad9/26d55ad55acd lfp=dad3a37aa9d5 rand=d2:101a3de7fc6f");
    ("reactor2x3",
     "[coi:38>21/9>6/0] none model=0/6/670b14728ad9/4867d1d91092 lfp=aba369f7d2b2 rand=none");
    ("reactor3x2",
     "[coi:31>10/8>4/0] none model=0/4/4a7d1ed41447/a6773f4a5b10 lfp=0b0cfc07fca8 rand=none");
    ("guidance4",
     "[fraig:43>33/8>8/10] none model=2/8/dd4b21e9ef71/cfed10b3dc49 lfp=0b0cfc07fca8 rand=none");
    ("tcas12",
     "[fraig:53>47/4>4/5] none model=2/4/ae2bac2e4b4d/b1bcda8812f9 lfp=ea416ed0759d rand=d20:acb8d4bb4a79");
    ("tcas25",
     "[fraig:70>61/5>5/7] none model=2/5/a2369958a964/433f45dcc213 lfp=fb0e22c79ac7 rand=d45:f21d96b4cbd4");
    ("feistel8x8",
     "[coi:152>24/20>4/0 fraig:24>21/4>4/1] none model=0/4/4a7d1ed41447/0b373889619f lfp=baf1da0e2b90 rand=none");
    ("rether16",
     "[fraig:39>30/6>6/6] none model=1/6/cd714cc33cfd/01feb7c4352e lfp=dad3a37aa9d5 rand=d16:e84d23a3628a");
    ("rether33",
     "[fraig:48>36/7>7/8] none model=1/7/3e267ff3c8b6/c444a56b193a lfp=04adb4e2f055 rand=d33:36ffe75b0689");
    ("counter6t40",
     "[] none model=0/6/670b14728ad9/4d238f7630b0 lfp=dad3a37aa9d5 rand=d40:d62381f46f0f");
    ("countermod6m50",
     "[fraig:33>31/6>6/2] none model=0/6/670b14728ad9/1bcd7011a279 lfp=dad3a37aa9d5 rand=none");
    ("gcount5t20",
     "[] none model=1/5/dcddb75469b4/b8ab119965b2 lfp=fb0e22c79ac7 rand=d30:f3ffb5197525");
    ("fifo3",
     "[fraig:124>116/10>10/5] none model=2/10/f1b708bba17f/77c2207a97b1 lfp=336311a01618 rand=none");
    ("fifo2bug",
     "[fraig:75>70/7>7/3] none model=2/7/29c3eea3f305/8df66ece14cd lfp=04adb4e2f055 rand=d11:aded4844b186");
    ("elevator6",
     "[fraig:42>38/5>5/3] none model=2/5/dcddb75469b4/f2757150d8ec lfp=fb0e22c79ac7 rand=none");
    ("hamming8",
     "[] none model=9/9/4c93008615c2/2874bfa4ab5a lfp=aba369f7d2b2 rand=none");
    ("hamming6bug",
     "[fraig:55>54/7>7/1] none model=7/7/29c3eea3f305/495b8ea5fe4e lfp=04adb4e2f055 rand=d2:73314fa042c2");
    ("dekker",
     "[fraig:70>62/5>5/8] none model=1/5/dcddb75469b4/30b6b4a804ee lfp=fb0e22c79ac7 rand=none");
    ("johnson6",
     "[fraig:35>23/6>6/11] none model=0/6/670b14728ad9/eb6b1ab872bc lfp=dad3a37aa9d5 rand=none");
    ("johnson5u8",
     "[] none model=0/5/dcddb75469b4/3e1edf831b71 lfp=fb0e22c79ac7 rand=d8:ab057f6585ea");
    ("stack4",
     "[fraig:72>62/5>5/7] none model=2/5/dcddb75469b4/e51426a65ac0 lfp=fb0e22c79ac7 rand=none");
    ("stack3bug",
     "[fraig:53>46/4>4/5] none model=2/4/4a7d1ed41447/aec67c9a5e5c lfp=ea416ed0759d rand=d20:43c866e94ccc");
    ("industrialA1",
     "[coi:985>25/125>5/0 fraig:25>23/5>5/2] none model=0/5/dcddb75469b4/8d26d6fff93e lfp=09caa6eb477f rand=none");
    ("industrialA2",
     "[coi:2007>167/242>12/0] none model=1/12/df26925296c7/dfefb934a052 lfp=43f12bcec39e rand=none");
    ("industrialA3",
     "[coi:1875>35/234>4/0 fraig:35>33/4>4/2] none model=2/4/4a7d1ed41447/327c4e2aeb39 lfp=90a9feac84e4 rand=none");
    ("industrialA4",
     "[coi:1876>21/239>6/0] none model=0/6/670b14728ad9/4867d1d91092 lfp=9a3c0fc38259 rand=none");
    ("industrialB1",
     "[coi:5654>55/704>4/0 fraig:55>47/4>4/5] none model=2/4/4a7d1ed41447/9792c3e0a745 lfp=367e687092c2 rand=none");
    ("industrialB2",
     "[coi:5941>21/744>4/0 fraig:21>18/4>4/2] none model=1/4/1e48c4420b70/50534c9c54c7 lfp=333277817832 rand=d5:7f4f79a0a29c");
    ("industrialB3",
     "[coi:6127>50/769>9/0 fraig:50>38/9>9/12] none model=2/9/4c93008615c2/1d2530628df9 lfp=c49f128aa402 rand=none");
    ("industrialC1",
     "[coi:6034>36/753>3/0 fraig:36>33/3>3/3] none model=2/3/dc5c7986daef/89508fb97f36 lfp=ca6c8546719b rand=d4:33c6bb75e669");
    ("industrialC2",
     "[coi:4714>74/586>6/0 fraig:74>64/6>6/4] none model=6/6/670b14728ad9/29201f731be7 lfp=07a76cccbc2d rand=none");
    ("industrialD1",
     "[coi:765>50/97>7/0 fraig:50>42/7>7/8] none model=1/7/29c3eea3f305/3a478a5fe6d9 lfp=3c4a9e48254f rand=none");
    ("industrialE1",
     "[coi:4754>18/595>3/0 fraig:18>15/3>3/3] none model=0/3/c6f057b86584/38d743066268 lfp=5d9956f4bc43 rand=none");
    ("industrialF1",
     "[coi:12854>55/1604>4/0 fraig:55>48/4>4/5] none model=2/4/4a7d1ed41447/9392bcbdbd12 lfp=d19687f30520 rand=none");
    ("industrialF2",
     "[coi:17632>34/2204>4/0 fraig:34>33/4>4/1] none model=2/4/4a7d1ed41447/70c6f8c0f604 lfp=c1d520d99442 rand=none");
    ("industrialF3",
     "[coi:15232>33/1906>6/0 fraig:33>31/6>6/2] none model=0/6/670b14728ad9/617c84ac492e lfp=34677a757f49 rand=none");
    ("counter7t10",
     "[] none model=0/7/29c3eea3f305/6211a078e002 lfp=04adb4e2f055 rand=d10:58f422b04397");
    ("counter7t20",
     "[] none model=0/7/29c3eea3f305/1f56ed4888cb lfp=04adb4e2f055 rand=d20:6742c1eabe7e");
    ("counter7t30",
     "[] none model=0/7/29c3eea3f305/c0be74f554d2 lfp=04adb4e2f055 rand=d30:947c0dd7aa45");
    ("counter7t50",
     "[] none model=0/7/29c3eea3f305/7df303dfb32e lfp=04adb4e2f055 rand=d50:a42ad072087e");
    ("counter7t70",
     "[] none model=0/7/29c3eea3f305/77d5c7890064 lfp=04adb4e2f055 rand=none");
    ("counter7t90",
     "[] none model=0/7/29c3eea3f305/7110b0d28b36 lfp=04adb4e2f055 rand=none");
    ("countermod7m12",
     "[fraig:40>36/7>7/4] none model=0/7/29c3eea3f305/eba94606c4d2 lfp=04adb4e2f055 rand=none");
    ("countermod7m24",
     "[fraig:39>35/7>7/4] none model=0/7/29c3eea3f305/8e4f284f41df lfp=04adb4e2f055 rand=none");
    ("countermod7m48",
     "[fraig:38>34/7>7/4] none model=0/7/29c3eea3f305/07a118cfc7fa lfp=04adb4e2f055 rand=none");
    ("countermod7m96",
     "[fraig:37>33/7>7/4] none model=0/7/29c3eea3f305/ad6dba4ee0d4 lfp=04adb4e2f055 rand=none");
    ("ring4safe",
     "[] none model=1/4/a9b7ba70783b/62d30065928e lfp=ea416ed0759d rand=none");
    ("ring6safe",
     "[] none model=1/6/14ee22eaba29/42f53b0fd5c2 lfp=dad3a37aa9d5 rand=none");
    ("ring10safe",
     "[] none model=1/10/a4bcaee7d57e/2407c48f4458 lfp=336311a01618 rand=none");
    ("ring14safe",
     "[] none model=1/14/7b00c4611cac/bc7fd449cfaf lfp=4e619f5b28df rand=none");
    ("ring16safe",
     "[] none model=1/16/aa7372eaa327/33a68c363c73 lfp=45ed9cc2f92b rand=none");
    ("ring6u3",
     "[] none model=1/6/14ee22eaba29/c6e8b04d539c lfp=dad3a37aa9d5 rand=d3:aceedeb370c9");
    ("ring8u5",
     "[] none model=1/8/d1ca3aaf52b4/21b6c6e88ab7 lfp=0b0cfc07fca8 rand=d6:552a2361e6c3");
    ("ring12u9",
     "[] none model=1/12/df26925296c7/171aa715ce2e lfp=f94c84fac5cb rand=d12:b755e9be1be9");
    ("ring14u11",
     "[] none model=1/14/7b00c4611cac/6d3e90ae29ec lfp=4e619f5b28df rand=d14:954ddcc7e839");
    ("tcas6",
     "[fraig:36>33/3>3/3] none model=2/3/84eb13cfed01/c54780c178c6 lfp=f561aaf6ef0b rand=d6:fb6fee53e485");
    ("tcas9",
     "[fraig:53>47/4>4/5] none model=2/4/b8c37e33defd/e2996d889f1f lfp=ea416ed0759d rand=d9:f344e08443a2");
    ("tcas15",
     "[fraig:52>46/4>4/5] none model=2/4/b59c67bf196a/04f392e1a6d0 lfp=ea416ed0759d rand=d25:58d3a40fe221");
    ("tcas18",
     "[fraig:70>61/5>5/7] none model=2/5/1e685a8cce29/2005db570573 lfp=fb0e22c79ac7 rand=d32:cf0054ab78f3");
    ("tcas21",
     "[fraig:70>61/5>5/7] none model=2/5/6dfc35c47756/04973666a025 lfp=fb0e22c79ac7 rand=d37:32da0611e2a9");
    ("tcas30",
     "[fraig:70>61/5>5/7] none model=2/5/8e88848cecf2/eadb45f617b9 lfp=fb0e22c79ac7 rand=d58:980af7b4f2d9");
    ("rether8",
     "[fraig:30>24/5>5/4] none model=1/5/0079cb8b7e61/dd641050168e lfp=fb0e22c79ac7 rand=d8:b7d6b9ed84a3");
    ("rether12",
     "[fraig:30>24/5>5/4] none model=1/5/3868562ccab9/dd641050168e lfp=fb0e22c79ac7 rand=d12:b5f5d9b82cb5");
    ("rether20",
     "[fraig:39>30/6>6/6] none model=1/6/6d6125c1ccb0/01feb7c4352e lfp=dad3a37aa9d5 rand=d20:fc2a0a3dda92");
    ("rether24",
     "[fraig:39>30/6>6/6] none model=1/6/bdcbb11c3e09/01feb7c4352e lfp=dad3a37aa9d5 rand=d24:ff933eb2677b");
    ("rether40",
     "[fraig:48>36/7>7/8] none model=1/7/d8fb548b5da8/c444a56b193a lfp=04adb4e2f055 rand=d40:0c6f5c2010c1");
    ("vending5",
     "[fraig:25>24/3>3/1] none model=2/3/c6f057b86584/b08cc31d1bde lfp=f561aaf6ef0b rand=none");
    ("vending9",
     "[fraig:36>34/4>4/2] none model=2/4/4a7d1ed41447/7ac39040f659 lfp=ea416ed0759d rand=none");
    ("vending14",
     "[fraig:34>33/4>4/1] none model=2/4/4a7d1ed41447/70c6f8c0f604 lfp=ea416ed0759d rand=none");
    ("vending18",
     "[fraig:45>42/5>5/3] none model=2/5/dcddb75469b4/59f1af1760bc lfp=fb0e22c79ac7 rand=none");
    ("vending5bug",
     "[] none model=2/3/c6f057b86584/8beec73dbc75 lfp=f561aaf6ef0b rand=d6:fd9119eaa263");
    ("vending9bug",
     "[fraig:32>31/4>4/1] none model=2/4/4a7d1ed41447/dea386bd1065 lfp=ea416ed0759d rand=d13:c1529286f9d9");
    ("vending13bug",
     "[] none model=2/4/4a7d1ed41447/9d8889371bbd lfp=ea416ed0759d rand=d18:728e7432ca0a");
    ("prodcons4",
     "[fraig:37>32/3>3/4] none model=2/3/c6f057b86584/168ca3a9ccb1 lfp=f561aaf6ef0b rand=none");
    ("prodcons6",
     "[fraig:38>33/3>3/3] none model=2/3/c6f057b86584/258a66d07b97 lfp=f561aaf6ef0b rand=none");
    ("prodcons12",
     "[fraig:55>48/4>4/5] none model=2/4/4a7d1ed41447/9392bcbdbd12 lfp=ea416ed0759d rand=none");
    ("prodcons16",
     "[fraig:71>60/5>5/8] none model=2/5/dcddb75469b4/e89d52775afd lfp=fb0e22c79ac7 rand=none");
    ("prodcons4bug",
     "[fraig:36>32/3>3/3] none model=2/3/c6f057b86584/5149bc78df51 lfp=f561aaf6ef0b rand=d5:ee59ddeaad27");
    ("prodcons10bug",
     "[fraig:52>44/4>4/5] none model=2/4/4a7d1ed41447/15ed32ba1128 lfp=ea416ed0759d rand=d22:f702dbdb49e0");
    ("prodcons14bug",
     "[fraig:52>44/4>4/5] none model=2/4/4a7d1ed41447/e7c8e8ab2e38 lfp=ea416ed0759d rand=d55:77a25d5888a7");
    ("arbiter4",
     "[fraig:60>53/6>6/6] none model=4/6/670b14728ad9/32934d23aa69 lfp=dad3a37aa9d5 rand=none");
    ("arbiter5",
     "[fraig:107>106/8>8/1] none model=5/8/dd4b21e9ef71/59d99f8d0f13 lfp=0b0cfc07fca8 rand=none");
    ("arbiter6",
     "[fraig:158>157/9>9/1] none model=6/9/4c93008615c2/215813e1dd27 lfp=aba369f7d2b2 rand=none");
    ("coherence5x",
     "[fraig:143>127/10>10/6] none model=10/10/f1b708bba17f/2301d33d5315 lfp=336311a01618 rand=none");
    ("coherence6x",
     "[fraig:182>163/12>12/7] none model=12/12/35b9ab5a36f3/dfb3bedf16cf lfp=f94c84fac5cb rand=none");
    ("traffic4",
     "[coi:22>22/7>7/0 fraig:22>19/7>7/2] none model=0/7/7086e2b607ee/493ca6958c7b lfp=04adb4e2f055 rand=none");
    ("traffic9",
     "[coi:30>30/8>8/0 fraig:30>28/8>8/2] none model=0/8/6f7b6fc969e9/f9f7e0383260 lfp=0b0cfc07fca8 rand=none");
    ("traffic12",
     "[coi:28>28/8>8/0 fraig:28>27/8>8/1] none model=0/8/6f7b6fc969e9/4f9d17dd9fc9 lfp=0b0cfc07fca8 rand=none");
    ("feistel4x6",
     "[coi:112>16/15>3/0 fraig:16>13/3>3/1] none model=0/3/c6f057b86584/f44c87e9e940 lfp=de59bd9061c9 rand=none");
    ("feistel6x10",
     "[coi:178>18/23>3/0 fraig:18>15/3>3/3] none model=0/3/c6f057b86584/38d743066268 lfp=ff4045bf8e01 rand=none");
    ("feistel10x12",
     "[coi:218>26/28>4/0 fraig:26>25/4>4/1] none model=0/4/4a7d1ed41447/91e8303932ce lfp=cd25b7f1c589 rand=none");
    ("guidance3",
     "[fraig:36>28/7>7/8] none model=2/7/29c3eea3f305/bd77253e8dcf lfp=04adb4e2f055 rand=none");
    ("guidance5",
     "[fraig:50>38/9>9/12] none model=2/9/4c93008615c2/1d2530628df9 lfp=aba369f7d2b2 rand=none");
    ("guidance6",
     "[fraig:57>43/10>10/14] none model=2/10/f1b708bba17f/2f815ed92ae0 lfp=336311a01618 rand=none");
    ("lfsr8d15",
     "[] none model=0/8/d1ca3aaf52b4/990b06dacd81 lfp=0b0cfc07fca8 rand=d15:a90f25bd3ae4");
    ("lfsr8d25",
     "[] none model=0/8/d1ca3aaf52b4/d97e7f33f00d lfp=0b0cfc07fca8 rand=d25:1760b0def5d9");
    ("lfsr8d55",
     "[] none model=0/8/d1ca3aaf52b4/38dbb578bbee lfp=0b0cfc07fca8 rand=d55:d49ab2ef74a0");
    ("reactor2x2",
     "[coi:20>10/6>4/0] none model=0/4/4a7d1ed41447/a6773f4a5b10 lfp=dad3a37aa9d5 rand=none");
    ("reactor4x2",
     "[coi:42>10/10>4/0] none model=0/4/4a7d1ed41447/a6773f4a5b10 lfp=336311a01618 rand=none");
    ("reactor2x4",
     "[coi:57>33/12>8/0] none model=0/8/dd4b21e9ef71/b24c64363e6a lfp=f94c84fac5cb rand=none");
    ("fifo2safe",
     "[fraig:77>72/7>7/3] none model=2/7/29c3eea3f305/d6b37b14d5ee lfp=04adb4e2f055 rand=none");
    ("fifo4safe",
     "[fraig:171>160/13>13/7] none model=2/13/4aad0d9ff118/f7b8ee7345b6 lfp=df7c0a3fa598 rand=none");
    ("fifo3bug",
     "[fraig:122>114/10>10/5] none model=2/10/f1b708bba17f/a64511f9bc73 lfp=336311a01618 rand=d61:453505491d7c");
    ("elevator4",
     "[fraig:27>24/4>4/1] none model=2/4/4a7d1ed41447/51051b40d770 lfp=ea416ed0759d rand=none");
    ("elevator8",
     "[fraig:42>37/5>5/3] none model=2/5/dcddb75469b4/787e605cff55 lfp=fb0e22c79ac7 rand=none");
    ("hamming5",
     "[] none model=6/6/670b14728ad9/d6d3e09864fa lfp=dad3a37aa9d5 rand=none");
    ("hamming12",
     "[] none model=13/13/4aad0d9ff118/5fd397b467de lfp=df7c0a3fa598 rand=none");
    ("johnson4",
     "[fraig:15>7/4>4/7] none model=0/4/4a7d1ed41447/c077ab35cc80 lfp=ea416ed0759d rand=none");
    ("johnson8",
     "[fraig:63>47/8>8/15] none model=0/8/dd4b21e9ef71/96ef40b49087 lfp=0b0cfc07fca8 rand=none");
    ("johnson10",
     "[fraig:99>79/10>10/19] none model=0/10/f1b708bba17f/2a6abcef3430 lfp=336311a01618 rand=none");
    ("stack3",
     "[fraig:55>48/4>4/5] none model=2/4/4a7d1ed41447/139db5b96ff2 lfp=ea416ed0759d rand=none");
    ("stack5",
     "[fraig:89>76/6>6/9] none model=2/6/670b14728ad9/5e863494c945 lfp=dad3a37aa9d5 rand=none");
    ("industrialP150",
     "[coi:1225>26/155>5/0 fraig:26>24/5>5/2] none model=0/5/dcddb75469b4/640a2c000f61 lfp=734d17f15740 rand=none");
    ("industrialP300",
     "[coi:2426>26/305>5/0 fraig:26>24/5>5/2] none model=0/5/dcddb75469b4/640a2c000f61 lfp=c84b0c4ae777 rand=none");
    ("industrialP450",
     "[coi:3626>26/455>5/0 fraig:26>24/5>5/2] none model=0/5/dcddb75469b4/640a2c000f61 lfp=af646a3f8d2a rand=none");
  ]

let identity_cases =
  List.map
    (fun (e : Isr_suite.Registry.entry) ->
      Alcotest.test_case e.Isr_suite.Registry.name `Quick (fun () ->
          match List.assoc_opt e.Isr_suite.Registry.name identity_pins with
          | None -> Alcotest.failf "no identity pin for %s" e.Isr_suite.Registry.name
          | Some expected ->
            Alcotest.(check string) "analysis fingerprint" expected (identity_fingerprint e)))
    Isr_suite.Registry.fig6

let () =
  Alcotest.run "isr_analyze"
    [
      ("identity", identity_cases);
      ( "ternary",
        List.map QCheck_alcotest.to_alcotest
          [
            ternary_concrete_agreement; ternary_monotone; lfp_sound; frame64_lanes;
            ternary_reference;
          ] );
      ( "pipeline",
        List.map QCheck_alcotest.to_alcotest [ verdict_sound; lift_replays ] );
      ( "units",
        [
          Alcotest.test_case "stuck latch proves safe" `Quick test_stuck_latch_safe;
          Alcotest.test_case "depth-0 bad proves unsafe" `Quick test_depth0_unsafe;
          Alcotest.test_case "reductions compose" `Quick test_reductions_compose;
          Alcotest.test_case "mode off is identity" `Quick test_analyze_off_is_identity;
          Alcotest.test_case "metrics recorded" `Quick test_metrics_recorded;
          Alcotest.test_case "summary ends without a newline" `Quick
            test_summary_no_trailing_newline;
        ] );
    ]
