(* Tests for the step-wise engine kernel: checkpoint/resume determinism
   for every engine, scheduler interleaving invariance, and the
   engine-name round-trip contract.

   The checkpoint contract under test is the one step.mli states: a
   snapshot captures the entry of the current bound, and a resumed run
   re-does that bound from scratch — so interrupting a run anywhere and
   restoring the checkpoint onto a freshly built model must reproduce
   the uninterrupted verdict, convergence depths and certificate. *)

open Isr_core
open Isr_suite

let limits =
  { Budget.time_limit = 30.0; conflict_limit = 2_000_000; bound_limit = 60;
    reduce = Isr_sat.Solver.default_reduce }

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "no registry entry %s" name

let build name = Registry.build_validated (entry name)

(* Verdict equality up to the certificate literal (which lives on a
   different AIG manager after a restore — it is checked semantically
   via Certify instead). *)
let same_verdict ctx a b =
  match (a, b) with
  | Verdict.Proved { kfp = k1; jfp = j1; _ }, Verdict.Proved { kfp = k2; jfp = j2; _ } ->
    Alcotest.(check int) (ctx ^ " kfp") k1 k2;
    Alcotest.(check int) (ctx ^ " jfp") j1 j2
  | Verdict.Falsified { depth = d1; trace = t1 }, Verdict.Falsified { depth = d2; trace = t2 } ->
    Alcotest.(check int) (ctx ^ " cex depth") d1 d2;
    Alcotest.(check bool) (ctx ^ " same trace") true (t1 = t2)
  | Verdict.Unknown r1, Verdict.Unknown r2 ->
    Alcotest.(check bool) (ctx ^ " same reason") true (r1 = r2)
  | _ ->
    Alcotest.failf "%s: verdicts diverged: %a vs %a" ctx Verdict.pp a Verdict.pp b

(* Drive [inst] for at most [n] steps; stops early on [Done]. *)
let step_n inst n =
  let rec go k = if k > 0 && Step.step inst = Step.Running then go (k - 1) in
  go n

(* The round-trip: run the engine uninterrupted for a reference verdict,
   then run a fresh instance half-way, snapshot it through an actual
   checkpoint file, restore onto a third freshly built model and drive
   to completion.  Both final verdicts must agree, and the restored
   run's certificate must check on the restored model. *)
let ckpt_roundtrip packed model_name () =
  let ref_inst = Step.start ~limits packed (build model_name) in
  let ref_v, _ = Step.drive ref_inst in
  let total = Step.steps_done ref_inst in
  let inst = Step.start ~limits packed (build model_name) in
  step_n inst (max 1 (total / 2));
  match Step.status inst with
  | Step.Done (v, _) ->
    (* converged before the midpoint (tiny run) — still a valid check *)
    same_verdict (Step.name inst ^ " early") ref_v v
  | Step.Running ->
    let file = Filename.temp_file "isr_ck" ".ck" in
    Checkpoint.write file (Step.snapshot inst);
    let ck = Checkpoint.read file in
    Sys.remove file;
    let model = build model_name in
    let inst' = Step.restore ~limits packed model ck in
    let v', _ = Step.drive inst' in
    let ctx = Printf.sprintf "%s on %s" (Step.name inst') model_name in
    same_verdict ctx ref_v v';
    (match Certify.check_verdict ~limits model v' with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: restored verdict fails certification: %s" ctx msg)

(* The ITPSEQ strategies, spelled as [Engine.stepper] builds them. *)
let itpseq = Itpseq_verif.stepper ()
let sitpseq = Itpseq_verif.stepper ~mode:(Seq_family.Serial 0.5) ()
let itpseqcba = Itpseq_verif.stepper ~check:Bmc.Exact ~abstraction:(Itpseq_verif.Cba 0.5) ()
let itpseqpba = Itpseq_verif.stepper ~check:Bmc.Exact ~abstraction:(Itpseq_verif.Pba 0.0) ()

(* Every engine, on a safe and (where falsification applies) an unsafe
   instance.  BMC never proves, so it only gets the unsafe ones. *)
let roundtrip_tests =
  let safe = "eijkring8" and unsafe = "vending7bug" in
  [
    ("bmc ckpt/resume (cex)", Bmc.stepper ~check:Bmc.Assume (), unsafe);
    ("bmc incremental ckpt/resume (cex)", Bmc.stepper ~check:Bmc.Assume ~incremental:true (), "prodcons6bug");
    ("itp ckpt/resume (safe)", Itp_verif.stepper (), safe);
    ("itp ckpt/resume (cex)", Itp_verif.stepper (), unsafe);
    ("itpseq ckpt/resume (safe)", itpseq, safe);
    ("itpseq ckpt/resume (cex)", itpseq, unsafe);
    ("sitpseq ckpt/resume (safe)", sitpseq, safe);
    ("sitpseq ckpt/resume (cex)", sitpseq, unsafe);
    ("itpseqcba ckpt/resume (safe)", itpseqcba, safe);
    ("itpseqcba ckpt/resume (cex)", itpseqcba, unsafe);
    ("itpseqpba ckpt/resume (safe)", itpseqpba, safe);
    ("itpseqpba ckpt/resume (cex)", itpseqpba, unsafe);
    ("kind ckpt/resume (safe)", Kind.stepper (), safe);
    ("kind ckpt/resume (cex)", Kind.stepper (), unsafe);
    ("pdr ckpt/resume (safe)", Pdr.stepper (), safe);
    ("pdr ckpt/resume (cex)", Pdr.stepper (), unsafe);
  ]
  |> List.map (fun (doc, p, m) -> Alcotest.test_case doc `Slow (ckpt_roundtrip p m))

(* A checkpoint snapped at EVERY step index of a short run must resume
   to the reference verdict — not just the midpoint.  Exercised on each
   ITPSEQ strategy (the richest snapshot payloads: interpolant columns,
   plus the abstraction mask), on runs that cover CBA's in-place
   refinement loop, a refinement followed by a counterexample, and PBA's
   in-memory concrete-to-abstract hand-off. *)
let every_cut_point packed name () =
  let ref_inst = Step.start ~limits packed (build name) in
  let ref_v, _ = Step.drive ref_inst in
  let total = Step.steps_done ref_inst in
  for cut = 1 to total - 1 do
    let inst = Step.start ~limits packed (build name) in
    step_n inst cut;
    if Step.status inst = Step.Running then begin
      let model = build name in
      let inst' = Step.restore ~limits packed model (Step.snapshot inst) in
      let v', _ = Step.drive inst' in
      same_verdict (Printf.sprintf "%s cut@%d/%d" (Step.name inst) cut total) ref_v v'
    end
  done

let cut_point_tests =
  [
    ("every cut point resumes to the verdict", itpseq, "traffic6");
    ("itpseqcba refining proof", itpseqcba, "amba3g4");
    ("itpseqcba refinement then cex", itpseqcba, "ring6u3");
    ("itpseqpba concrete/abstract hand-off", itpseqpba, "amba3g4");
  ]
  |> List.map (fun (doc, p, m) -> Alcotest.test_case doc `Slow (every_cut_point p m))

(* Restores must be refused when the checkpoint does not describe the
   engine and model it is being applied to. *)
let restore_mismatch () =
  let packed = itpseq in
  let inst = Step.start ~limits packed (build "traffic6") in
  step_n inst 2;
  let ck = Step.snapshot inst in
  (match Step.restore ~limits (Kind.stepper ()) (build "traffic6") ck with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "restore accepted a checkpoint from another engine");
  (match Step.restore ~limits packed (build "peterson") ck with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "restore accepted a checkpoint from another model");
  let file = Filename.temp_file "isr_ck" ".ck" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "not a checkpoint\n");
  (match Checkpoint.read file with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "Checkpoint.read accepted garbage");
  Sys.remove file

(* The meta line survives the file round-trip byte-exactly. *)
let ckpt_file_roundtrip () =
  let inst = Step.start ~limits (Pdr.stepper ()) (build "traffic6") in
  step_n inst 2;
  let ck = Step.snapshot inst in
  let file = Filename.temp_file "isr_ck" ".ck" in
  Checkpoint.write file ck;
  let ck' = Checkpoint.read file in
  Sys.remove file;
  Alcotest.(check string) "meta json" (Checkpoint.meta_json ck) (Checkpoint.meta_json ck')

(* A checkpoint's elapsed time is cumulative: a resumed run's snapshot
   counts the sessions before the restore (stack5 under PDR, 0.200 s
   recorded before the resume, must not read as the few milliseconds of
   the resumed session alone). *)
let ckpt_elapsed_accumulates () =
  let model = build "stack5" in
  let packed = Pdr.stepper () in
  let inst = Step.start ~limits packed model in
  step_n inst 2;
  let ck = { (Step.snapshot inst) with Checkpoint.elapsed = 0.200 } in
  let inst' = Step.restore ~limits packed model ck in
  step_n inst' 1;
  let elapsed = (Step.snapshot inst').Checkpoint.elapsed in
  if elapsed < 0.200 then
    Alcotest.failf "snapshot after a resume reports %.3f s, below the restored 0.200 s" elapsed

(* A malformed envelope fails [Checkpoint.read] with [Failure], which
   [verify --resume] and [isr_obs ckpt] report as exit 2 — never with the
   channel's, the JSON reader's or [Bytes.create]'s own exception.  The
   cases: an empty file, a truncated payload, a negative byte count, a
   meta line without one, bytes after the payload, every truncation
   point of a real checkpoint, and seeded mutants of its meta line.  A
   mutant that still reads must restore, or be refused by [Step.restore]
   with [Invalid_argument].  Payload bytes are not mutated: [Marshal]
   does not validate its input, and neither does a resume. *)
let ckpt_malformed () =
  let module J = Isr_obs.Json in
  let inst = Step.start ~limits itpseq (build "peterson") in
  step_n inst 6;
  let file = Filename.temp_file "isr_ck" ".ck" in
  Checkpoint.write file (Step.snapshot inst);
  let text = In_channel.with_open_bin file In_channel.input_all in
  let nl = String.index text '\n' in
  let meta = String.sub text 0 nl in
  let payload = String.sub text (nl + 1) (String.length text - nl - 1) in
  let read ctx contents =
    Out_channel.with_open_bin file (fun oc -> output_string oc contents);
    match Checkpoint.read file with
    | ck -> Some ck
    | exception Failure _ -> None
    | exception e -> Alcotest.failf "%s: Checkpoint.read raised %s" ctx (Printexc.to_string e)
  in
  let refused ctx contents =
    if read ctx contents <> None then Alcotest.failf "%s: Checkpoint.read accepted it" ctx
  in
  let fields = match J.parse meta with J.Obj kvs -> kvs | _ -> Alcotest.fail "meta line" in
  let with_fields kvs = J.render (J.Obj kvs) ^ "\n" ^ payload in
  let set k v = with_fields (List.map (fun (k', v') -> (k', if k' = k then v else v')) fields) in
  let drop k = with_fields (List.remove_assoc k fields) in
  Alcotest.(check bool) "the real checkpoint reads" true (read "original" text <> None);
  refused "empty file" "";
  refused "truncated payload" (String.sub text 0 (String.length text - 1));
  refused "negative byte count" (set "bytes" (J.Num (-5.0)));
  refused "no byte count" (drop "bytes");
  refused "bytes after the payload" (text ^ "x");
  for cut = 0 to String.length text - 1 do
    refused (Printf.sprintf "cut at byte %d" cut) (String.sub text 0 cut)
  done;
  let rng = Random.State.make [| 35 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let values =
    [ J.Num (-5.0); J.Num 1e30; J.Num 0.5; J.Num 99999999999.0; J.Str "x"; J.Null; J.Arr [] ]
  in
  let chars = "0123456789-.e\"{}:,[]x " in
  let mutant () =
    let at = Random.State.int rng (String.length meta) in
    let c () = String.make 1 chars.[Random.State.int rng (String.length chars)] in
    match Random.State.int rng 5 with
    | 0 -> set (fst (pick fields)) (pick values)
    | 1 -> drop (fst (pick fields))
    | 2 -> String.sub meta 0 at ^ String.sub meta (at + 1) (nl - at - 1) ^ "\n" ^ payload
    | 3 -> String.sub meta 0 at ^ c () ^ String.sub meta at (nl - at) ^ "\n" ^ payload
    | _ -> String.sub meta 0 at ^ c () ^ String.sub meta (at + 1) (nl - at - 1) ^ "\n" ^ payload
  in
  let original = Option.get (read "original" text) in
  for i = 1 to 400 do
    let ctx = Printf.sprintf "meta mutant %d" i in
    match read ctx (mutant ()) with
    | Some ck when ck.Checkpoint.engine = original.Checkpoint.engine -> (
      match Step.restore ~limits itpseq (build "peterson") ck with
      | _ -> ()
      | exception Invalid_argument _ -> ())
    | Some _ | None -> ()
  done;
  Sys.remove file

(* The payload records the ITPSEQ, ITPSEQCBA and ITPSEQPBA engines
   marshalled when they were three separate step machines.  Checkpoints
   they wrote must still resume, and new payloads must still read as
   them. *)
module Itpseq_snap = struct
  type t = { s_k : int; s_cols : Checkpoint.cone array }
end

module Cba_snap = struct
  type t = { s_k : int; s_cols : Checkpoint.cone array; s_frozen : bool array }
end

module Pba_snap = struct
  type t = { s_k : int; s_cols : Checkpoint.cone array; s_relevant : bool array }
end

(* Reads a payload as the strategy's old record: its bound, cone count,
   mask length, and the record marshalled afresh. *)
let as_itpseq p =
  let s : Itpseq_snap.t = Marshal.from_string p 0 in
  (s.s_k, Array.length s.s_cols, 0, Marshal.to_string s [])

let as_cba p =
  let s : Cba_snap.t = Marshal.from_string p 0 in
  (s.s_k, Array.length s.s_cols, Array.length s.s_frozen, Marshal.to_string s [])

let as_pba p =
  let s : Pba_snap.t = Marshal.from_string p 0 in
  (s.s_k, Array.length s.s_cols, Array.length s.s_relevant, Marshal.to_string s [])

let payload_compat () =
  let name = "amba3g4" in
  List.iter
    (fun (packed, decode, masked) ->
      let ref_inst = Step.start ~limits packed (build name) in
      let ref_v, _ = Step.drive ref_inst in
      let inst = Step.start ~limits packed (build name) in
      step_n inst (Step.steps_done ref_inst / 2);
      let ctx = Printf.sprintf "%s on %s" (Step.name inst) name in
      let ck = Step.snapshot inst in
      let k, ncols, nmask, old_payload = decode ck.Checkpoint.payload in
      Alcotest.(check bool) (ctx ^ ": mid-run, past bound 1") true (k >= 2);
      Alcotest.(check int) (ctx ^ " s_k") (Step.bound inst) k;
      Alcotest.(check int) (ctx ^ " one cone per entry column") (k - 1) ncols;
      let model = build name in
      Alcotest.(check int) (ctx ^ " mask length")
        (if masked then model.Isr_model.Model.num_latches else 0)
        nmask;
      let inst' = Step.restore ~limits packed model { ck with Checkpoint.payload = old_payload } in
      same_verdict (ctx ^ " from the old record") ref_v (fst (Step.drive inst')))
    [
      (itpseq, as_itpseq, false);
      (sitpseq, as_itpseq, false);
      (itpseqcba, as_cba, true);
      (itpseqpba, as_pba, true);
    ]

(* A checkpoint recorded before narrow models kept their columns as
   truth tables: its cones are the compacted circuits of that time.  It
   still resumes, to the verdict, k_fp and j_fp of an uninterrupted run,
   and the resumed proof certifies. *)
let recorded_checkpoint () =
  let ck = Checkpoint.read "golden/peterson-itpseq-b3.ck" in
  Alcotest.(check string) "engine" "itpseq-assume" ck.Checkpoint.engine;
  Alcotest.(check int) "bound" 4 ck.Checkpoint.bound;
  let model = build "peterson" in
  (match Checkpoint.check_model ck model with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let v, _ = Step.drive (Step.restore ~limits itpseq model ck) in
  (match v with
  | Verdict.Proved { kfp = 11; jfp = 7; _ } -> ()
  | v -> Alcotest.failf "expected PASS (kfp=11, jfp=7), got %a" Verdict.pp v);
  same_verdict "resumed against uninterrupted"
    (fst (Step.drive (Step.start ~limits itpseq (build "peterson"))))
    v;
  match Certify.check_verdict ~limits model v with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "the resumed proof fails certification: %s" msg

(* Steps are what [Sched] interleaves, so each strategy must take as many
   as its engine did as a separate step machine — PBA's concrete solve
   and each CBA refinement are steps of their own. *)
let step_counts () =
  List.iter
    (fun (packed, name, expected) ->
      let inst = Step.start ~limits packed (build name) in
      ignore (Step.drive inst);
      Alcotest.(check int) (Step.name inst ^ " on " ^ name) expected (Step.steps_done inst))
    [
      (itpseq, "amba3g4", 9); (itpseq, "vending7bug", 37);
      (sitpseq, "amba3g4", 9); (sitpseq, "vending7bug", 37);
      (itpseqcba, "amba3g4", 11); (itpseqcba, "vending7bug", 37);
      (itpseqpba, "amba3g4", 12); (itpseqpba, "vending7bug", 44);
    ]

(* Every engine, the portfolio's randsim lane included, on one safe and
   one unsafe instance: the steps its run takes and the MD5 of the
   checkpoint payload it writes half-way.  A step is the unit [Sched]
   interleaves and a payload is what a resume reads, so neither may move
   when the run around the search is reorganised.  BMC never proves:
   on the safe instance it walks to the bound cap, and the cap's answer
   is a step of its own. *)
let engine_pins () =
  let bmc_assume = Bmc.stepper ~check:Bmc.Assume ()
  and bmc_inc = Bmc.stepper ~check:Bmc.Assume ~incremental:true ()
  and bmc_exact = Bmc.stepper ~check:Bmc.Exact ()
  and itp = Itp_verif.stepper ()
  and kind = Kind.stepper ()
  and pdr = Pdr.stepper ()
  and randsim = Portfolio.stepper_of `Randsim in
  List.iter
    (fun (label, packed, name, steps, md5) ->
      let ref_inst = Step.start ~limits packed (build name) in
      ignore (Step.drive ref_inst);
      let ctx = label ^ " on " ^ name in
      Alcotest.(check int) (ctx ^ " steps") steps (Step.steps_done ref_inst);
      let inst = Step.start ~limits packed (build name) in
      step_n inst (Step.steps_done ref_inst / 2);
      let payload = (Step.snapshot inst).Checkpoint.payload in
      Alcotest.(check string) (ctx ^ " midpoint payload md5") md5
        (Digest.to_hex (Digest.string payload)))
    [
      ("bmc-assume", bmc_assume, "amba3g4", 62, "af5a7d7793a1503fa66f4294023c2d3b");
      ("bmc-assume", bmc_assume, "vending7bug", 9, "eddd78d1b1c0cc8b0520817976a750ef");
      ("bmc-assume incremental", bmc_inc, "amba3g4", 62, "af5a7d7793a1503fa66f4294023c2d3b");
      ("bmc-assume incremental", bmc_inc, "vending7bug", 9, "eddd78d1b1c0cc8b0520817976a750ef");
      ("bmc-exact", bmc_exact, "amba3g4", 62, "af5a7d7793a1503fa66f4294023c2d3b");
      ("bmc-exact", bmc_exact, "vending7bug", 9, "eddd78d1b1c0cc8b0520817976a750ef");
      ("itp", itp, "amba3g4", 8, "cbb01419fa57e6d9423e20b814186a29");
      ("itp", itp, "vending7bug", 26, "eddd78d1b1c0cc8b0520817976a750ef");
      ("kind", kind, "amba3g4", 3, "4c53792d0c0347606ac3d0b0cede1d84");
      ("kind", kind, "vending7bug", 9, "eddd78d1b1c0cc8b0520817976a750ef");
      ("pdr", pdr, "amba3g4", 5, "f621d4f1669cb7c2606063652d7fe71d");
      ("pdr", pdr, "vending7bug", 16, "0fd99667366fd7d8b888617b382ded67");
      ("randsim", randsim, "amba3g4", 1, "d41d8cd98f00b204e9800998ecf8427e");
      ("randsim", randsim, "vending7bug", 1, "d41d8cd98f00b204e9800998ecf8427e");
      ("itpseq", itpseq, "amba3g4", 9, "8a1edf6ef2d6cb348ab90081447ee20f");
      ("itpseq", itpseq, "vending7bug", 37, "c0b0fe9c7016e662237aa3ad86b64566");
      ("sitpseq", sitpseq, "amba3g4", 9, "8a1edf6ef2d6cb348ab90081447ee20f");
      ("sitpseq", sitpseq, "vending7bug", 37, "c0b0fe9c7016e662237aa3ad86b64566");
      ("itpseqcba", itpseqcba, "amba3g4", 11, "5082ccc430834502d7ebf48f50afbf48");
      ("itpseqcba", itpseqcba, "vending7bug", 37, "f177d43133fd79a41a24e833755e0531");
      ("itpseqpba", itpseqpba, "amba3g4", 12, "000bd5038ac9cd3109d82a2a886aec11");
      ("itpseqpba", itpseqpba, "vending7bug", 44, "4c3255c6833e5c7d0ad12fd0ac64684a");
    ]

(* --- scheduler ------------------------------------------------------------ *)

let lane_members =
  [ ("itpseq", itpseq); ("sitpseq", sitpseq); ("kind", Kind.stepper ()) ]

let mk_lanes model_name =
  List.mapi
    (fun i (name, p) ->
      { Sched.id = i; name; weight = 1; inst = Step.start ~lane:i ~limits p (build model_name) })
    lane_members

let solo_verdicts model_name =
  List.map
    (fun (_, p) -> fst (Step.drive (Step.start ~limits p (build model_name))))
    lane_members

(* Any step schedule — an arbitrary recorded prefix, then fair
   round-robin — must crown a winner whose verdict equals that engine's
   solo verdict: interleaving never changes what an engine computes. *)
let qcheck_interleaving =
  let model_name = "eijkring8" in
  let solo = lazy (solo_verdicts model_name) in
  let gen = QCheck.(list_of_size (Gen.int_range 0 60) (int_bound (List.length lane_members - 1))) in
  QCheck.Test.make ~count:8 ~name:"interleaving invariance (itpseq columns)" gen
    (fun schedule ->
      let run () =
        match Sched.run ~schedule ~into:(Verdict.mk_stats ()) (mk_lanes model_name) with
        | Sched.Winner { lane; verdict } -> (lane.Sched.id, verdict)
        | Sched.Exhausted _ -> QCheck.Test.fail_report "no lane converged"
      in
      let id, v = run () in
      let id', v' = run () in
      (* replay determinism: the same schedule crowns the same winner *)
      if id <> id' then QCheck.Test.fail_report "same schedule, different winner";
      same_verdict "replayed winner" v v';
      (* and the winner's verdict is its solo verdict *)
      same_verdict (Printf.sprintf "lane %d vs solo" id) (List.nth (Lazy.force solo) id) v;
      true)

(* Exhaustion path: lanes that retire Unknown roll their reasons up and
   the refill hook hands work over exactly once per retirement. *)
let sched_exhaustion () =
  let tight = { limits with bound_limit = 3 } in
  let mk i = { Sched.id = i; name = "bmc"; weight = 2;
               inst = Step.start ~lane:i ~limits:tight (Bmc.stepper ()) (build "eijkring8") } in
  let handed = ref false in
  let refill () = if !handed then None else begin handed := true; Some (mk 7) end in
  match Sched.run ~refill ~into:(Verdict.mk_stats ()) [ mk 0; mk 1 ] with
  | Sched.Winner _ -> Alcotest.fail "BMC cannot prove a safe model"
  | Sched.Exhausted { reasons } ->
    Alcotest.(check int) "three retirements (two seeds + one refill)" 3 (List.length reasons);
    Alcotest.(check bool) "hand-off consumed" true !handed;
    List.iter
      (function Verdict.Bound_limit _ -> () | r ->
        Alcotest.failf "unexpected reason %a" Verdict.pp (Verdict.Unknown r))
      reasons

(* --- engine naming -------------------------------------------------------- *)

(* of_name (name e) = Ok e, for the paper engines and every constructor
   family at assorted parameters — the contract engine.mli documents
   (this is the drift the CLI help and docs regressed on before). *)
let name_roundtrip () =
  let variants =
    Engine.all
    @ [
        Engine.Bmc_only Bmc.Assume; Engine.Bmc_only Bmc.Exact; Engine.Bmc_only Bmc.Bound;
        Engine.Itp; Engine.Itpseq Bmc.Assume; Engine.Itpseq Bmc.Exact;
        Engine.Sitpseq (0.5, Bmc.Assume); Engine.Sitpseq (0.25, Bmc.Exact);
        Engine.Sitpseq (1.0, Bmc.Assume);
        Engine.Itpseq_cba (0.5, Bmc.Exact); Engine.Itpseq_cba (0.75, Bmc.Assume);
        Engine.Itpseq_pba (0.0, Bmc.Exact); Engine.Itpseq_pba (0.3, Bmc.Assume);
        Engine.Kind; Engine.Pdr; Engine.Portfolio;
      ]
  in
  List.iter
    (fun e ->
      let n = Engine.name e in
      match Engine.of_name n with
      | Ok e' when e' = e -> ()
      | Ok e' ->
        Alcotest.failf "of_name %S: got %s, expected the original" n (Engine.name e')
      | Error msg -> Alcotest.failf "of_name %S rejected: %s" n msg)
    variants;
  (match Engine.of_name "sitpseq1.5-assume" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "alpha out of range accepted")

(* The kernel spelling must match the façade spelling: checkpoints
   written under one name must resolve back to the same engine. *)
let stepper_names () =
  List.iter
    (fun e ->
      match Engine.stepper e with
      | None -> Alcotest.(check bool) "only portfolio lacks a stepper" true (e = Engine.Portfolio)
      | Some (Step.Packed k) ->
        Alcotest.(check string) "stepper name" (Engine.name e) k.Step.name)
    (Engine.Portfolio :: Engine.Bmc_only Bmc.Assume :: Engine.Kind :: Engine.Pdr
     :: Engine.Itpseq_pba (0.0, Bmc.Exact) :: Engine.all)

(* The cancel token is an argument, not domain state: an instance
   started in this domain and driven in another stops when the token is
   set from here. *)
let token_crosses_domains () =
  let token = Atomic.make false in
  let packed =
    match Result.map Engine.stepper (Engine.of_name "sitpseq0.5-exact") with
    | Ok (Some p) -> p
    | _ -> Alcotest.fail "no sitpseq stepper"
  in
  let inst = Step.start ~limits ~cancel:token packed (build "fifo3") in
  let d =
    Domain.spawn (fun () ->
        match Step.drive inst with exception Budget.Cancelled -> None | v, _ -> Some v)
  in
  Unix.sleepf 0.05;
  Atomic.set token true;
  match Domain.join d with
  | None -> ()
  | Some v -> Alcotest.failf "fifo3 ran to %a past its token" Verdict.pp v

(* Random simulation hits vending7bug; the BMC run that minimises the
   hit runs under the lane's token, so a set token stops it. *)
let randsim_minimisation_cancelled () =
  Alcotest.(check bool) "random simulation hits the bug" true
    (Isr_model.Rand_sim.falsify (build "vending7bug") <> None);
  let inst =
    Step.start ~limits ~cancel:(Atomic.make true) (Portfolio.stepper_of `Randsim)
      (build "vending7bug")
  in
  match Step.step inst with
  | exception Budget.Cancelled -> ()
  | _ -> Alcotest.fail "the minimising BMC run ignored the lane's token"

let () =
  Alcotest.run "step"
    [
      ("roundtrip", roundtrip_tests);
      ("cut-points", cut_point_tests);
      ( "envelope",
        [
          Alcotest.test_case "mismatched restores are refused" `Quick restore_mismatch;
          Alcotest.test_case "file round-trip preserves meta" `Quick ckpt_file_roundtrip;
          Alcotest.test_case "elapsed accumulates across resumes" `Quick ckpt_elapsed_accumulates;
          Alcotest.test_case "malformed envelopes fail with Failure" `Quick ckpt_malformed;
          Alcotest.test_case "itpseq payloads keep their record layouts" `Quick payload_compat;
          Alcotest.test_case "itpseq step counts per strategy" `Quick step_counts;
          Alcotest.test_case "every engine's steps and midpoint payload" `Quick engine_pins;
          Alcotest.test_case "a recorded itpseq checkpoint resumes" `Quick recorded_checkpoint;
        ] );
      ( "sched",
        [
          QCheck_alcotest.to_alcotest qcheck_interleaving;
          Alcotest.test_case "exhaustion + work hand-off" `Quick sched_exhaustion;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "a token set in another domain" `Quick token_crosses_domains;
          Alcotest.test_case "randsim's minimisation" `Quick randsim_minimisation_cancelled;
        ] );
      ( "naming",
        [
          Alcotest.test_case "of_name (name e) = Ok e" `Quick name_roundtrip;
          Alcotest.test_case "stepper names match engine names" `Quick stepper_names;
        ] );
    ]
