open Isr_aig
open Isr_model
module Level = Isr_check_core.Level
module Diag = Isr_check_core.Diag
module Metrics = Isr_obs.Metrics
module Event = Isr_obs.Event
module Solver = Isr_sat.Solver
module Lit = Isr_sat.Lit
module Tseitin = Isr_cnf.Tseitin
module Fraig = Isr_fraig.Fraig

type mode = Off | Fast | Full

let mode_to_string = function Off -> "off" | Fast -> "fast" | Full -> "full"

let mode_of_string = function
  | "off" -> Ok Off
  | "fast" -> Ok Fast
  | "full" -> Ok Full
  | s -> Error (Printf.sprintf "unknown analysis mode %S (expected off, fast or full)" s)

type verdict = Safe of { invariant : Aig.lit } | Unsafe of { trace : Trace.t }

type pass_stats = {
  pass : string;
  ands_before : int;
  ands_after : int;
  latches_before : int;
  latches_after : int;
  claims : int;
}

type result = {
  original : Model.t;
  model : Model.t;
  lift : Trace.t -> Trace.t;
  verdict : verdict option;
  diags : Diag.t list;
  passes : pass_stats list;
}

(* ---------------------------------------------------------------------- *)
(* Certificates.  Every claim is phrased as an UNSAT query over a
   combinational cone, discharged by a fresh solver — [`Certified] means
   the SAT certificate went through, [`Unknown] that the conflict budget
   ran out (the caller must then forgo the rewrite, never trust it). *)

let sat_conj ?(conflict_budget = 100_000) man lits =
  (* Only the answer is read; Paranoid logs to replay the refutation. *)
  let solver = Solver.create ~proof:(Level.paranoid ()) () in
  let input_vars = Hashtbl.create 16 in
  let input_lit i =
    match Hashtbl.find_opt input_vars i with
    | Some l -> l
    | None ->
      let l = Lit.pos (Solver.new_var solver) in
      Hashtbl.add input_vars i l;
      l
  in
  let ctx = Tseitin.create ~man ~solver ~tag:1 ~input_lit in
  List.iter (fun l -> Tseitin.assert_lit ctx l) lits;
  match Solver.solve ~conflict_budget solver with
  | Solver.Unsat -> Some false
  | Solver.Sat -> Some true
  | Solver.Undef -> None

let discharge ~check ~detail man conj =
  match sat_conj man conj with
  | Some false ->
    Level.record check;
    `Certified
  | Some true -> Level.violated check ~detail
  | None -> `Unknown

(* Pooled model-equivalence miter: old and new model share the input and
   latch geometry; one UNSAT query certifies that the bad cone and every
   next-state function agree. *)
let equiv_claim ~check (old_m : Model.t) (new_m : Model.t) =
  let mm = Aig.create () in
  let n = old_m.Model.num_inputs + old_m.Model.num_latches in
  let ins = Array.init n (fun _ -> Aig.fresh_input mm) in
  let cp_old = Aig.copier ~src:old_m.Model.man ~dst:mm ~map:(fun i -> ins.(i)) in
  let cp_new = Aig.copier ~src:new_m.Model.man ~dst:mm ~map:(fun i -> ins.(i)) in
  let pairs =
    (old_m.Model.bad, new_m.Model.bad)
    :: List.combine (Array.to_list old_m.Model.next) (Array.to_list new_m.Model.next)
  in
  let diff =
    Aig.big_or mm (List.map (fun (a, b) -> Aig.xor_ mm (cp_old a) (cp_new b)) pairs)
  in
  discharge ~check ~detail:"simplified model differs from its source" mm [ diff ]

(* ---------------------------------------------------------------------- *)
(* The pass chain.  [lift] maps traces of the current model back onto the
   original; [unlift] maps state predicates (invariant conjuncts) of the
   current manager back onto the original manager.  [inv_facts] are the
   stuck-at facts already baked into the current model, expressed on the
   original manager — a Safe certificate must conjoin them. *)

type chain = {
  original : Model.t;
  mutable m : Model.t;
  mutable lift : Trace.t -> Trace.t;
  mutable unlift : Aig.lit -> Aig.lit;
  mutable inv_facts : Aig.lit list;
  mutable diags : Diag.t list;
  mutable passes : pass_stats list;
}

let add_diag c d = c.diags <- d :: c.diags

let record_pass c ~pass ~before ~claims =
  let ands_before = Model.num_ands before and ands_after = Model.num_ands c.m in
  let st =
    {
      pass;
      ands_before;
      ands_after;
      latches_before = before.Model.num_latches;
      latches_after = c.m.Model.num_latches;
      claims;
    }
  in
  c.passes <- st :: c.passes;
  if Event.enabled () then
    Event.emit
      (Event.Analyze
         {
           pass;
           ands_before;
           ands_after;
           latches_before = st.latches_before;
           latches_after = st.latches_after;
         })

let fact_lit (m : Model.t) (i, b) =
  let l = Model.latch_lit m i in
  if b then l else Aig.not_ l

(* --- constant propagation and stuck-at latch elimination --------------- *)

let const_pass c =
  let m = c.m in
  let ni = m.Model.num_inputs and nl = m.Model.num_latches in
  let man = m.Model.man in
  let fix = Ternary.lfp m in
  let consts =
    List.filter_map
      (fun i -> Option.map (fun b -> (i, b)) (Ternary.to_bool fix.(i)))
      (List.init nl Fun.id)
  in
  (* X-insensitive logic: AND nodes constant under the fixpoint state. *)
  let xin = Array.make ni Ternary.X in
  let tvs =
    Ternary.node_values man
      ~env:(Ternary.env_of m ~state:fix ~inputs:xin)
      (m.Model.bad :: Array.to_list m.Model.next)
  in
  let const_nodes = ref [] in
  Ternary.iter_ands tvs ~f:(fun node tv ->
      match Ternary.to_bool tv with
      | Some b -> const_nodes := (node, b) :: !const_nodes
      | None -> ());
  if consts = [] && !const_nodes = [] then ()
  else begin
    let facts = List.map (fact_lit m) consts in
    let claims = ref 0 in
    let certified =
      if not (Level.on ()) then true
      else begin
        (* Initiation is structural; consecution is one pooled
           1-induction query: facts ∧ (∨ next_i ≠ c_i) must be UNSAT. *)
        List.iter
          (fun (i, b) ->
            Level.check "analyze.stuck_latch.init"
              ~detail:(fun () -> Printf.sprintf "latch %d: init disagrees with fixpoint" i)
              (m.Model.init.(i) = b))
          consts;
        match consts with
        | [] -> true
        | _ -> (
          let breach =
            Aig.big_or man
              (List.map
                 (fun (i, b) ->
                   if b then Aig.not_ m.Model.next.(i) else m.Model.next.(i))
                 consts)
          in
          incr claims;
          match
            discharge ~check:"analyze.stuck_latch.induct"
              ~detail:"ternary fixpoint found a non-inductive stuck-at latch" man
              (facts @ [ breach ])
          with
          | `Certified -> true
          | `Unknown -> false)
      end
    in
    (* At Paranoid additionally certify the X-insensitive AND nodes with
       one pooled query: facts ∧ (∨ node ≠ c) must be UNSAT. *)
    let fold_nodes_ok =
      if not (Level.paranoid ()) || !const_nodes = [] then true
      else begin
        let breaches =
          List.map (fun (node, b) -> if b then Aig.not_ (node lsl 1) else node lsl 1) !const_nodes
        in
        incr claims;
        match
          discharge ~check:"analyze.const_node"
            ~detail:"ternary evaluation found a non-constant X-insensitive node" man
            (facts @ [ Aig.big_or man breaches ])
        with
        | `Certified -> true
        | `Unknown -> false
      end
    in
    if not certified then
      add_diag c
        (Diag.warning ~check:"analyze.stuck_latch"
           ~hint:"raise the certificate conflict budget"
           "stuck-at certificate undischarged within budget; pass skipped")
    else begin
      (* Every copied node lies in the cones [tvs] evaluated. *)
      let folded node =
        if fold_nodes_ok && Aig.is_and man (node lsl 1) then
          Ternary.to_bool (Ternary.lit_value tvs (node lsl 1))
        else None
      in
      if not fold_nodes_ok then
        add_diag c
          (Diag.warning ~check:"analyze.const_node"
             "constant-node certificate undischarged within budget; folds dropped");
      List.iter
        (fun (i, b) ->
          add_diag c
            (Diag.warningf ~check:"analyze.stuck_latch" ~loc:(Printf.sprintf "latch %d" i)
               "stuck at %c in every reachable state" (if b then '1' else '0')))
        consts;
      (* Rebuild: eliminated latches become constants, constant AND nodes
         fold away, everything else copies structurally. *)
      let const_of_latch = Array.make nl None in
      List.iter (fun (i, b) -> const_of_latch.(i) <- Some b) consts;
      let kept =
        Array.of_list
          (List.filter (fun i -> const_of_latch.(i) = None) (List.init nl Fun.id))
      in
      let b = Builder.create (m.Model.name ^ "_const") in
      let new_pis = Array.init ni (fun _ -> Builder.input b) in
      let new_latches =
        Array.map (fun oi -> Builder.latch b ~init:m.Model.init.(oi) ()) kept
      in
      let latch_slot = Array.make nl Aig.lit_false in
      Array.iteri (fun j oi -> latch_slot.(oi) <- new_latches.(j)) kept;
      let map i =
        if i < ni then new_pis.(i)
        else
          match const_of_latch.(i - ni) with
          | Some true -> Aig.lit_true
          | Some false -> Aig.lit_false
          | None -> latch_slot.(i - ni)
      in
      let dst = Builder.man b in
      let memo = Hashtbl.create 256 in
      let rec copy_lit l =
        let node = Aig.node_of l in
        let v =
          match Hashtbl.find_opt memo node with
          | Some v -> v
          | None ->
            let v =
              match folded node with
              | Some cb -> if cb then Aig.lit_true else Aig.lit_false
              | None ->
                let l0 = node lsl 1 in
                if Aig.is_const man l0 then Aig.lit_false
                else if Aig.is_input man l0 then map (Aig.input_index man l0)
                else begin
                  let f0, f1 = Aig.fanins man l0 in
                  Aig.and_ dst (copy_lit f0) (copy_lit f1)
                end
            in
            Hashtbl.add memo node v;
            v
        in
        if Aig.is_complemented l then Aig.not_ v else v
      in
      Array.iteri
        (fun j oi -> Builder.set_next b new_latches.(j) (copy_lit m.Model.next.(oi)))
        kept;
      let m' = Builder.finish b ~bad:(copy_lit m.Model.bad) in
      (* Bake the discharged facts into the running invariant (on the
         original manager) and compose the predicate back-map. *)
      let unlift_old = c.unlift in
      c.inv_facts <- List.rev_append (List.map unlift_old facts) c.inv_facts;
      let back =
        Aig.copier ~src:m'.Model.man ~dst:man
          ~map:(fun i ->
            if i < ni then Aig.input man i else Model.latch_lit m kept.(i - ni))
      in
      c.unlift <- (fun l -> unlift_old (back l));
      (* Primary inputs are untouched, so traces lift unchanged. *)
      c.m <- m';
      record_pass c ~pass:"const" ~before:m ~claims:!claims
    end
  end

(* --- dangling-logic removal ------------------------------------------- *)

let dangling_pass c =
  let m = c.m in
  let dead = Aig.num_ands m.Model.man - Model.num_ands m in
  if dead > 0 then begin
    let man = m.Model.man in
    let ni = m.Model.num_inputs in
    let b = Builder.create (m.Model.name ^ "_dang") in
    let new_pis = Array.init ni (fun _ -> Builder.input b) in
    let new_latches =
      Array.init m.Model.num_latches (fun i -> Builder.latch b ~init:m.Model.init.(i) ())
    in
    let map i = if i < ni then new_pis.(i) else new_latches.(i - ni) in
    let copy = Aig.copier ~src:man ~dst:(Builder.man b) ~map in
    Array.iteri (fun i _ -> Builder.set_next b new_latches.(i) (copy m.Model.next.(i))) m.Model.next;
    let m' = Builder.finish b ~bad:(copy m.Model.bad) in
    let claims = ref 0 in
    let ok =
      if not (Level.paranoid ()) then true
      else begin
        incr claims;
        match equiv_claim ~check:"analyze.dangling.miter" m m' with
        | `Certified -> true
        | `Unknown -> false
      end
    in
    if not ok then
      add_diag c
        (Diag.warning ~check:"analyze.dangling"
           "dangling-removal miter undischarged within budget; pass skipped")
    else begin
      add_diag c
        (Diag.warningf ~check:"analyze.dangling" "%d dangling AND node%s removed" dead
           (if dead = 1 then "" else "s"));
      let unlift_old = c.unlift in
      let back =
        Aig.copier ~src:m'.Model.man ~dst:man ~map:(fun i -> Aig.input man i)
      in
      c.unlift <- (fun l -> unlift_old (back l));
      c.m <- m';
      record_pass c ~pass:"dangling" ~before:m ~claims:!claims
    end
  end

(* --- cone-of-influence reduction --------------------------------------- *)

let coi_pass c =
  let m = c.m in
  let r = Coi.reduce m in
  let m' = r.Coi.model in
  if
    m'.Model.num_latches = m.Model.num_latches
    && m'.Model.num_inputs = m.Model.num_inputs
  then ()
  else begin
    let claims = ref 0 in
    let ok =
      if not (Level.on ()) then true
      else begin
        (* The closure itself is structural (Builder.finish validated the
           reduced model); at Paranoid a pooled miter re-derives the kept
           cones from the original manager. *)
        Level.record "analyze.coi.closure";
        if not (Level.paranoid ()) then true
        else begin
          let man = m.Model.man in
          let back_map i =
            if i < m'.Model.num_inputs then Model.input_lit m r.Coi.kept_inputs.(i)
            else Model.latch_lit m r.Coi.kept_latches.(i - m'.Model.num_inputs)
          in
          let cp = Aig.copier ~src:m'.Model.man ~dst:man ~map:back_map in
          let pairs =
            (m.Model.bad, cp m'.Model.bad)
            :: List.map
                 (fun j ->
                   (m.Model.next.(r.Coi.kept_latches.(j)), cp m'.Model.next.(j)))
                 (List.init m'.Model.num_latches Fun.id)
          in
          let diff =
            Aig.big_or man (List.map (fun (a, b) -> Aig.xor_ man a b) pairs)
          in
          incr claims;
          match
            discharge ~check:"analyze.coi.miter"
              ~detail:"reduced cone disagrees with the original" man [ diff ]
          with
          | `Certified -> true
          | `Unknown -> false
        end
      end
    in
    if not ok then
      add_diag c
        (Diag.warning ~check:"analyze.coi"
           "cone-of-influence miter undischarged within budget; pass skipped")
    else begin
      add_diag c
        (Diag.warningf ~check:"analyze.coi" "kept %d/%d latches, %d/%d inputs"
           m'.Model.num_latches m.Model.num_latches m'.Model.num_inputs
           m.Model.num_inputs);
      let unlift_old = c.unlift and lift_old = c.lift in
      let ni' = m'.Model.num_inputs in
      let back =
        Aig.copier ~src:m'.Model.man ~dst:m.Model.man
          ~map:(fun i ->
            if i < ni' then Model.input_lit m r.Coi.kept_inputs.(i)
            else Model.latch_lit m r.Coi.kept_latches.(i - ni'))
      in
      c.unlift <- (fun l -> unlift_old (back l));
      c.lift <- (fun tr -> lift_old (Coi.lift_trace r tr));
      c.m <- m';
      record_pass c ~pass:"coi" ~before:m ~claims:!claims
    end
  end

(* --- SAT sweeping (semantic node merging) ------------------------------ *)

let fraig_pass c =
  let m = c.m in
  let m', merges = Fraig.sweep m in
  let shrunk = Model.num_ands m' < Model.num_ands m in
  if merges = 0 && not shrunk then ()
  else begin
    (* Every merge was already discharged by a SAT miter inside the
       sweep; at Paranoid one pooled whole-model miter re-checks the
       composition. *)
    let claims = ref merges in
    if Level.on () then
      for _ = 1 to merges do
        Level.record "analyze.fraig.merge"
      done;
    let ok =
      if not (Level.paranoid ()) then true
      else begin
        incr claims;
        match equiv_claim ~check:"analyze.fraig.miter" m m' with
        | `Certified -> true
        | `Unknown -> false
      end
    in
    if not ok then
      add_diag c
        (Diag.warning ~check:"analyze.fraig"
           "sweep miter undischarged within budget; pass skipped")
    else begin
      add_diag c
        (Diag.warningf ~check:"analyze.fraig" "%d semantic merge%s" merges
           (if merges = 1 then "" else "s"));
      let unlift_old = c.unlift in
      let back =
        Aig.copier ~src:m'.Model.man ~dst:m.Model.man
          ~map:(fun i -> Aig.input m.Model.man i)
      in
      c.unlift <- (fun l -> unlift_old (back l));
      c.m <- m';
      record_pass c ~pass:"fraig" ~before:m ~claims:!claims
    end
  end

(* --- trivial-verdict detection ----------------------------------------- *)

(* Safe: bad is ternary-false under the reachability fixpoint.  The
   certificate is an inductive invariant on the ORIGINAL model: the
   accumulated stuck-at facts plus the current fixpoint constants. *)
let try_safe c =
  let m = c.m in
  let fix = Ternary.lfp m in
  let xin = Array.make m.Model.num_inputs Ternary.X in
  if Ternary.bad_now m ~state:fix ~inputs:xin <> Ternary.F then None
  else begin
    let facts_m =
      List.filter_map
        (fun i -> Option.map (fun b -> fact_lit m (i, b)) (Ternary.to_bool fix.(i)))
        (List.init m.Model.num_latches Fun.id)
    in
    let o = c.original in
    let man = o.Model.man in
    let invariant =
      Aig.big_and man (List.rev_append c.inv_facts (List.map c.unlift facts_m))
    in
    let certified =
      if not (Level.on ()) then true
      else begin
        (* Initiation: the invariant is a latch predicate — evaluate it
           under the initial state. *)
        let env i =
          if i < o.Model.num_inputs then false
          else o.Model.init.(i - o.Model.num_inputs)
        in
        Level.check "analyze.invariant.init"
          ~detail:(fun () -> "analyzer invariant does not hold initially")
          (Aig.eval man env invariant);
        (* Consecution: invariant ∧ ¬invariant[latch := next] UNSAT. *)
        let sigma i =
          if i < o.Model.num_inputs then Aig.input man i
          else o.Model.next.(i - o.Model.num_inputs)
        in
        let inv' = Aig.substitute man sigma invariant in
        match
          discharge ~check:"analyze.invariant.consecution"
            ~detail:"analyzer invariant is not inductive on the original model" man
            [ invariant; Aig.not_ inv' ]
        with
        | `Unknown -> false
        | `Certified -> (
          (* Safety: invariant ∧ bad UNSAT — on the original model. *)
          match
            discharge ~check:"analyze.invariant.safety"
              ~detail:"analyzer invariant does not exclude the bad states" man
              [ invariant; o.Model.bad ]
          with
          | `Unknown -> false
          | `Certified -> true)
      end
    in
    if certified then begin
      add_diag c
        (Diag.warning ~check:"analyze.verdict"
           "property proved by static analysis (bad unreachable in the ternary fixpoint)");
      Some (Safe { invariant })
    end
    else begin
      add_diag c
        (Diag.warning ~check:"analyze.verdict"
           "ternary fixpoint proves the property but the invariant certificate \
            is undischarged; verdict withheld");
      None
    end
  end

(* Unsafe: bad already hit at depth 0 under the initial state — by
   ternary evaluation (any inputs work) or by a 64-lane random probe.
   The witness is lifted through the pass chain and replayed on the
   original model. *)
let try_unsafe c =
  let m = c.m in
  let ni = m.Model.num_inputs in
  let init_tv = Array.map Ternary.of_bool m.Model.init in
  let xin = Array.make ni Ternary.X in
  let frame =
    match Ternary.bad_now m ~state:init_tv ~inputs:xin with
    | Ternary.T -> Some (Array.make ni false)
    | Ternary.F -> None
    | Ternary.X ->
      let state = Isr_model.Rand_sim.init64 m in
      let frame64 = Isr_model.Rand_sim.frame64 m ~latch_mask:(fun _ -> false) in
      let rand = Random.State.make [| 0xd0a11 |] in
      let rec probe k =
        if k = 0 then None
        else begin
          let words = Array.init ni (fun _ -> Random.State.bits64 rand) in
          let fr = frame64 ~state ~input:(fun i -> words.(i)) in
          if fr.Isr_model.Rand_sim.bad <> 0L then begin
            let rec lane b =
              if Int64.logand (Int64.shift_right_logical fr.Isr_model.Rand_sim.bad b) 1L = 1L
              then b
              else lane (b + 1)
            in
            let bix = lane 0 in
            Some
              (Array.map
                 (fun w -> Int64.logand (Int64.shift_right_logical w bix) 1L = 1L)
                 words)
          end
          else probe (k - 1)
        end
      in
      probe 4
  in
  match frame with
  | None -> None
  | Some frame ->
    let tr_m = { Trace.inputs = [| frame |] } in
    if not (Sim.check_trace m tr_m) then begin
      add_diag c
        (Diag.error ~check:"analyze.verdict"
           "depth-0 witness does not replay on the analyzed model");
      None
    end
    else begin
      let tr = c.lift tr_m in
      if Sim.check_trace c.original tr then begin
        if Level.on () then Level.record "analyze.cex_replay";
        add_diag c
          (Diag.warning ~check:"analyze.verdict"
             "property falsified at depth 0 by static analysis");
        Some (Unsafe { trace = tr })
      end
      else begin
        (* A lift that breaks replay is a bug in the pass chain. *)
        if Level.on () then
          Level.violated "analyze.cex_replay"
            ~detail:"lifted depth-0 witness fails to replay on the original model";
        add_diag c
          (Diag.error ~check:"analyze.cex_replay"
             "lifted depth-0 witness fails to replay on the original model");
        None
      end
    end

let try_verdict c =
  match try_unsafe c with Some v -> Some v | None -> try_safe c

(* ---------------------------------------------------------------------- *)

let total_claims (r : result) = List.fold_left (fun a p -> a + p.claims) 0 r.passes

let record_metrics ?(registry : Metrics.t option) (r : result) ~time_s =
  match registry with
  | None -> ()
  | Some reg ->
    let g name v = Metrics.set (Metrics.gauge reg name) v in
    let gi name v = g name (float_of_int v) in
    gi "analyze.ands_before" (Model.num_ands r.original);
    gi "analyze.ands_after" (Model.num_ands r.model);
    gi "analyze.latches_before" r.original.Model.num_latches;
    gi "analyze.latches_after" r.model.Model.num_latches;
    gi "analyze.inputs_before" r.original.Model.num_inputs;
    gi "analyze.inputs_after" r.model.Model.num_inputs;
    g "analyze.time_s" time_s;
    gi "analyze.trivial_verdict"
      (match r.verdict with None -> 0 | Some (Safe _) -> 1 | Some (Unsafe _) -> 2);
    Metrics.add (Metrics.counter reg "analyze.passes") (List.length r.passes);
    Metrics.add (Metrics.counter reg "analyze.claims") (total_claims r)

let run ?(mode = Fast) ?registry (original : Model.t) =
  let t0 = Isr_obs.Clock.now () in
  let c =
    {
      original;
      m = original;
      lift = Fun.id;
      unlift = Fun.id;
      inv_facts = [];
      diags = [];
      passes = [];
    }
  in
  let verdict = ref None in
  if mode <> Off then begin
    verdict := try_verdict c;
    let passes =
      [ const_pass; dangling_pass; coi_pass ] @ if mode = Full then [ fraig_pass ] else []
    in
    List.iter
      (fun pass ->
        if !verdict = None then begin
          pass c;
          verdict := try_verdict c
        end)
      passes
  end;
  let r =
    {
      original;
      model = c.m;
      lift = c.lift;
      verdict = !verdict;
      diags = List.rev c.diags;
      passes = List.rev c.passes;
    }
  in
  record_metrics ?registry r ~time_s:(Isr_obs.Clock.now () -. t0);
  r

let pp_summary fmt (r : result) =
  let open Format in
  let table =
    match r.passes with
    | [] -> [ "analyze: no reduction applied" ]
    | ps ->
      sprintf "%-9s %19s %15s %7s" "pass" "ANDs" "latches" "claims"
      :: List.map
           (fun p ->
             sprintf "%-9s %8d -> %8d %6d -> %5d %7d" p.pass p.ands_before p.ands_after
               p.latches_before p.latches_after p.claims)
           ps
  in
  let verdict =
    match r.verdict with
    | Some (Safe _) -> [ "verdict: SAFE (inductive invariant certificate)" ]
    | Some (Unsafe { trace }) ->
      [ sprintf "verdict: UNSAFE (depth-%d witness)" (Trace.depth trace) ]
    | None -> []
  in
  (* Breaks go between lines only: the caller ends the last one. *)
  fprintf fmt "@[<v>%a@]" (pp_print_list pp_print_string) (table @ verdict)
