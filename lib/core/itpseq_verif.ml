open Isr_sat
open Isr_aig
open Isr_model

let src = Logs.Src.create "isr.itpseq" ~doc:"interpolation sequence engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* [None] shadows the option constructor from here on; the few option
   values below are typed by their context. *)
type abstraction = None | Cba of float | Pba of float

(* --- step-wise state machine -------------------------------------------
   One step is the depth-0 check, PBA's concrete solve at the current
   bound, one (abstract) attempt at the bound's family — which CBA may
   answer by refining and staying — or one inclusion test of the sweep.
   Snapshots capture the columns and the abstraction mask as they stood
   at entry of the current bound, so a resume re-drives the bound — its
   solves, refinements and sweep are all deterministic. *)

type 'c phase =
  | Check0                                   (* init ∧ bad *)
  | Concrete                                 (* PBA: concrete solve at [k], harvest core *)
  | Family of Unroll.t option
      (* solve bound [k] on the abstraction, extract the sequence; PBA
         carries its concrete refutation to fall back on *)
  | Sweep of { j : int; r : 'c }             (* test ℐ_j ⇒ R_{j-1} = r *)

(* --- columns ------------------------------------------------------------
   How a run keeps its columns ℐ_j and the sweep's R_j: the step machine
   below needs only these operations.  Three stores implement them:
   circuits in a state space of their own ([aig_columns]), truth tables
   on models of at most [Truth.max_vars] latches ([table_columns]), and
   both side by side at the Paranoid level ([checked_columns]). *)

type 'c columns = {
  conjoin : k:int -> 'c array -> Aig.lit array -> 'c array;
      (* the entry columns and bound [k]'s family (in the model's
         manager): ℐ_j ∧ I^k_j for the interior terms, then column k *)
  init : unit -> 'c;                         (* R_0, the initial state *)
  disj : 'c -> 'c -> 'c;
  implies : k:int -> j:int -> 'c -> 'c -> bool;
  next_bound : unit -> unit;
  invariant : 'c -> Aig.lit;                 (* R, in the model's manager *)
  to_cones : 'c array -> Checkpoint.cone array;
  of_cones : Checkpoint.cone array -> 'c array;
}

(* Paranoid: decide that a compacted column is equivalent to its
   original, on a session with its own budget and registry so the run's
   conflict budget and counts do not depend on the check level; the
   run's cancel token still stops it. *)
let check_equiv (run : Step.run) space ~k ~j c c' =
  if Isr_check.Level.paranoid () then begin
    let budget = Budget.start ?cancel:(Budget.cancel run.budget) run.limits in
    let incl = Incl.create budget (Verdict.mk_stats ()) space in
    let fwd = Incl.implies incl c c' and bwd = Incl.implies incl c' c in
    Isr_check.Level.check "itpseq.compact_equiv" (fwd && bwd) ~detail:(fun () ->
        Printf.sprintf "k=%d column %d: original => compacted %b, compacted => original %b" k j
          fwd bwd)
  end

(* Rebuild every column in BDD-canonical form and keep the smaller
   circuit.  Columns feed only [Incl], which answers semantically, so
   this changes no verdict, k_fp/j_fp or interpolant — only the size of
   what every sweep check encodes or simulates. *)
let compact_columns run space ~k columns =
  let before = ref 0 and after = ref 0 in
  Isr_obs.Trace.span "itpseq.compact"
    ~args:[ ("k", string_of_int k) ]
    ~end_args:(fun () ->
      [ ("nodes_before", string_of_int !before); ("nodes_after", string_of_int !after) ])
    (fun () ->
      Array.mapi
        (fun idx c ->
          let c', b, a = Isr_bdd.Compact.column space c in
          before := !before + b;
          after := !after + a;
          if c' <> c then check_equiv run space ~k ~j:(idx + 1) c c';
          c')
        columns)

(* Columns as circuits in a state space of their own (a manager without
   transition logic), decided by an [Incl] session charged to [budget]
   and [stats].  Compaction then adds no node to the model's manager,
   where a later interpolant could hash-cons onto it: that would
   renumber the cone the serial families encode, and change their
   search. *)
let aig_columns (run : Step.run) budget stats space =
  let model = run.model in
  let man = space.Model.man in
  let incl = Incl.create budget stats space in
  {
    conjoin =
      (fun ~k entry family ->
        let copy = Aig.copier ~src:model.Model.man ~dst:man ~map:(Aig.input man) in
        let columns =
          Array.init k (fun idx ->
              let itp = copy family.(idx) in
              if idx < Array.length entry then Aig.and_ man entry.(idx) itp else itp)
        in
        compact_columns run space ~k columns);
    init = (fun () -> Model.init_lit space);
    disj = Aig.or_ man;
    implies = (fun ~k:_ ~j:_ c r -> Incl.implies incl c r);
    next_bound = (fun () -> Incl.reset incl);
    invariant =
      (fun r -> Aig.copier ~src:man ~dst:model.Model.man ~map:(Aig.input model.Model.man) r);
    to_cones = Checkpoint.cones_of_lits man;
    of_cones = Checkpoint.lits_of_cones man;
  }

(* Columns as truth tables over the latches: a bound's family fills them
   in one dense simulation, and the sweep is word operations.  Nothing
   is built in any manager until a proof asks for its invariant or a
   snapshot for its cones. *)
let table_columns (run : Step.run) =
  let model = run.model in
  let nvars = model.Model.num_latches and lo = model.Model.num_inputs in
  let tables man lits = Truth.of_lits man ~nvars ~var:(fun i -> i - lo) lits in
  let init =
    Array.fold_left Truth.and_ (Truth.const ~nvars true)
      (Array.mapi
         (fun v b ->
           let x = Truth.var ~nvars v in
           if b then x else Truth.not_ x)
         model.Model.init)
  in
  {
    conjoin =
      (fun ~k:_ entry family ->
        Array.mapi
          (fun idx t -> if idx < Array.length entry then Truth.and_ entry.(idx) t else t)
          (tables model.Model.man family));
    init = (fun () -> init);
    disj = Truth.or_;
    implies =
      (fun ~k:_ ~j:_ c r ->
        Verdict.add_incl_table run.stats;
        Truth.implies c r);
    next_bound = ignore;
    invariant = Truth.to_aig model.Model.man ~var_lit:(Model.latch_lit model);
    (* Cones are built on a state space of their own, so a snapshot adds
       no node to the model's manager either. *)
    to_cones =
      (fun columns ->
        let space = Model.state_space model in
        Checkpoint.cones_of_lits space.Model.man
          (Array.map (Truth.to_aig space.Model.man ~var_lit:(Model.latch_lit space)) columns));
    of_cones =
      (fun cones ->
        let space = Model.state_space model in
        tables space.Model.man (Checkpoint.lits_of_cones space.Model.man cones));
  }

(* Paranoid, on a narrow model: the tables beside the circuits they
   replace, kept as [aig_columns] keeps them on a wide model but on an
   [Incl] session with its own budget and registry, so the run's
   conflict budget and counts do not depend on the check level (the
   run's cancel token still stops it).  Every column's table is checked
   against [Aig.eval] of its circuit, and every table answer is
   re-decided by [Incl], which re-decides it once more on a fresh
   encoding.  The run goes on with the tables. *)
let checked_columns (run : Step.run) =
  let tab = table_columns run in
  let budget = Budget.start ?cancel:(Budget.cancel run.budget) run.limits in
  let space = Model.state_space run.model in
  let aig = aig_columns run budget (Verdict.mk_stats ()) space in
  let lo = space.Model.num_inputs in
  let states = List.init (1 lsl space.Model.num_latches) Fun.id in
  (* State by state, so the reference shares no code with [Truth]. *)
  let agrees t l =
    List.for_all
      (fun s -> Aig.eval space.Model.man (fun i -> (s lsr (i - lo)) land 1 = 1) l = Truth.get t s)
      states
  in
  let pair ts ls = Array.map2 (fun t l -> (t, l)) ts ls in
  {
    conjoin =
      (fun ~k entry family ->
        let ts = tab.conjoin ~k (Array.map fst entry) family
        and ls = aig.conjoin ~k (Array.map snd entry) family in
        Array.iteri
          (fun idx t ->
            Isr_check.Level.check "itpseq.table_column" (agrees t ls.(idx))
              ~detail:(fun () ->
                Printf.sprintf "k=%d column %d: the table and the circuit differ" k (idx + 1)))
          ts;
        pair ts ls);
    init = (fun () -> (tab.init (), aig.init ()));
    disj = (fun (t, l) (t', l') -> (tab.disj t t', aig.disj l l'));
    implies =
      (fun ~k ~j (t, l) (t', l') ->
        let a = tab.implies ~k ~j t t' and b = aig.implies ~k ~j l l' in
        Isr_check.Level.check "itpseq.table_incl" (a = b) ~detail:(fun () ->
            Printf.sprintf "k=%d j=%d: the tables answer %b, Incl %b" k j a b);
        a);
    next_bound = aig.next_bound;
    invariant = (fun (t, _) -> tab.invariant t);
    to_cones = (fun columns -> tab.to_cones (Array.map fst columns));
    of_cones = (fun cones -> pair (tab.of_cones cones) (aig.of_cones cones));
  }

type 'c st = {
  run : Step.run;
  cols : 'c columns;
  mode : Seq_family.mode;
  check : Bmc.check;
  system : Isr_itp.Itp.system option;
  abstraction : abstraction;
  (* One flag per latch, updated in place: CBA's frozen latches, PBA's
     relevant latches (cumulative across bounds); empty for [None]. *)
  mask : bool array;
  mutable k : int;
  (* Column conjunctions ℐ_j, 1-based; grows by one per bound. *)
  mutable columns : 'c array;
  (* [columns] and [mask] as of the entry of bound [k] — what a snapshot
     carries. *)
  mutable entry_columns : 'c array;
  mutable entry_mask : bool array;
  mutable phase : 'c phase;
}

(* The column store is chosen per model, so the state hides its type. *)
type packed_st = St : 'c st -> packed_st

(* Snapshot payloads, in the layouts checkpoints have always had: the
   abstracting strategies append their entry mask. *)
type snap = { s_k : int; s_cols : Checkpoint.cone array }
type masked_snap = { m_k : int; m_cols : Checkpoint.cone array; m_mask : bool array }

let frozen st i =
  match st.abstraction with
  | None -> false
  | Cba _ -> st.mask.(i)
  | Pba _ -> not st.mask.(i)

let num_frozen st =
  let n = ref 0 in
  Array.iteri (fun i _ -> if frozen st i then incr n) st.mask;
  !n

(* The abstraction a run ends with: its frozen-latch count. *)
let at_end (St st) =
  match st.abstraction with
  | None -> ()
  | Cba _ | Pba _ -> Verdict.set_abstract_latches st.run.stats (num_frozen st)

(* A counterexample on the concrete model, reported at its first bad
   frame. *)
let falsify st u =
  let trace = Unroll.trace u in
  Some (Verdict.Falsified { depth = Step.cex_depth st.run.model ~k:st.k trace; trace })

let bound_entry = function Pba _ -> Concrete | _ -> Family None

let next_bound st =
  (* A circuit store resets its [Incl] session: the next sweep's columns
     are built anew, and this bound's solver would otherwise sit beside
     the next family's BMC instance. *)
  st.cols.next_bound ();
  st.k <- st.k + 1;
  st.entry_columns <- Array.copy st.columns;
  st.entry_mask <- Array.copy st.mask;
  st.phase <- bound_entry st.abstraction

(* PBA: mark the latches whose transition-equality clauses appear in the
   unsat core of the concrete refutation [u]. *)
let mark_core_latches st u =
  List.iter
    (fun cid -> Option.iter (fun i -> st.mask.(i) <- true) (Unroll.latch_of_clause u cid))
    (Proof.core (Solver.proof (Unroll.solver u)))

(* CBA: the abstract counterexample [u] does not extend, so unfreeze the
   latches it diverges on; the bound stays in [Family]. *)
let refine st u =
  let k = st.k in
  let n =
    Cba.refine st.run.model st.mask (Unroll.trace u) ~abstract_state:(fun ~frame ->
        Unroll.state_values u ~frame)
  in
  let still_frozen = num_frozen st in
  Verdict.incr_refinements st.run.stats;
  Verdict.beat st.run.stats ~step:k ~detail:(Printf.sprintf "refined %d" n) "cba.refine";
  Log.debug (fun m -> m "k=%d: refined %d latches (%d still frozen)" k n still_frozen)

(* Update columns: conjoin interior terms, append column k. *)
let conjoin_family st family =
  st.columns <- st.cols.conjoin ~k:st.k st.entry_columns family;
  st.phase <- Sweep { j = 1; r = st.cols.init () }

let step (St st) : Verdict.t option =
  let { Step.model; budget; stats; _ } = st.run in
  match st.phase with
  | Check0 ->
    let v = Bmc.check0 st.run in
    if Option.is_none v then begin
      st.k <- 1;
      st.phase <- bound_entry st.abstraction
    end;
    v
  | Concrete -> (
    (* Concrete check first: SAT is a real counterexample; UNSAT
       yields the core that drives the abstraction. *)
    let k = st.k in
    match Bmc.check_depth budget stats ~proof:true model ~check:st.check ~k with
    | `Sat u -> falsify st u
    | `Unsat u ->
      mark_core_latches st u;
      Verdict.incr_refinements stats;
      let nrelevant = Array.length st.mask - num_frozen st in
      Log.debug (fun m -> m "k=%d: %d relevant latches" k nrelevant);
      st.phase <- Family (Some u);
      None)
  | Family concrete -> (
    let k = st.k in
    let detail =
      match st.abstraction with
      | None -> ""
      | Cba _ -> Printf.sprintf "%d frozen" (num_frozen st)
      | Pba _ -> Printf.sprintf "%d relevant" (Array.length st.mask - num_frozen st)
    in
    Verdict.beat stats ~step:k ~detail "itpseq.outer";
    match
      Isr_obs.Trace.span "itpseq.outer" ~args:[ ("k", string_of_int k) ] (fun () ->
          Seq_family.compute ?system:st.system budget stats ~frozen:(frozen st) model
            ~mode:st.mode ~check:st.check ~k)
    with
    | `Family family ->
      conjoin_family st family;
      None
    | `Cex u -> (
      match st.abstraction with
      | None -> falsify st u
      | Cba _ -> (
        match Cba.extend model (Unroll.trace u) with
        | Some _ -> falsify st u
        | _ ->
          refine st u;
          None)
      | Pba _ ->
        (* Cannot happen — the abstract instance contains the whole
           unsat core of the concrete one — but stay safe: extract the
           family from the concrete refutation. *)
        conjoin_family st
          (Seq_family.of_refutation budget stats (Option.get concrete) ~ncuts:k);
        None))
  | Sweep { j; r } ->
    (* Inclusion sweep: ℐ_j ⇒ R_{j-1} with R_j = R_{j-1} ∨ ℐ_j. *)
    let k = st.k in
    let c = st.columns.(j - 1) in
    if
      Isr_obs.Trace.span "itpseq.sweep"
        ~args:[ ("k", string_of_int k); ("j", string_of_int j) ]
        (fun () -> st.cols.implies ~k ~j c r)
    then begin
      Log.debug (fun m -> m "fixpoint at k=%d j=%d" k j);
      Some (Verdict.Proved { kfp = k; jfp = j; invariant = Some (st.cols.invariant r) })
    end
    else begin
      if j >= k then next_bound st else st.phase <- Sweep { j = j + 1; r = st.cols.disj r c };
      None
    end

let stepper ?(mode = Seq_family.Parallel) ?(check = Bmc.Assume) ?system
    ?(abstraction = None) () =
  if check = Bmc.Bound then
    invalid_arg "Itpseq_verif.stepper: bound-k has no single-frame target";
  let c = Bmc.check_name check in
  let name, mode =
    match (abstraction, mode) with
    | None, Seq_family.Parallel -> (Printf.sprintf "itpseq-%s" c, mode)
    | None, Seq_family.Serial a -> (Printf.sprintf "sitpseq%.2g-%s" a c, mode)
    | Cba a, _ -> (Printf.sprintf "itpseqcba%.2g-%s" a c, Seq_family.Serial a)
    | Pba a, _ -> (Printf.sprintf "itpseqpba%.2g-%s" a c, Seq_family.Serial a)
  in
  let mk ~k ~cones ~mask run =
    let st cols =
      let columns = cols.of_cones cones in
      St
        {
          run;
          cols;
          mode;
          check;
          system;
          abstraction;
          mask = Array.copy mask;
          k;
          columns;
          entry_columns = Array.copy columns;
          entry_mask = Array.copy mask;
          phase = (if k = 0 then Check0 else bound_entry abstraction);
        }
    in
    if run.Step.model.Model.num_latches > Truth.max_vars then
      st (aig_columns run run.budget run.stats (Model.state_space run.model))
    else if Isr_check.Level.paranoid () then st (checked_columns run)
    else st (table_columns run)
  in
  Step.Packed
    {
      Step.name;
      init =
        (fun run ->
          let model = run.Step.model in
          let mask =
            match abstraction with
            | None -> [||]
            | Cba _ -> Cba.initial model
            | Pba _ -> Array.make model.Model.num_latches false
          in
          mk ~k:0 ~cones:[||] ~mask run);
      step;
      at_end;
      bound = (fun (St st) -> st.k);
      snapshot =
        (fun (St st) ->
          let s_k = match st.phase with Check0 -> 0 | _ -> st.k in
          let s_cols = st.cols.to_cones st.entry_columns in
          match abstraction with
          | None -> Marshal.to_string { s_k; s_cols } []
          | Cba _ | Pba _ ->
            Marshal.to_string { m_k = s_k; m_cols = s_cols; m_mask = st.entry_mask } []);
      restore =
        (fun run payload ->
          match abstraction with
          | None ->
            let s : snap = Marshal.from_string payload 0 in
            mk ~k:s.s_k ~cones:s.s_cols ~mask:[||] run
          | Cba _ | Pba _ ->
            let s : masked_snap = Marshal.from_string payload 0 in
            if Array.length s.m_mask <> run.model.Model.num_latches then
              invalid_arg "Itpseq_verif.restore: latch count mismatch";
            mk ~k:s.m_k ~cones:s.m_cols ~mask:s.m_mask run);
    }
