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

type phase =
  | Check0                                   (* init ∧ bad *)
  | Concrete                                 (* PBA: concrete solve at [k], harvest core *)
  | Family of Unroll.t option
      (* solve bound [k] on the abstraction, extract the sequence; PBA
         carries its concrete refutation to fall back on *)
  | Sweep of { j : int; r : Aig.lit }        (* test ℐ_j ⇒ R_{j-1} = r *)

type st = {
  run : Step.run;
  (* The columns, the sweep's R_j and every inclusion check live in a
     state space of their own (a manager without transition logic).
     Compaction then adds no node to the model's manager, where a later
     interpolant could hash-cons onto it: that would renumber the cone
     the serial families encode, and change their search. *)
  space : Model.t;
  incl : Incl.t;
  mode : Seq_family.mode;
  check : Bmc.check;
  system : Isr_itp.Itp.system option;
  abstraction : abstraction;
  (* One flag per latch, updated in place: CBA's frozen latches, PBA's
     relevant latches (cumulative across bounds); empty for [None]. *)
  mask : bool array;
  mutable k : int;
  (* Column conjunctions ℐ_j, 1-based, in [space]; grows by one per
     bound. *)
  mutable columns : Aig.lit array;
  (* [columns] and [mask] as of the entry of bound [k] — what a snapshot
     carries. *)
  mutable entry_columns : Aig.lit array;
  mutable entry_mask : bool array;
  mutable phase : phase;
}

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
let at_end st =
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
  (* The next sweep's columns are built anew, and this bound's solver
     would otherwise sit beside the next family's BMC instance. *)
  Incl.reset st.incl;
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

(* Paranoid: decide that a compacted column is equivalent to its
   original, on a session with its own budget and registry so the run's
   conflict budget and counts do not depend on the check level; the
   run's cancel token still stops it. *)
let check_equiv st ~j c c' =
  if Isr_check.Level.paranoid () then begin
    let budget = Budget.start ?cancel:(Budget.cancel st.run.budget) st.run.limits in
    let incl = Incl.create budget (Verdict.mk_stats ()) st.space in
    let fwd = Incl.implies incl c c' and bwd = Incl.implies incl c' c in
    Isr_check.Level.check "itpseq.compact_equiv" (fwd && bwd) ~detail:(fun () ->
        Printf.sprintf "k=%d column %d: original => compacted %b, compacted => original %b"
          st.k j fwd bwd)
  end

(* Rebuild every column in BDD-canonical form and keep the smaller
   circuit.  Columns feed only [Incl], which answers semantically, so
   this changes no verdict, k_fp/j_fp or interpolant — only the size of
   what every sweep check encodes or simulates. *)
let compact_columns st =
  let before = ref 0 and after = ref 0 in
  Isr_obs.Trace.span "itpseq.compact"
    ~args:[ ("k", string_of_int st.k) ]
    ~end_args:(fun () ->
      [ ("nodes_before", string_of_int !before); ("nodes_after", string_of_int !after) ])
    (fun () ->
      st.columns <-
        Array.mapi
          (fun idx c ->
            let c', b, a = Isr_bdd.Compact.column st.space c in
            before := !before + b;
            after := !after + a;
            if c' <> c then check_equiv st ~j:(idx + 1) c c';
            c')
          st.columns)

(* Update columns: conjoin interior terms, append column k. *)
let conjoin_family st family =
  let man = st.space.Model.man and entry = st.entry_columns in
  let copy = Aig.copier ~src:st.run.model.Model.man ~dst:man ~map:(Aig.input man) in
  st.columns <-
    Array.init st.k (fun idx ->
        let itp = copy family.(idx) in
        if idx < Array.length entry then Aig.and_ man entry.(idx) itp else itp);
  compact_columns st;
  st.phase <- Sweep { j = 1; r = Model.init_lit st.space }

let step st : Verdict.t option =
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
        (fun () -> Incl.implies st.incl c r)
    then begin
      Log.debug (fun m -> m "fixpoint at k=%d j=%d" k j);
      let man = model.Model.man in
      let invariant = Aig.copier ~src:st.space.Model.man ~dst:man ~map:(Aig.input man) r in
      Some (Verdict.Proved { kfp = k; jfp = j; invariant = Some invariant })
    end
    else begin
      if j >= k then next_bound st
      else st.phase <- Sweep { j = j + 1; r = Aig.or_ st.space.Model.man r c };
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
    let space = Model.state_space run.Step.model in
    let columns = Checkpoint.lits_of_cones space.Model.man cones in
    {
      run;
      space;
      incl = Incl.create run.budget run.stats space;
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
      bound = (fun st -> st.k);
      snapshot =
        (fun st ->
          let s_k = match st.phase with Check0 -> 0 | _ -> st.k in
          let s_cols = Checkpoint.cones_of_lits st.space.Model.man st.entry_columns in
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
