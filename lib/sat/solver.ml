type result = Sat | Unsat | Undef

(* Tiered sanitizer (Off / Fast / Paranoid): named, metered invariant
   checks replacing bare asserts on the hot paths. *)
module Check = Isr_check_core.Level

(* The in-memory clause database holds only what propagation and the
   reduction heuristics need; proof payloads (tags, resolution chains,
   deletion events) live in the append-only [Proof_log].  [cid] is the
   clause's stable proof-log step id — database slots compact on
   [reduce_db], proof ids never move. *)
type clause = {
  cid : int;                   (* proof-log step id (stable) *)
  lits : Lit.t array;
  learnt : bool;
  birth_lbd : int;             (* glue at learn time, frozen (0 for inputs) *)
  origin : int;                (* engine phase (set_origin) current at learn time *)
  mutable lbd : int;           (* glue: tightened on conflict-analysis reuse *)
  mutable act : float;         (* clause activity for the reduction sort *)
  mutable uses : int;          (* conflict-analysis participations *)
}

type reduce_policy = {
  enabled : bool;
  base : int;       (* live-learnt threshold for the first reduction *)
  growth : float;   (* geometric multiplier applied after each reduction *)
  keep_lbd : int;   (* clauses with lbd <= keep_lbd are never deleted *)
}

let default_reduce = { enabled = true; base = 4000; growth = 1.3; keep_lbd = 2 }

(* One completed database reduction, as seen by [on_reduce].  The
   histograms share the 16-bucket convention of the cumulative clause
   statistics: index = value, last bucket saturates. *)
type reduce_info = {
  kept : int;                (* live learnt clauses after the reduction *)
  deleted : int;             (* victims of this reduction *)
  kept_lbd : int array;      (* survivors by current LBD *)
  dead_lbd : int array;      (* victims by LBD at death *)
  dead_uses : int array;     (* victims by conflict-analysis uses before deletion *)
  dead_drift : int array;    (* victims by birth LBD - death LBD (glue improvement) *)
}

let hist_buckets = 16
let hist_bump h v = h.(min v (hist_buckets - 1)) <- h.(min v (hist_buckets - 1)) + 1

type t = {
  mutable nvars : int;
  mutable clauses : clause array;      (* by database slot; compacts on reduce *)
  mutable nclauses : int;
  mutable watches : Vec.t array;       (* literal -> watch entries (see [watch_clause]) *)
  mutable assigns : int array;         (* var -> -1 unknown / 0 false / 1 true *)
  mutable level : int array;           (* var -> decision level *)
  mutable reason : int array;          (* var -> clause slot or -1 *)
  mutable tpos : int array;            (* var -> trail index while assigned *)
  mutable phase : Bytes.t;             (* var -> saved phase *)
  mutable activity : float array;
  mutable var_inc : float;
  mutable cla_inc : float;             (* clause-activity increment *)
  log : Proof_log.t;                   (* append-only proof store *)
  trail : Vec.t;                       (* assigned literals, in order *)
  trail_lim : Vec.t;                   (* trail size at each decision *)
  mutable qhead : int;
  order : Heap.t;
  mutable ok : bool;                   (* false once unconditionally unsat *)
  mutable empty_id : int;              (* proof id of the empty clause, or -1 *)
  mutable last_result : result;
  mutable core : Lit.t list;           (* assumption core of the last Unsat *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnt_count : int;
  mutable live_learnt : int;           (* learnt clauses currently in the database *)
  mutable reduces : int;               (* completed database reductions *)
  mutable policy : reduce_policy;
  mutable reduce_limit : int;          (* next live-learnt threshold *)
  mutable max_learnt_len : int;
  mutable origin : int;                (* stamped into clauses born from now on *)
  born_lbd : int array;                (* cumulative birth-LBD histogram (16 buckets) *)
  dead_lbd : int array;                (* victims by LBD at death *)
  dead_uses : int array;               (* victims by uses before deletion *)
  dead_drift : int array;              (* victims by birth_lbd - lbd at death *)
  mutable birth : Bytes.t;             (* cid -> birth LBD (clamped to 255); 0 = input *)
  mutable learnt_cb : (len:int -> lbd:int -> unit) option;
      (* observes each learned clause (length and glue) *)
  mutable export_cb : (lits:Lit.t array -> lbd:int -> unit) option;
      (* observes each learned clause's literals (clause sharing); never
         fired for imported clauses, so shared clauses cannot ping-pong *)
  mutable restart_cb : (int -> unit) option; (* observes each restart (cumulative count) *)
  mutable reduce_cb : (reduce_info -> unit) option;
      (* observes each database reduction *)
  mutable interrupt : (unit -> bool) option; (* polled during search; true aborts to Undef *)
  mutable seen : Bytes.t;              (* conflict-analysis scratch *)
  mutable mark0 : Bytes.t;             (* level-0 elimination scratch *)
  mutable lbd_mark : Bytes.t;          (* level-indexed LBD scratch *)
  pending : Vec.t;                     (* clause slots to re-examine at solve start *)
}

let dummy_clause =
  { cid = -1; lits = [||]; learnt = false; birth_lbd = 0; origin = 0; lbd = 0; act = 0.0; uses = 0 }

let create ?(proof = true) () =
  {
    nvars = 0;
    clauses = Array.make 64 dummy_clause;
    nclauses = 0;
    watches = Array.init 32 (fun _ -> Vec.create ~cap:4 ());
    assigns = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    tpos = Array.make 16 0;
    phase = Bytes.make 16 '\000';
    activity = Array.make 16 0.0;
    var_inc = 1.0;
    cla_inc = 1.0;
    log = Proof_log.create ~record:proof ();
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    order = Heap.create ();
    ok = true;
    empty_id = -1;
    last_result = Undef;
    core = [];
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnt_count = 0;
    live_learnt = 0;
    reduces = 0;
    policy = default_reduce;
    reduce_limit = default_reduce.base;
    max_learnt_len = 0;
    origin = 0;
    born_lbd = Array.make hist_buckets 0;
    dead_lbd = Array.make hist_buckets 0;
    dead_uses = Array.make hist_buckets 0;
    dead_drift = Array.make hist_buckets 0;
    birth = Bytes.make 64 '\000';
    learnt_cb = None;
    export_cb = None;
    restart_cb = None;
    reduce_cb = None;
    interrupt = None;
    seen = Bytes.make 16 '\000';
    mark0 = Bytes.make 16 '\000';
    lbd_mark = Bytes.make 17 '\000';
    pending = Vec.create ();
  }

let nvars s = s.nvars
let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
let num_propagations s = s.propagations
let num_restarts s = s.restarts
let num_learnt s = s.learnt_count
let num_live_learnt s = s.live_learnt
let num_reduces s = s.reduces
let max_learnt_len s = s.max_learnt_len
let num_clauses s = s.nclauses
let next_step_id s = Proof_log.n_steps s.log
let proof_steps s = if Proof_log.recording s.log then Proof_log.n_steps s.log else 0
let proof_bytes s = Proof_log.bytes s.log
let on_learnt s cb = s.learnt_cb <- cb
let on_export s cb = s.export_cb <- cb
let on_restart s cb = s.restart_cb <- cb
let on_reduce s cb = s.reduce_cb <- cb
let set_interrupt s cb = s.interrupt <- cb
let set_origin s o = s.origin <- o
let origin s = s.origin
let num_deleted s = s.learnt_count - s.live_learnt
let birth_lbd_counts s = Array.copy s.born_lbd
let dead_lbd_counts s = Array.copy s.dead_lbd
let dead_uses_counts s = Array.copy s.dead_uses
let dead_drift_counts s = Array.copy s.dead_drift
let refuted s = (not s.ok) && s.empty_id >= 0 && Proof_log.recording s.log

let set_reduce s p =
  if p.base <= 0 then invalid_arg "Solver.set_reduce: base must be positive";
  if p.growth < 1.0 then invalid_arg "Solver.set_reduce: growth must be >= 1";
  (* Re-applying the current policy (every budgeted call does) must not
     reset the geometric schedule mid-run. *)
  if p <> s.policy then begin
    s.policy <- p;
    s.reduce_limit <- p.base
  end

let reduce_policy s = s.policy

let interrupted s = match s.interrupt with Some f -> f () | None -> false

let grow_vars s n =
  let cap = Array.length s.assigns in
  if n > cap then begin
    let cap' = max (2 * cap) n in
    let grow_int a def =
      let a' = Array.make cap' def in
      Array.blit a 0 a' 0 cap;
      a'
    in
    s.assigns <- grow_int s.assigns (-1);
    s.level <- grow_int s.level 0;
    s.reason <- grow_int s.reason (-1);
    s.tpos <- grow_int s.tpos 0;
    let grow_bytes b =
      let b' = Bytes.make cap' '\000' in
      Bytes.blit b 0 b' 0 cap;
      b'
    in
    s.phase <- grow_bytes s.phase;
    s.seen <- grow_bytes s.seen;
    s.mark0 <- grow_bytes s.mark0;
    (* Level-indexed: levels range over 0..nvars inclusive. *)
    let lbd' = Bytes.make (cap' + 1) '\000' in
    Bytes.blit s.lbd_mark 0 lbd' 0 (Bytes.length s.lbd_mark);
    s.lbd_mark <- lbd';
    let act' = Array.make cap' 0.0 in
    Array.blit s.activity 0 act' 0 cap;
    s.activity <- act';
    Heap.set_activity s.order s.activity
  end;
  let wcap = Array.length s.watches in
  if 2 * n > wcap then begin
    let wcap' = max (2 * wcap) (2 * n) in
    let w' =
      Array.init wcap' (fun i -> if i < wcap then s.watches.(i) else Vec.create ~cap:4 ())
    in
    s.watches <- w'
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  grow_vars s s.nvars;
  Heap.set_activity s.order s.activity;
  Heap.insert s.order v;
  v

(* Value of a literal: -1 unknown, 0 false, 1 true. *)
let lit_val s l =
  let a = Array.unsafe_get s.assigns (Lit.var l) in
  if a < 0 then -1 else a lxor (l land 1)

let value s v = s.assigns.(v) = 1
let lit_value s l = lit_val s l = 1
let decision_level s = Vec.size s.trail_lim

let push_clause s c =
  if s.nclauses = Array.length s.clauses then begin
    let a = Array.make (2 * s.nclauses) dummy_clause in
    Array.blit s.clauses 0 a 0 s.nclauses;
    s.clauses <- a
  end;
  let slot = s.nclauses in
  s.clauses.(slot) <- c;
  s.nclauses <- slot + 1;
  slot

(* A watch entry is an int.  A long clause's entry is its slot.  A
   binary clause's watches never move, so its entry also carries the
   other literal, ((other + 1) lsl 32) lor slot, and propagation decides
   the clause without loading it.  Both kinds share one list per literal,
   in watch order. *)
let slot_mask = (1 lsl 32) - 1
let entry_slot w = w land slot_mask
let entry_other w = (w lsr 32) - 1 (* -1 for a long clause *)

let watch_clause s slot lits =
  if Array.length lits = 2 then begin
    Vec.push s.watches.(lits.(0)) (((lits.(1) + 1) lsl 32) lor slot);
    Vec.push s.watches.(lits.(1)) (((lits.(0) + 1) lsl 32) lor slot)
  end
  else begin
    Vec.push s.watches.(lits.(0)) slot;
    Vec.push s.watches.(lits.(1)) slot
  end

let enqueue s lit reason =
  let v = Lit.var lit in
  if Check.on () then
    Check.check "sat.enqueue_unassigned"
      (s.assigns.(v) < 0)
      ~detail:(fun () -> Printf.sprintf "variable %d is already assigned" v);
  s.assigns.(v) <- (lit land 1) lxor 1;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.tpos.(v) <- Vec.size s.trail;
  Vec.push s.trail lit

exception Conflict of int

(* Conflict in the watch list [ws] at entry [i], with [j] entries kept so
   far: salvage the unvisited watches, then abort propagation. *)
let conflict s ws ~i ~j slot =
  let n = Vec.size ws in
  let j = ref j in
  for i' = i + 1 to n - 1 do
    Vec.set ws !j (Vec.get ws i');
    incr j
  done;
  Vec.shrink ws !j;
  s.qhead <- Vec.size s.trail;
  raise (Conflict slot)

(* Two-watched-literal propagation; returns the slot of a conflicting
   clause or -1. *)
let propagate s =
  try
    while s.qhead < Vec.size s.trail do
      let p = Vec.get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      s.propagations <- s.propagations + 1;
      let false_lit = Lit.neg p in
      let ws = s.watches.(false_lit) in
      let n = Vec.size ws in
      let j = ref 0 in
      for i = 0 to n - 1 do
        let w = Vec.get ws i in
        let other = entry_other w in
        if other >= 0 then begin
          (* Binary clause, decided from the entry; the watch stays. *)
          Vec.set ws !j w;
          incr j;
          let v = lit_val s other in
          if v = 0 then begin
            (* Conflict analysis reads the conflict clause in literal
               order: leave it as [other; false_lit], as the swap on the
               long-clause path would. *)
            let lits = s.clauses.(entry_slot w).lits in
            lits.(0) <- other;
            lits.(1) <- false_lit;
            conflict s ws ~i ~j:!j (entry_slot w)
          end
          else if v < 0 then enqueue s other (entry_slot w)
        end
        else begin
          let slot = w in
          let lits = s.clauses.(slot).lits in
          (* Ensure the false literal sits at position 1. *)
          if lits.(0) = false_lit then begin
            lits.(0) <- lits.(1);
            lits.(1) <- false_lit
          end;
          if lit_val s lits.(0) = 1 then begin
            (* Clause already satisfied: keep the watch. *)
            Vec.set ws !j slot;
            incr j
          end
          else begin
            (* Look for a replacement literal to watch. *)
            let len = Array.length lits in
            let rec find k =
              if k >= len then -1 else if lit_val s lits.(k) <> 0 then k else find (k + 1)
            in
            let k = find 2 in
            if k >= 0 then begin
              lits.(1) <- lits.(k);
              lits.(k) <- false_lit;
              Vec.push s.watches.(lits.(1)) slot
            end
            else begin
              (* Unit or conflicting: the watch stays. *)
              Vec.set ws !j slot;
              incr j;
              if lit_val s lits.(0) = 0 then conflict s ws ~i ~j:!j slot
              else enqueue s lits.(0) slot
            end
          end
        end
      done;
      Vec.shrink ws !j
    done;
    -1
  with Conflict slot -> slot

let var_decay = 1.0 /. 0.95
let cla_decay = 1.0 /. 0.999

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100;
    Heap.rebuild s.order
  end;
  Heap.decrease s.order v

let bump_clause s c =
  c.act <- c.act +. s.cla_inc;
  if c.act > 1e20 then begin
    for i = 0 to s.nclauses - 1 do
      let c' = s.clauses.(i) in
      if c'.learnt then c'.act <- c'.act *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_activities s =
  s.var_inc <- s.var_inc *. var_decay;
  s.cla_inc <- s.cla_inc *. cla_decay

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let lit = Vec.get s.trail i in
      let v = Lit.var lit in
      Bytes.set s.phase v (if s.assigns.(v) = 1 then '\001' else '\000');
      s.assigns.(v) <- -1;
      s.reason.(v) <- -1;
      if not (Heap.in_heap s.order v) then Heap.insert s.order v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.size s.trail
  end

(* Glue (LBD) of a clause: distinct non-root decision levels among its
   literals, at least 1.  Called before the backjump so every literal
   still carries its conflict-time level. *)
let compute_lbd s lits =
  let n = ref 0 in
  Array.iter
    (fun l ->
      let lv = s.level.(Lit.var l) in
      if lv > 0 && Bytes.get s.lbd_mark lv = '\000' then begin
        Bytes.set s.lbd_mark lv '\001';
        incr n
      end)
    lits;
  Array.iter
    (fun l ->
      let lv = s.level.(Lit.var l) in
      if lv > 0 then Bytes.set s.lbd_mark lv '\000')
    lits;
  max 1 !n

(* Append to [chain] the resolutions eliminating every marked level-0
   variable from the virtual resolvent.  Walks the level-0 trail segment
   backwards: a reason clause only mentions literals assigned earlier, so a
   single sweep eliminates everything in valid resolution order.  Chain
   entries carry proof-log ids, not database slots. *)
let resolve_level0 s chain =
  let bound =
    if Vec.size s.trail_lim > 0 then Vec.get s.trail_lim 0 else Vec.size s.trail
  in
  for i = bound - 1 downto 0 do
    let v = Lit.var (Vec.get s.trail i) in
    if Bytes.get s.mark0 v = '\001' then begin
      Bytes.set s.mark0 v '\000';
      let r = s.reason.(v) in
      if Check.on () then
        Check.check "sat.level0_has_reason" (r >= 0)
          ~detail:(fun () -> Printf.sprintf "level-0 variable %d has no reason clause" v);
      chain := (v, s.clauses.(r).cid) :: !chain;
      Array.iter
        (fun l ->
          let w = Lit.var l in
          if w <> v && s.level.(w) = 0 then Bytes.set s.mark0 w '\001')
        s.clauses.(r).lits
    end
  done

(* First-UIP conflict analysis.  Returns the learned clause (asserting
   literal first), the backjump level, and the resolution chain over
   proof-log ids (in resolution order). *)
let analyze s confl =
  let cur_level = decision_level s in
  let learnt = ref [] in
  let chain = ref [] in
  let zeros = ref false in
  let counter = ref 0 in
  let p = ref (-1) in
  let idx = ref (Vec.size s.trail - 1) in
  let slot = ref confl in
  let continue = ref true in
  while !continue do
    let c = s.clauses.(!slot) in
    if c.learnt then begin
      bump_clause s c;
      (* Clause-lifecycle accounting: participating in a conflict
         analysis is the "useful" event, and — glucose-style — the
         moment to tighten the stored glue (every literal of a reason
         clause is assigned here, so [compute_lbd] sees real levels).
         LBD only ever improves; the drift histogram relies on that. *)
      c.uses <- c.uses + 1;
      let g = compute_lbd s c.lits in
      if g < c.lbd then c.lbd <- g
    end;
    Array.iter
      (fun q ->
        (* Skip the pivot occurrence: reason clauses contain the literal
           they propagated. *)
        if !p = -1 || q <> !p then begin
          let v = Lit.var q in
          if Bytes.get s.seen v = '\000' then
            if s.level.(v) = 0 then begin
              (* Resolved against its level-0 reason afterwards. *)
              Bytes.set s.mark0 v '\001';
              zeros := true
            end
            else begin
              Bytes.set s.seen v '\001';
              bump_var s v;
              if s.level.(v) = cur_level then incr counter else learnt := q :: !learnt
            end
        end)
      c.lits;
    (* Select the next seen literal on the trail at the current level. *)
    while Bytes.get s.seen (Lit.var (Vec.get s.trail !idx)) = '\000' do
      decr idx
    done;
    p := Vec.get s.trail !idx;
    decr idx;
    let v = Lit.var !p in
    Bytes.set s.seen v '\000';
    decr counter;
    if !counter = 0 then continue := false
    else begin
      slot := s.reason.(v);
      if Check.on () then
        Check.check "sat.analyze_has_reason" (!slot >= 0)
          ~detail:(fun () -> Printf.sprintf "trail variable %d has no reason clause" v);
      chain := (v, s.clauses.(!slot).cid) :: !chain
    end
  done;
  (* Local clause minimization (Sörensson): a literal is redundant when
     its reason's other literals are all in the clause already or fixed
     at level 0 — resolving it away shrinks the clause without adding
     anything new.  Literals are processed latest-assigned first (by
     trail position), so a removal never invalidates the check for the
     earlier ones; each removal is recorded in the resolution chain to
     keep proofs exact.  Membership is the [seen] mark, which is 1 on
     exactly the learnt literals here; a removed literal is marked 2
     until the final clear. *)
  let original_learnt = !learnt in
  if !learnt <> [] then begin
    let by_pos_desc =
      List.sort
        (fun a b -> Int.compare s.tpos.(Lit.var b) s.tpos.(Lit.var a))
        !learnt
    in
    let kept = ref [] in
    List.iter
      (fun q ->
        let v = Lit.var q in
        let r = s.reason.(v) in
        let removable =
          r >= 0
          && Array.for_all
               (fun l ->
                 let w = Lit.var l in
                 w = v || s.level.(w) = 0 || Bytes.get s.seen w = '\001')
               s.clauses.(r).lits
        in
        if removable then begin
          Bytes.set s.seen v '\002';
          chain := (v, s.clauses.(r).cid) :: !chain;
          Array.iter
            (fun l ->
              let w = Lit.var l in
              if w <> v && s.level.(w) = 0 then begin
                Bytes.set s.mark0 w '\001';
                zeros := true
              end)
            s.clauses.(r).lits
        end
        else kept := q :: !kept)
      by_pos_desc;
    learnt := !kept
  end;
  if !zeros then resolve_level0 s chain;
  let learnt_lits = Lit.neg !p :: !learnt in
  List.iter (fun q -> Bytes.set s.seen (Lit.var q) '\000') original_learnt;
  let bt_level = List.fold_left (fun acc q -> max acc s.level.(Lit.var q)) 0 !learnt in
  (Array.of_list learnt_lits, bt_level, s.clauses.(confl).cid, List.rev !chain)

(* Conflict whose literals are all false at decision level 0: derive the
   empty clause and mark the instance unconditionally unsatisfiable.
   The empty clause is a proof-log step only — it never enters the
   clause database (nothing watches or resolves against it). *)
let analyze_final s confl =
  let chain = ref [] in
  Array.iter (fun q -> Bytes.set s.mark0 (Lit.var q) '\001') s.clauses.(confl).lits;
  resolve_level0 s chain;
  s.empty_id <-
    Proof_log.add_derived s.log ~lits:[||] ~first:s.clauses.(confl).cid
      ~chain:(List.rev !chain);
  s.ok <- false;
  s.core <- []

(* Assumption failure: the assumption [p] is false under the earlier
   assumption levels.  Collect the subset of assumption decisions the
   falsification depends on — the unsat core. *)
let analyze_assumptions s p =
  let core = ref [ p ] in
  let v0 = Lit.var p in
  Bytes.set s.seen v0 '\001';
  for i = Vec.size s.trail - 1 downto 0 do
    let q = Vec.get s.trail i in
    let v = Lit.var q in
    if Bytes.get s.seen v = '\001' then begin
      Bytes.set s.seen v '\000';
      let r = s.reason.(v) in
      if r = -1 then begin
        (* An assumption decision (level-0 literals never reach here —
           their reasons are clauses — and ordinary search decisions
           cannot, because assumption installation happens first). *)
        if s.level.(v) > 0 then core := q :: !core
      end
      else
        (* Skip [v]'s own occurrence: re-marking it would leave a stale
           [seen] flag behind the sweep, and the next conflict analysis
           on this solver would silently drop that variable from its
           learnt clause. *)
        Array.iter
          (fun l ->
            let w = Lit.var l in
            if w <> v && s.level.(w) > 0 then Bytes.set s.seen w '\001')
          s.clauses.(r).lits
    end
  done;
  Bytes.set s.seen v0 '\000';
  !core

let record_learnt s lits ~lbd first chain =
  let cid = Proof_log.add_derived s.log ~lits ~first ~chain in
  s.learnt_count <- s.learnt_count + 1;
  s.live_learnt <- s.live_learnt + 1;
  let len = Array.length lits in
  if len > s.max_learnt_len then s.max_learnt_len <- len;
  hist_bump s.born_lbd lbd;
  (* Birth LBD per proof id, outliving the database clause: proof-core
     attribution ([core_birth_lbd]) needs it after deletion. *)
  if cid >= Bytes.length s.birth then begin
    let b' = Bytes.make (max (2 * Bytes.length s.birth) (cid + 1)) '\000' in
    Bytes.blit s.birth 0 b' 0 (Bytes.length s.birth);
    s.birth <- b'
  end;
  Bytes.set s.birth cid (Char.chr (min lbd 255));
  (match s.learnt_cb with None -> () | Some f -> f ~len ~lbd);
  (* The copy shields the hook from the watch-order mutations below (and
     from propagation's in-place reordering later). *)
  (match s.export_cb with None -> () | Some f -> f ~lits:(Array.copy lits) ~lbd);
  let slot =
    push_clause s
      { cid; lits; learnt = true; birth_lbd = lbd; origin = s.origin; lbd; act = s.cla_inc; uses = 0 }
  in
  if Array.length lits >= 2 then begin
    (* lits.(0) is the asserting literal; the second watch must be the
       highest-level other literal so the invariant survives backjumps. *)
    let best = ref 1 in
    for k = 2 to Array.length lits - 1 do
      if s.level.(Lit.var lits.(k)) > s.level.(Lit.var lits.(!best)) then best := k
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp;
    watch_clause s slot lits
  end;
  slot

(* MiniSat-style learnt-database reduction.  Deletion candidates are the
   live learnt clauses that are neither binary, nor glue (lbd <=
   keep_lbd), nor locked as some assigned variable's reason; the worst
   half by (lbd desc, activity asc) is dropped.  Deletions are recorded
   in the proof log (for LRAT [d] lines), the clause array compacts, and
   reasons, the pending list and every watch list are rebuilt on the new
   slots — proof ids are untouched.  Safe at any decision level: the
   watched-positions-0/1 invariant holds for every clause of length >= 2,
   so watch lists can be reconstructed from scratch. *)
let reduce_db s =
  let locked = Array.make s.nclauses false in
  Vec.iter
    (fun l ->
      let r = s.reason.(Lit.var l) in
      if r >= 0 then locked.(r) <- true)
    s.trail;
  let cand = ref [] in
  for i = 0 to s.nclauses - 1 do
    let c = s.clauses.(i) in
    if c.learnt && Array.length c.lits > 2 && c.lbd > s.policy.keep_lbd && not locked.(i)
    then cand := i :: !cand
  done;
  let cand = Array.of_list !cand in
  Array.sort
    (fun a b ->
      let ca = s.clauses.(a) and cb = s.clauses.(b) in
      if ca.lbd <> cb.lbd then compare cb.lbd ca.lbd else compare ca.act cb.act)
    cand;
  let ndelete = Array.length cand / 2 in
  if ndelete > 0 then begin
    let dead = Array.make s.nclauses false in
    (* Per-reduction victim histograms, also folded into the cumulative
       lifecycle statistics.  Cheap (three bumps per victim), so always
       on — the registry invariants (dead sums = deleted count) must
       hold whether or not anyone listens. *)
    let dl = Array.make hist_buckets 0 in
    let du = Array.make hist_buckets 0 in
    let dd = Array.make hist_buckets 0 in
    for k = 0 to ndelete - 1 do
      let slot = cand.(k) in
      let c = s.clauses.(slot) in
      hist_bump dl c.lbd;
      hist_bump du c.uses;
      hist_bump dd (max 0 (c.birth_lbd - c.lbd));
      dead.(slot) <- true;
      Proof_log.delete s.log c.cid
    done;
    Array.iteri (fun i n -> s.dead_lbd.(i) <- s.dead_lbd.(i) + n) dl;
    Array.iteri (fun i n -> s.dead_uses.(i) <- s.dead_uses.(i) + n) du;
    Array.iteri (fun i n -> s.dead_drift.(i) <- s.dead_drift.(i) + n) dd;
    (* Compact the database and remap every stored slot. *)
    let map = Array.make s.nclauses (-1) in
    let j = ref 0 in
    for i = 0 to s.nclauses - 1 do
      if not dead.(i) then begin
        s.clauses.(!j) <- s.clauses.(i);
        map.(i) <- !j;
        incr j
      end
    done;
    for i = !j to s.nclauses - 1 do
      s.clauses.(i) <- dummy_clause
    done;
    s.nclauses <- !j;
    Vec.iter
      (fun l ->
        let v = Lit.var l in
        let r = s.reason.(v) in
        if r >= 0 then begin
          let r' = map.(r) in
          if Check.on () then
            Check.check "sat.reduce_keeps_reasons" (r' >= 0)
              ~detail:(fun () -> Printf.sprintf "reason of variable %d was deleted" v);
          s.reason.(v) <- r'
        end)
      s.trail;
    for i = 0 to Vec.size s.pending - 1 do
      Vec.set s.pending i map.(Vec.get s.pending i)
    done;
    Array.iter Vec.clear s.watches;
    for i = 0 to s.nclauses - 1 do
      let c = s.clauses.(i) in
      if Array.length c.lits >= 2 then watch_clause s i c.lits
    done;
    s.live_learnt <- s.live_learnt - ndelete;
    s.reduces <- s.reduces + 1;
    match s.reduce_cb with
    | Some f ->
      (* LBD distribution of the surviving learnt clauses; only computed
         when someone is listening (the victim histograms were already
         paid above). *)
      let lbd = Array.make hist_buckets 0 in
      for i = 0 to s.nclauses - 1 do
        let c = s.clauses.(i) in
        if c.learnt then hist_bump lbd c.lbd
      done;
      f
        {
          kept = s.live_learnt;
          deleted = ndelete;
          kept_lbd = lbd;
          dead_lbd = dl;
          dead_uses = du;
          dead_drift = dd;
        }
    | None -> ()
  end;
  (* Grow the threshold even when nothing was deletable, so an
     all-glue/all-locked database does not retrigger every conflict. *)
  s.reduce_limit <- int_of_float (float_of_int s.reduce_limit *. s.policy.growth) + 1

(* Adding clauses is allowed at any time; the solver backtracks to the
   root level first.  Unit consequences are deferred to the next solve
   (via the pending list) so that proof shapes do not depend on
   interleaving clause addition with propagation. *)
let add_clause s ?(tag = 0) lits =
  if tag < 0 then invalid_arg "Solver.add_clause: negative tag";
  if s.ok then begin
    cancel_until s 0;
    s.last_result <- Undef;
    (* Merge duplicates, drop tautologies.  Literals are otherwise kept
       untouched so the clause matches its proof role exactly. *)
    let lits = List.sort_uniq Lit.compare lits in
    let rec tauto = function
      | a :: (b :: _ as rest) -> (Lit.var a = Lit.var b && a <> b) || tauto rest
      | _ -> false
    in
    if not (tauto lits) then begin
      List.iter
        (fun l ->
          if Lit.var l >= s.nvars || l < 0 then
            invalid_arg "Solver.add_clause: unknown variable")
        lits;
      let arr = Array.of_list lits in
      let cid = Proof_log.add_input s.log ~tag arr in
      let slot =
        push_clause s
          {
            cid;
            lits = arr;
            learnt = false;
            birth_lbd = 0;
            origin = s.origin;
            lbd = 0;
            act = 0.0;
            uses = 0;
          }
      in
      match Array.length arr with
      | 0 ->
        s.ok <- false;
        s.empty_id <- cid
      | 1 -> Vec.push s.pending slot
      | _ ->
        (* Watch two non-false literals when possible (under the current
           root-level assignment); when fewer exist, the clause is unit
           or false right now and goes to the pending list. *)
        let len = Array.length arr in
        let swap i j =
          let t = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- t
        in
        let pos = ref 0 in
        (try
           for i = 0 to len - 1 do
             if !pos < 2 && lit_val s arr.(i) <> 0 then begin
               swap !pos i;
               incr pos;
               if !pos = 2 then raise Exit
             end
           done
         with Exit -> ());
        watch_clause s slot arr;
        if !pos < 2 then Vec.push s.pending slot
    end
  end

(* Re-examine the pending clauses at solve start: enqueue the unit ones,
   derive the empty clause from falsified ones.  Clauses whose literal
   got satisfied at the root level are dropped from the list. *)
let flush_pending s =
  let kept = ref [] in
  let failed = ref false in
  Vec.iter
    (fun slot ->
      if not !failed then begin
        let lits = s.clauses.(slot).lits in
        let nonfalse = ref [] in
        Array.iter (fun l -> if lit_val s l <> 0 then nonfalse := l :: !nonfalse) lits;
        match !nonfalse with
        | [] ->
          analyze_final s slot;
          failed := true
        | [ l ] ->
          if lit_val s l = -1 then enqueue s l slot;
          (* A root-level assignment never goes away: once satisfied (or
             enqueued) the clause needs no further attention. *)
          ()
        | _ -> kept := slot :: !kept
      end)
    s.pending;
  Vec.clear s.pending;
  List.iter (fun slot -> Vec.push s.pending slot) (List.rev !kept);
  not !failed

(* Clause import for multi-domain sharing.  A peer's learnt clause is
   never trusted: it is re-derived against THIS solver's clause database
   by reverse unit propagation — assume the negation of every unknown
   literal on a throwaway decision level and propagate.  A conflict
   means the clause (or a subset of it) is a unit-propagation
   consequence of the local formula, and walking the throwaway trail
   segment backwards through the reason clauses yields an exact trivial
   resolution chain for it, logged into [Proof_log] like any locally
   learnt clause.  No conflict means the clause is not a local
   consequence (the racing engines encode different instances) and it is
   dropped.  Either way the proof log only ever contains locally
   certified steps, so LRAT export, interpolation labeling and the
   Paranoid replay survive sharing unchanged. *)
let import_clause s ?lbd lits =
  let lits = List.sort_uniq Lit.compare lits in
  let rec tauto = function
    | a :: (b :: _ as rest) -> (Lit.var a = Lit.var b && a <> b) || tauto rest
    | _ -> false
  in
  if
    (not s.ok)
    || tauto lits
    || List.exists (fun l -> l < 0 || Lit.var l >= s.nvars) lits
  then `Dropped
  else begin
    cancel_until s 0;
    (* Root units still parked on the pending list (clauses added since
       the last solve) must be enqueued first, exactly as at solve start
       — both so a root-satisfied candidate is recognised as such and so
       the fixpoint below is over the full database. *)
    if not (flush_pending s) then begin
      s.last_result <- Undef;
      `Dropped
    end
    else begin
    (* Root propagation must be at fixpoint before reasons are walked. *)
    let confl = propagate s in
    if confl >= 0 then begin
      (* The local database is already refuted at the root — record that
         instead of the import. *)
      analyze_final s confl;
      s.last_result <- Undef;
      `Dropped
    end
    else if List.exists (fun l -> lit_val s l = 1) lits then `Satisfied
    else begin
      let unknown = List.filter (fun l -> lit_val s l = -1) lits in
      Vec.push s.trail_lim (Vec.size s.trail);
      List.iter (fun l -> enqueue s (Lit.neg l) (-1)) unknown;
      let confl = propagate s in
      if confl < 0 then begin
        cancel_until s 0;
        `Dropped
      end
      else begin
        (* Eliminate every seen throwaway-level variable via its reason,
           walking the trail backwards (reasons only mention literals
           assigned earlier, so one sweep resolves in valid order); the
           throwaway decisions themselves contribute their negation —
           a literal of the imported clause — and level-0 variables are
           resolved away through [resolve_level0].  The result is the
           imported clause restricted to its underived literals. *)
        let first = s.clauses.(confl).cid in
        let chain = ref [] in
        let out = ref [] in
        let zeros = ref false in
        let see q =
          let v = Lit.var q in
          if s.level.(v) = 0 then begin
            if Bytes.get s.mark0 v = '\000' then begin
              Bytes.set s.mark0 v '\001';
              zeros := true
            end
          end
          else if Bytes.get s.seen v = '\000' then Bytes.set s.seen v '\001'
        in
        Array.iter see s.clauses.(confl).lits;
        let bound = Vec.get s.trail_lim 0 in
        for i = Vec.size s.trail - 1 downto bound do
          let q = Vec.get s.trail i in
          let v = Lit.var q in
          if Bytes.get s.seen v = '\001' then begin
            Bytes.set s.seen v '\000';
            let r = s.reason.(v) in
            if r < 0 then out := Lit.neg q :: !out
            else begin
              chain := (v, s.clauses.(r).cid) :: !chain;
              Array.iter (fun l -> if Lit.var l <> v then see l) s.clauses.(r).lits
            end
          end
        done;
        if !zeros then resolve_level0 s chain;
        let chain = List.rev !chain in
        cancel_until s 0;
        let arr = Array.of_list !out in
        let cid = Proof_log.add_derived s.log ~lits:arr ~first ~chain in
        s.last_result <- Undef;
        let len = Array.length arr in
        let lbd = match lbd with Some g -> max 1 g | None -> max 1 len in
        s.learnt_count <- s.learnt_count + 1;
        if len > s.max_learnt_len then s.max_learnt_len <- len;
        hist_bump s.born_lbd lbd;
        if cid >= Bytes.length s.birth then begin
          let b' = Bytes.make (max (2 * Bytes.length s.birth) (cid + 1)) '\000' in
          Bytes.blit s.birth 0 b' 0 (Bytes.length s.birth);
          s.birth <- b'
        end;
        Bytes.set s.birth cid (Char.chr (min lbd 255));
        if len = 0 then begin
          (* The conflict needed no throwaway decision at all: the local
             database is unsatisfiable outright. *)
          s.ok <- false;
          s.empty_id <- cid
        end
        else begin
          s.live_learnt <- s.live_learnt + 1;
          let slot =
            push_clause s
              {
                cid;
                lits = arr;
                learnt = true;
                birth_lbd = lbd;
                origin = s.origin;
                lbd;
                act = s.cla_inc;
                uses = 0;
              }
          in
          if len = 1 then Vec.push s.pending slot
          else begin
            (* Every literal is unassigned at the root here (each was a
               throwaway decision's negation), so any two watches do. *)
            watch_clause s slot arr
          end
        end;
        `Imported
      end
    end
    end
  end

let pick_branch_var s =
  let rec loop () =
    match Heap.pop s.order with
    | None -> -1
    | Some v -> if s.assigns.(v) < 0 then v else loop ()
  in
  loop ()

(* Luby restart sequence (MiniSat formulation), scaled by [restart_base]. *)
let luby x =
  let rec outer size seq = if size >= x + 1 then (size, seq) else outer ((2 * size) + 1) (seq + 1) in
  let rec inner size seq x =
    if size - 1 = x then seq
    else
      let size = (size - 1) / 2 in
      inner size (seq - 1) (x mod size)
  in
  let size, seq = outer 1 0 in
  1 lsl inner size seq x

let restart_base = 100

(* Interrupt polls also ride the propagation counter: a conflict-light,
   propagation-heavy search can go seconds between conflict or decision
   polls, and the deadline check in Budget rides the same hook. *)
let poll_props = 100_000

let solve_core ?(assumptions = []) ?(conflict_budget = max_int) s =
  cancel_until s 0;
  s.core <- [];
  if not s.ok then begin
    s.last_result <- Unsat;
    Unsat
  end
  else if not (flush_pending s) then begin
    s.last_result <- Unsat;
    Unsat
  end
  else begin
    s.last_result <- Undef;
    let assumptions = Array.of_list assumptions in
    let nassumptions = Array.length assumptions in
    let budget_start = s.conflicts in
    let restarts = ref 0 in
    let conflicts_this_restart = ref 0 in
    let limit = ref (restart_base * luby 0) in
    let props_poll = ref (s.propagations + poll_props) in
    (* Poll once up front: a pre-cancelled solver must not start a
       search that only conflicts can interrupt. *)
    let res = ref (if interrupted s then Some Undef else None) in
    while !res = None do
      let confl = propagate s in
      if confl >= 0 then begin
        s.conflicts <- s.conflicts + 1;
        incr conflicts_this_restart;
        if decision_level s = 0 then begin
          analyze_final s confl;
          res := Some Unsat
        end
        else begin
          let lits, bt_level, first, chain = analyze s confl in
          (* Glue is read off conflict-time levels, before the backjump
             unassigns the asserting literal. *)
          let lbd = compute_lbd s lits in
          (* Never backjump into the middle of the assumption prefix
             without replaying it: cancelling to [bt_level] is safe since
             the decision loop re-installs assumptions by level. *)
          cancel_until s bt_level;
          let slot = record_learnt s lits ~lbd first chain in
          if lit_val s lits.(0) = -1 then enqueue s lits.(0) slot
          else if lit_val s lits.(0) = 0 then begin
            (* Can only happen when the asserting literal is false at the
               root level: unconditionally unsat. *)
            analyze_final s slot;
            res := Some Unsat
          end;
          decay_activities s;
          if !res = None && s.policy.enabled && s.live_learnt > s.reduce_limit then
            reduce_db s;
          (* The interrupt poll rides the conflict counter (every 256
             conflicts) so a cancelled race loser stops well within one
             conflict slice without a closure call per conflict. *)
          if
            s.conflicts - budget_start >= conflict_budget
            || ((s.conflicts land 255 = 0 || s.propagations >= !props_poll)
               && begin
                    props_poll := s.propagations + poll_props;
                    interrupted s
                  end)
          then begin
            cancel_until s 0;
            res := Some Undef
          end
        end
      end
      else if
        !conflicts_this_restart >= !limit && decision_level s > nassumptions
      then begin
        incr restarts;
        s.restarts <- s.restarts + 1;
        (match s.restart_cb with Some cb -> cb s.restarts | None -> ());
        conflicts_this_restart := 0;
        limit := restart_base * luby !restarts;
        cancel_until s nassumptions
      end
      else if decision_level s < nassumptions then begin
        (* Install the next assumption as a decision. *)
        let p = assumptions.(decision_level s) in
        if Lit.var p >= s.nvars then invalid_arg "Solver.solve: unknown assumption variable";
        match lit_val s p with
        | 1 -> Vec.push s.trail_lim (Vec.size s.trail) (* dummy level *)
        | -1 ->
          Vec.push s.trail_lim (Vec.size s.trail);
          enqueue s p (-1)
        | _ ->
          s.core <- analyze_assumptions s p;
          res := Some Unsat
      end
      else if
        ((s.decisions land 4095 = 0 && s.decisions > 0)
        || s.propagations >= !props_poll)
        && begin
             (* Conflict-light searches (heavy propagation, few
                conflicts) still observe cancellation through the
                decision and propagation counters. *)
             props_poll := s.propagations + poll_props;
             interrupted s
           end
      then res := Some Undef
      else begin
        let v = pick_branch_var s in
        if v < 0 then res := Some Sat
        else begin
          s.decisions <- s.decisions + 1;
          Vec.push s.trail_lim (Vec.size s.trail);
          enqueue s (Lit.of_var ~neg:(Bytes.get s.phase v = '\000') v) (-1)
        end
      end
    done;
    let r = match !res with Some r -> r | None -> assert false in
    (* Keep the model readable after Sat; otherwise return to the root. *)
    if r <> Sat then cancel_until s 0;
    s.last_result <- r;
    r
  end

let result_name = function Sat -> "sat" | Unsat -> "unsat" | Undef -> "undef"

let proof ?(trim = true) s =
  if not (refuted s) then
    invalid_arg "Solver.proof: no logged refutation";
  Proof_log.to_proof ~trim s.log ~empty:s.empty_id ~nvars:s.nvars

(* Which learnt clauses earned their keep: histogram (by birth LBD) of
   the learnt steps reachable from the empty clause.  Deleted clauses
   count too — deletion removes a clause from the database, not from the
   resolutions it already served — which is why birth LBDs are kept per
   proof id, not per clause.  Costs a proof reconstruction; callers gate
   it on observability being on. *)
let core_birth_lbd s =
  let p = proof ~trim:true s in
  let used = Proof.used p in
  let h = Array.make hist_buckets 0 in
  Array.iteri
    (fun id u ->
      if u && id < Bytes.length s.birth then
        let b = Char.code (Bytes.get s.birth id) in
        if b > 0 then hist_bump h b)
    used;
  h

(* The watch invariant behind propagation and [reduce_db]'s rebuild:
   every clause of length >= 2 is watched exactly once on [lits.(0)] and
   once on [lits.(1)], every entry names a live slot watching the list's
   literal, and a binary clause's entry carries its other literal. *)
let watches_consistent s =
  let on0 = Array.make s.nclauses 0 and on1 = Array.make s.nclauses 0 in
  let ok = ref true in
  Array.iteri
    (fun lit ws ->
      Vec.iter
        (fun w ->
          let slot = entry_slot w in
          if slot >= s.nclauses then ok := false
          else begin
            let lits = s.clauses.(slot).lits in
            let len = Array.length lits in
            if len < 2 then ok := false
            else begin
              let pos = if lits.(0) = lit then 0 else if lits.(1) = lit then 1 else -1 in
              if pos < 0 then ok := false
              else begin
                let counts = if pos = 0 then on0 else on1 in
                counts.(slot) <- counts.(slot) + 1;
                let other = if len = 2 then lits.(1 - pos) else -1 in
                if entry_other w <> other then ok := false
              end
            end
          end)
        ws)
    s.watches;
  for i = 0 to s.nclauses - 1 do
    if Array.length s.clauses.(i).lits >= 2 && (on0.(i) <> 1 || on1.(i) <> 1) then
      ok := false
  done;
  !ok

(* Sanitizer probes at the solve boundary.  Fast checks the answer
   against the clause database (trail consistency; on Sat, every input
   clause satisfied).  Paranoid additionally checks the watch lists and
   replays the resolution proof behind every unconditional Unsat — on
   the trimmed reconstruction, so the proof-log round-trip is validated
   too. *)
let check_result s r =
  if Check.on () then begin
    Check.probe "sat.trail_consistent" (fun () ->
        let ok = ref true in
        Vec.iter (fun l -> if lit_val s l <> 1 then ok := false) s.trail;
        !ok);
    Check.probe_paranoid "sat.watches_consistent" (fun () -> watches_consistent s);
    match r with
    | Sat ->
      Check.probe "sat.model_satisfies" (fun () ->
          let ok = ref true in
          for i = 0 to s.nclauses - 1 do
            let c = s.clauses.(i) in
            if not c.learnt then begin
              let sat = ref false in
              Array.iter (fun l -> if lit_val s l = 1 then sat := true) c.lits;
              if not !sat then ok := false
            end
          done;
          !ok)
    | Unsat when refuted s && Check.paranoid () -> (
      match Proof_check.check (proof s) with
      | Ok () -> Check.record "sat.proof_replay"
      | Error e ->
        Check.violated "sat.proof_replay"
          ~detail:(Format.asprintf "%a" Proof_check.pp_error e))
    | _ -> ()
  end

(* Each solve is one trace span carrying the search-effort deltas; with
   tracing disabled this is a single flag test on top of the search. *)
let solve ?assumptions ?conflict_budget s =
  let solve_core ?assumptions ?conflict_budget s =
    let r = solve_core ?assumptions ?conflict_budget s in
    check_result s r;
    r
  in
  if not (Isr_obs.Trace.enabled ()) then solve_core ?assumptions ?conflict_budget s
  else begin
    let c0 = s.conflicts and d0 = s.decisions and p0 = s.propagations in
    let r0 = s.restarts in
    let res = ref Undef in
    let end_args () =
      [
        ("result", result_name !res);
        ("conflicts", string_of_int (s.conflicts - c0));
        ("decisions", string_of_int (s.decisions - d0));
        ("propagations", string_of_int (s.propagations - p0));
        ("restarts", string_of_int (s.restarts - r0));
      ]
    in
    Isr_obs.Trace.span "sat.solve" ~end_args (fun () ->
        let r = solve_core ?assumptions ?conflict_budget s in
        res := r;
        r)
  end

let unsat_core s =
  if s.last_result <> Unsat then invalid_arg "Solver.unsat_core: last result not Unsat";
  s.core

let iter_input_clauses s f =
  for i = 0 to s.nclauses - 1 do
    let c = s.clauses.(i) in
    if not c.learnt then f ~tag:(Proof_log.tag s.log c.cid) c.lits
  done
