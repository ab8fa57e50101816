type result = Sat | Unsat | Undef

(* Tiered sanitizer (Off / Fast / Paranoid): named, metered invariant
   checks replacing bare asserts on the hot paths. *)
module Check = Isr_check_core.Level

(* The in-memory clause database holds only what propagation and the
   reduction heuristics need; proof payloads (tags, resolution chains,
   deletion events) live in the append-only [Proof_log].  It is a flat
   store owned by the solver, one column per field, indexed by database
   slot: slot [i]'s literals are [arena.(c_off.(i)) ..
   arena.(c_off.(i) + c_len.(i) - 1)], in watch order.  Slots are laid
   out in the arena in slot order, and [reduce_db] compacts both in that
   order.  [c_cid] is the clause's stable proof-log step id — database
   slots compact on [reduce_db], proof ids never move.  A clause is
   learnt exactly when its birth LBD is positive (inputs are born at 0,
   learnt glue is at least 1). *)

type reduce_policy = {
  enabled : bool;
  base : int;       (* live-learnt threshold for the first reduction *)
  growth : float;   (* geometric multiplier applied after each reduction *)
  keep_lbd : int;   (* clauses with lbd <= keep_lbd are never deleted *)
}

let default_reduce = { enabled = true; base = 4000; growth = 1.3; keep_lbd = 2 }

let hist_buckets = 16
let hist_bump h v = h.(min v (hist_buckets - 1)) <- h.(min v (hist_buckets - 1)) + 1

type t = {
  mutable nvars : int;
  mutable arena : int array;           (* literals of every clause, in slot order *)
  mutable afill : int;                 (* words of [arena] in use *)
  mutable c_off : int array;           (* slot -> offset of its literals in [arena] *)
  mutable c_len : int array;           (* slot -> literal count *)
  mutable c_cid : int array;           (* slot -> proof-log step id (stable) *)
  mutable c_lbd : int array;           (* slot -> glue, tightened on conflict-analysis reuse *)
  mutable c_blbd : int array;          (* slot -> glue at learn time, frozen (0 for inputs) *)
  mutable c_uses : int array;          (* slot -> conflict-analysis participations *)
  mutable c_act : float array;         (* slot -> activity for the reduction sort *)
  mutable nclauses : int;
  mutable watches : int array array;   (* literal -> watch entries (see [watch_clause]) *)
  mutable wlen : int array;            (* literal -> live entries of [watches] *)
  mutable assigns : int array;         (* var -> -1 unknown / 0 false / 1 true *)
  mutable level : int array;           (* var -> decision level *)
  mutable reason : int array;          (* var -> clause slot or -1 *)
  mutable tpos : int array;            (* var -> trail index while assigned *)
  mutable phase : Bytes.t;             (* var -> saved phase *)
  mutable activity : float array;
  mutable var_inc : float;
  mutable cla_inc : float;             (* clause-activity increment *)
  log : Proof_log.t;                   (* append-only proof store *)
  mutable view : Proof.t option;       (* the refutation's proof, once asked for *)
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
  mutable reduce_kept : int;           (* live learnt clauses after the last reduction *)
  born_lbd : int array;                (* cumulative birth-LBD histogram (16 buckets) *)
  dead_lbd : int array;                (* victims by LBD at death *)
  dead_uses : int array;               (* victims by uses before deletion *)
  dead_drift : int array;              (* victims by birth_lbd - lbd at death *)
  mutable birth : Bytes.t;             (* cid -> birth LBD (clamped to 255); 0 = input *)
  mutable learnt_cb : (lits:Lit.t array -> lbd:int -> unit) option;
      (* observes each learned clause (literals, lent for the call, and glue) *)
  mutable restart_cb : (int -> unit) option; (* observes each restart (cumulative count) *)
  mutable interrupt : (unit -> bool) option; (* polled during search; true aborts to Undef *)
  mutable seen : Bytes.t;              (* conflict-analysis scratch *)
  mutable mark0 : Bytes.t;             (* level-0 elimination scratch *)
  mutable nmark0 : int;                (* variables marked in [mark0] *)
  learnt_buf : Vec.t;                  (* analysis scratch: learnt literals as found *)
  mutable sort_buf : int array;        (* analysis scratch: the same, by trail position *)
  chain : Vec.t;                       (* analysis scratch: pivot, antecedent id, ... *)
  mutable bt_level : int;              (* backjump level of the last analysis *)
  mutable lbd_mark : Bytes.t;          (* level-indexed LBD scratch *)
  pending : Vec.t;                     (* clause slots to re-examine at solve start *)
}

let create ?(proof = true) () =
  let s =
    {
      nvars = 0;
      arena = Array.make 256 0;
      afill = 0;
      c_off = Array.make 64 0;
      c_len = Array.make 64 0;
      c_cid = Array.make 64 0;
      c_lbd = Array.make 64 0;
      c_blbd = Array.make 64 0;
      c_uses = Array.make 64 0;
      c_act = Array.make 64 0.0;
      nclauses = 0;
      watches = Array.make 32 [||];
      wlen = Array.make 32 0;
      assigns = Array.make 16 (-1);
      level = Array.make 16 0;
      reason = Array.make 16 (-1);
      tpos = Array.make 16 0;
      phase = Bytes.make 16 '\000';
      activity = Array.make 16 0.0;
      var_inc = 1.0;
      cla_inc = 1.0;
      log = Proof_log.create ~record:proof ();
      view = None;
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
      reduce_kept = 0;
      born_lbd = Array.make hist_buckets 0;
      dead_lbd = Array.make hist_buckets 0;
      dead_uses = Array.make hist_buckets 0;
      dead_drift = Array.make hist_buckets 0;
      birth = Bytes.make 64 '\000';
      learnt_cb = None;
      restart_cb = None;
      interrupt = None;
      seen = Bytes.make 16 '\000';
      mark0 = Bytes.make 16 '\000';
      nmark0 = 0;
      learnt_buf = Vec.create ();
      sort_buf = Array.make 16 0;
      chain = Vec.create ();
      bt_level = 0;
      lbd_mark = Bytes.make 17 '\000';
      pending = Vec.create ();
    }
  in
  Heap.set_activity s.order s.activity;
  s

let nvars s = s.nvars
let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
let num_propagations s = s.propagations
let num_restarts s = s.restarts
let num_learnt s = s.learnt_count
let num_live_learnt s = s.live_learnt
let num_reduces s = s.reduces
let reduce_kept s = s.reduce_kept
let num_clauses s = s.nclauses
let next_step_id s = Proof_log.n_steps s.log
let proof_steps s = if Proof_log.recording s.log then Proof_log.n_steps s.log else 0
let proof_bytes s = Proof_log.bytes s.log
let on_learnt s cb = s.learnt_cb <- cb
let on_restart s cb = s.restart_cb <- cb
let set_interrupt s cb = s.interrupt <- cb
let num_deleted s = s.learnt_count - s.live_learnt
let birth_lbd_counts s = Array.copy s.born_lbd
let dead_lbd_counts s = Array.copy s.dead_lbd
let dead_uses_counts s = Array.copy s.dead_uses
let dead_drift_counts s = Array.copy s.dead_drift

let dead_counts_into s ~uses ~drift =
  Array.blit s.dead_uses 0 uses 0 hist_buckets;
  Array.blit s.dead_drift 0 drift 0 hist_buckets

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

(* Per-variable storage at capacity [cap'], and per-literal storage at
   [wcap'] — both exact: [grow_vars] doubles, [reserve] sizes once. *)
let resize_vars s cap' =
  let cap = Array.length s.assigns in
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

(* A literal gets its own watch list on its first watch: until then it
   shares the empty array. *)
let resize_watches s wcap' =
  let wcap = Array.length s.watches in
  let w' = Array.make wcap' [||] in
  Array.blit s.watches 0 w' 0 wcap;
  s.watches <- w';
  let l' = Array.make wcap' 0 in
  Array.blit s.wlen 0 l' 0 wcap;
  s.wlen <- l'

let grow_vars s n =
  let cap = Array.length s.assigns in
  if n > cap then resize_vars s (max (2 * cap) n);
  let wcap = Array.length s.watches in
  if 2 * n > wcap then resize_watches s (max (2 * wcap) (2 * n))

(* Every slot column at capacity [cap'], and the arena at [words']. *)
let resize_clauses s cap' =
  let n = s.nclauses in
  let grow a =
    let a' = Array.make cap' 0 in
    Vec.blit_ints a 0 a' 0 n;
    a'
  in
  s.c_off <- grow s.c_off;
  s.c_len <- grow s.c_len;
  s.c_cid <- grow s.c_cid;
  s.c_lbd <- grow s.c_lbd;
  s.c_blbd <- grow s.c_blbd;
  s.c_uses <- grow s.c_uses;
  let act' = Array.make cap' 0.0 in
  Array.blit s.c_act 0 act' 0 n;
  s.c_act <- act'

let resize_arena s words' =
  let a = Array.make words' 0 in
  Vec.blit_ints s.arena 0 a 0 s.afill;
  s.arena <- a

let reserve s ~vars ~clauses ~lits =
  if vars < 0 || clauses < 0 || lits < 0 then invalid_arg "Solver.reserve: negative count";
  let n = s.nvars + vars in
  if n > Array.length s.assigns then resize_vars s n;
  if 2 * n > Array.length s.watches then resize_watches s (2 * n);
  Heap.reserve s.order n;
  Vec.reserve s.trail n;
  (* An eighth more for learnt clauses: a store sized exactly for the
     inputs would double its arena and every column at the first learnt
     clause, and a large instance often learns only a few. *)
  let m = s.nclauses + clauses + (clauses / 8) in
  if m > Array.length s.c_off then resize_clauses s m;
  let w = s.afill + lits + (lits / 8) in
  if w > Array.length s.arena then resize_arena s w;
  Proof_log.reserve_steps s.log clauses

(* The variables enter the branching heap in index order, one by one,
   exactly as [n] calls of [new_var] would insert them. *)
let new_vars s n =
  if n < 0 then invalid_arg "Solver.new_vars: negative count";
  let v0 = s.nvars in
  s.nvars <- v0 + n;
  grow_vars s s.nvars;
  for v = v0 to v0 + n - 1 do
    Heap.insert s.order v
  done;
  v0

let new_var s = new_vars s 1

(* Value of a literal: -1 unknown, 0 false, 1 true. *)
let lit_val s l =
  let a = Array.unsafe_get s.assigns (Lit.var l) in
  if a < 0 then -1 else a lxor (l land 1)

let value s v = s.assigns.(v) = 1
let lit_value s l = lit_val s l = 1
let decision_level s = Vec.size s.trail_lim

(* A new slot holding [lits.(0 .. len - 1)], born with glue [lbd] (0
   for an input clause) and activity [act]. *)
let push_clause s lits len ~cid ~lbd ~act =
  if s.nclauses = Array.length s.c_off then resize_clauses s (2 * s.nclauses);
  if s.afill + len > Array.length s.arena then
    resize_arena s (max (2 * Array.length s.arena) (s.afill + len));
  let slot = s.nclauses and off = s.afill in
  Vec.blit_ints lits 0 s.arena off len;
  s.afill <- off + len;
  s.c_off.(slot) <- off;
  s.c_len.(slot) <- len;
  s.c_cid.(slot) <- cid;
  s.c_lbd.(slot) <- lbd;
  s.c_blbd.(slot) <- lbd;
  s.c_uses.(slot) <- 0;
  s.c_act.(slot) <- act;
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

let push_watch s lit w =
  let n = s.wlen.(lit) in
  let ws = s.watches.(lit) in
  let ws =
    if n < Array.length ws then ws
    else begin
      let ws' = Array.make (max 4 (2 * n)) 0 in
      Array.blit ws 0 ws' 0 n;
      s.watches.(lit) <- ws';
      ws'
    end
  in
  Array.unsafe_set ws n w;
  s.wlen.(lit) <- n + 1

(* Watches the slot's first two literals. *)
let watch_clause s slot =
  let off = s.c_off.(slot) in
  let l0 = s.arena.(off) and l1 = s.arena.(off + 1) in
  if s.c_len.(slot) = 2 then begin
    push_watch s l0 (((l1 + 1) lsl 32) lor slot);
    push_watch s l1 (((l0 + 1) lsl 32) lor slot)
  end
  else begin
    push_watch s l0 slot;
    push_watch s l1 slot
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

(* Conflict in the watch list [ws] of [lit] at entry [i], with [j]
   entries kept so far: salvage the unvisited watches, then abort
   propagation. *)
let conflict s ws lit ~i ~j slot =
  let n = s.wlen.(lit) in
  for k = i + 1 to n - 1 do
    Array.unsafe_set ws (j + k - i - 1) (Array.unsafe_get ws k)
  done;
  s.wlen.(lit) <- j + n - i - 1;
  s.qhead <- Vec.size s.trail;
  raise (Conflict slot)

(* Two-watched-literal propagation; returns the slot of a conflicting
   clause or -1.  Every read is in range by construction: trail
   positions below its size, watch entries below [wlen], live slots,
   and literal positions below the clause length.  No clause is added
   while it runs, so the store's arrays are read once. *)
let propagate s =
  let arena = s.arena and c_off = s.c_off and c_len = s.c_len in
  try
    while s.qhead < Vec.size s.trail do
      let p = Vec.unsafe_get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      s.propagations <- s.propagations + 1;
      let false_lit = Lit.neg p in
      (* Pushes below go to other literals' lists, never to this one:
         [ws] and [n] stay valid for the whole sweep. *)
      let ws = Array.unsafe_get s.watches false_lit in
      let n = Array.unsafe_get s.wlen false_lit in
      let j = ref 0 in
      for i = 0 to n - 1 do
        let w = Array.unsafe_get ws i in
        let other = entry_other w in
        if other >= 0 then begin
          (* Binary clause, decided from the entry; the watch stays. *)
          Array.unsafe_set ws !j w;
          incr j;
          let v = lit_val s other in
          if v = 0 then begin
            (* Conflict analysis reads the conflict clause in literal
               order: leave it as [other; false_lit], as the swap on the
               long-clause path would. *)
            let off = Array.unsafe_get c_off (entry_slot w) in
            Array.unsafe_set arena off other;
            Array.unsafe_set arena (off + 1) false_lit;
            conflict s ws false_lit ~i ~j:!j (entry_slot w)
          end
          else if v < 0 then enqueue s other (entry_slot w)
        end
        else begin
          let slot = w in
          let off = Array.unsafe_get c_off slot in
          (* Ensure the false literal sits at position 1. *)
          if Array.unsafe_get arena off = false_lit then begin
            Array.unsafe_set arena off (Array.unsafe_get arena (off + 1));
            Array.unsafe_set arena (off + 1) false_lit
          end;
          let first = Array.unsafe_get arena off in
          if lit_val s first = 1 then begin
            (* Clause already satisfied: keep the watch. *)
            Array.unsafe_set ws !j slot;
            incr j
          end
          else begin
            (* Look for a replacement literal to watch. *)
            let stop = off + Array.unsafe_get c_len slot in
            let k = ref (off + 2) in
            while !k < stop && lit_val s (Array.unsafe_get arena !k) = 0 do
              incr k
            done;
            if !k < stop then begin
              let l = Array.unsafe_get arena !k in
              Array.unsafe_set arena (off + 1) l;
              Array.unsafe_set arena !k false_lit;
              push_watch s l slot
            end
            else begin
              (* Unit or conflicting: the watch stays. *)
              Array.unsafe_set ws !j slot;
              incr j;
              if lit_val s first = 0 then conflict s ws false_lit ~i ~j:!j slot
              else enqueue s first slot
            end
          end
        end
      done;
      Array.unsafe_set s.wlen false_lit !j
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

let bump_clause s slot =
  let act = s.c_act in
  act.(slot) <- act.(slot) +. s.cla_inc;
  if act.(slot) > 1e20 then begin
    for i = 0 to s.nclauses - 1 do
      if s.c_blbd.(i) > 0 then act.(i) <- act.(i) *. 1e-20
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

(* Glue (LBD) of the clause [a.(off .. off + len - 1)]: distinct
   non-root decision levels among its literals, at least 1.  Called
   before the backjump so every literal still carries its conflict-time
   level. *)
let compute_lbd s a off len =
  let n = ref 0 in
  for k = off to off + len - 1 do
    let lv = s.level.(Lit.var (Array.unsafe_get a k)) in
    if lv > 0 && Bytes.get s.lbd_mark lv = '\000' then begin
      Bytes.set s.lbd_mark lv '\001';
      incr n
    end
  done;
  for k = off to off + len - 1 do
    let lv = s.level.(Lit.var (Array.unsafe_get a k)) in
    if lv > 0 then Bytes.set s.lbd_mark lv '\000'
  done;
  max 1 !n

(* One resolution step of the chain in [s.chain]: on variable [v],
   against the clause in [slot], by its proof-log id.  Level-0 variables
   met on the way are marked in [mark0] and resolved away by
   [resolve_level0]. *)
let push_step s v slot =
  Vec.push s.chain v;
  Vec.push s.chain (Array.unsafe_get s.c_cid slot)

let mark0 s v =
  if Bytes.unsafe_get s.mark0 v = '\000' then begin
    Bytes.unsafe_set s.mark0 v '\001';
    s.nmark0 <- s.nmark0 + 1
  end

(* Marks in [mark0] every level-0 variable of the clause in [slot] but
   [v]. *)
let mark0_reason s v slot =
  let off = s.c_off.(slot) in
  for k = off to off + s.c_len.(slot) - 1 do
    let w = Lit.var (Array.unsafe_get s.arena k) in
    if w <> v && s.level.(w) = 0 then mark0 s w
  done

(* Append to the chain the resolutions eliminating every marked level-0
   variable from the virtual resolvent.  Walks the level-0 trail segment
   backwards, down to the last marked variable: a reason clause only
   mentions literals assigned earlier, so a single sweep eliminates
   everything in valid resolution order. *)
let resolve_level0 s =
  let bound = if Vec.size s.trail_lim > 0 then Vec.get s.trail_lim 0 else Vec.size s.trail in
  let i = ref (bound - 1) in
  while s.nmark0 > 0 && !i >= 0 do
    let v = Lit.var (Vec.unsafe_get s.trail !i) in
    if Bytes.unsafe_get s.mark0 v = '\001' then begin
      Bytes.unsafe_set s.mark0 v '\000';
      s.nmark0 <- s.nmark0 - 1;
      let r = s.reason.(v) in
      if Check.on () then
        Check.check "sat.level0_has_reason" (r >= 0)
          ~detail:(fun () -> Printf.sprintf "level-0 variable %d has no reason clause" v);
      push_step s v r;
      mark0_reason s v r
    end;
    decr i
  done;
  s.nmark0 <- 0

(* Sorts [a.(0 .. n-1)], literals assigned at distinct trail positions,
   latest-assigned first: a heap sort on a min-heap of trail positions. *)
let tpos_of s l = Array.unsafe_get s.tpos (Lit.var l)

let rec sift_min s a i n =
  let c = (2 * i) + 1 in
  if c < n then begin
    let c = if c + 1 < n && tpos_of s a.(c + 1) < tpos_of s a.(c) then c + 1 else c in
    if tpos_of s a.(c) < tpos_of s a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift_min s a c n
    end
  end

let sort_by_trail_desc s a n =
  for i = (n / 2) - 1 downto 0 do
    sift_min s a i n
  done;
  for e = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(e);
    a.(e) <- x;
    sift_min s a 0 e
  done

(* Local clause minimization (Sörensson): the learnt literal on [v],
   with reason [r], is redundant when the reason's other literals are
   all in the clause ([seen] 1) or fixed at level 0. *)
let removable s v r =
  let off = s.c_off.(r) in
  let stop = off + s.c_len.(r) in
  let k = ref off in
  while
    !k < stop
    &&
    let w = Lit.var (Array.unsafe_get s.arena !k) in
    w = v || s.level.(w) = 0 || Bytes.unsafe_get s.seen w = '\001'
  do
    incr k
  done;
  !k = stop

(* First-UIP conflict analysis.  Returns the learned clause (asserting
   literal first, then the others by increasing trail position) and
   leaves the backjump level in [s.bt_level] and the resolution chain
   over proof-log ids in [s.chain], in resolution order.  The only
   allocation is the returned clause. *)
let analyze s confl =
  let cur_level = decision_level s in
  let learnt = s.learnt_buf in
  Vec.clear learnt;
  Vec.clear s.chain;
  let counter = ref 0 in
  let p = ref (-1) in
  let idx = ref (Vec.size s.trail - 1) in
  let slot = ref confl in
  let continue = ref true in
  while !continue do
    let c = !slot in
    let off = s.c_off.(c) and len = s.c_len.(c) in
    if s.c_blbd.(c) > 0 then begin
      bump_clause s c;
      (* Clause-lifecycle accounting: participating in a conflict
         analysis is the "useful" event, and — glucose-style — the
         moment to tighten the stored glue (every literal of a reason
         clause is assigned here, so [compute_lbd] sees real levels).
         LBD only ever improves; the drift histogram relies on that. *)
      s.c_uses.(c) <- s.c_uses.(c) + 1;
      let g = compute_lbd s s.arena off len in
      if g < s.c_lbd.(c) then s.c_lbd.(c) <- g
    end;
    let arena = s.arena in
    for k = off to off + len - 1 do
      let q = Array.unsafe_get arena k in
      (* Skip the pivot occurrence: reason clauses contain the literal
         they propagated. *)
      if !p = -1 || q <> !p then begin
        let v = Lit.var q in
        if Bytes.unsafe_get s.seen v = '\000' then
          if s.level.(v) = 0 then begin
            (* Resolved against its level-0 reason afterwards. *)
            mark0 s v
          end
          else begin
            Bytes.unsafe_set s.seen v '\001';
            bump_var s v;
            if s.level.(v) = cur_level then incr counter else Vec.push learnt q
          end
      end
    done;
    (* Select the next seen literal on the trail at the current level. *)
    while Bytes.unsafe_get s.seen (Lit.var (Vec.unsafe_get s.trail !idx)) = '\000' do
      decr idx
    done;
    p := Vec.unsafe_get s.trail !idx;
    decr idx;
    let v = Lit.var !p in
    Bytes.unsafe_set s.seen v '\000';
    decr counter;
    if !counter = 0 then continue := false
    else begin
      slot := s.reason.(v);
      if Check.on () then
        Check.check "sat.analyze_has_reason" (!slot >= 0)
          ~detail:(fun () -> Printf.sprintf "trail variable %d has no reason clause" v);
      push_step s v !slot
    end
  done;
  (* Minimization visits the literals latest-assigned first, so a
     removal never invalidates the check for the earlier ones (a reason
     only mentions earlier literals); each removal is recorded in the
     resolution chain to keep proofs exact.  Membership is the [seen]
     mark, which is 1 on exactly the learnt literals here; a removed
     literal is marked 2 until the final clear.  The kept literals are
     compacted, in visiting order, to the front of [a]. *)
  let n = Vec.size learnt in
  if n > Array.length s.sort_buf then
    s.sort_buf <- Array.make (max n (2 * Array.length s.sort_buf)) 0;
  let a = s.sort_buf in
  for i = 0 to n - 1 do
    a.(i) <- Vec.unsafe_get learnt i
  done;
  sort_by_trail_desc s a n;
  let nkept = ref 0 in
  for i = 0 to n - 1 do
    let q = a.(i) in
    let v = Lit.var q in
    let r = s.reason.(v) in
    if r >= 0 && removable s v r then begin
      Bytes.unsafe_set s.seen v '\002';
      push_step s v r;
      mark0_reason s v r
    end
    else begin
      a.(!nkept) <- q;
      incr nkept
    end
  done;
  if s.nmark0 > 0 then resolve_level0 s;
  let nk = !nkept in
  let out = Array.make (nk + 1) (Lit.neg !p) in
  let bt = ref 0 in
  for i = 1 to nk do
    let q = a.(nk - i) in
    out.(i) <- q;
    let lv = s.level.(Lit.var q) in
    if lv > !bt then bt := lv
  done;
  for i = 0 to n - 1 do
    Bytes.unsafe_set s.seen (Lit.var (Vec.unsafe_get learnt i)) '\000'
  done;
  s.bt_level <- !bt;
  out

(* Conflict whose literals are all false at decision level 0: derive the
   empty clause and mark the instance unconditionally unsatisfiable.
   The empty clause is a proof-log step only — it never enters the
   clause database (nothing watches or resolves against it). *)
let analyze_final s confl =
  Vec.clear s.chain;
  let off = s.c_off.(confl) in
  for k = off to off + s.c_len.(confl) - 1 do
    mark0 s (Lit.var (Array.unsafe_get s.arena k))
  done;
  resolve_level0 s;
  s.empty_id <- Proof_log.add_derived s.log ~lits:[||] ~first:s.c_cid.(confl) ~chain:s.chain;
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
        let off = s.c_off.(r) in
        for k = off to off + s.c_len.(r) - 1 do
          let w = Lit.var s.arena.(k) in
          if w <> v && s.level.(w) > 0 then Bytes.set s.seen w '\001'
        done
    end
  done;
  Bytes.set s.seen v0 '\000';
  !core

let record_learnt s lits ~lbd ~first =
  let cid = Proof_log.add_derived s.log ~lits ~first ~chain:s.chain in
  s.learnt_count <- s.learnt_count + 1;
  s.live_learnt <- s.live_learnt + 1;
  let len = Array.length lits in
  hist_bump s.born_lbd lbd;
  (* Birth LBD per proof id, outliving the database clause: proof-core
     attribution ([core_birth_lbd]) needs it after deletion. *)
  if cid >= Bytes.length s.birth then begin
    let b' = Bytes.make (max (2 * Bytes.length s.birth) (cid + 1)) '\000' in
    Bytes.blit s.birth 0 b' 0 (Bytes.length s.birth);
    s.birth <- b'
  end;
  Bytes.set s.birth cid (Char.chr (min lbd 255));
  (* The hook sees the literals in learnt order, asserting literal
     first; the store's copy takes the watch swap below. *)
  (match s.learnt_cb with None -> () | Some f -> f ~lits ~lbd);
  let slot = push_clause s lits len ~cid ~lbd ~act:s.cla_inc in
  if len >= 2 then begin
    (* The asserting literal comes first; the second watch must be the
       highest-level other literal so the invariant survives backjumps. *)
    let a = s.arena and off = s.c_off.(slot) in
    let best = ref (off + 1) in
    for k = off + 2 to off + len - 1 do
      if s.level.(Lit.var a.(k)) > s.level.(Lit.var a.(!best)) then best := k
    done;
    let tmp = a.(off + 1) in
    a.(off + 1) <- a.(!best);
    a.(!best) <- tmp;
    watch_clause s slot
  end;
  slot

(* MiniSat-style learnt-database reduction.  Deletion candidates are the
   live learnt clauses that are neither binary, nor glue (lbd <=
   keep_lbd), nor locked as some assigned variable's reason; the worst
   half by (lbd desc, activity asc) is dropped.  Deletions are recorded
   in the proof log (for LRAT [d] lines), the store compacts in slot
   order — every surviving slot and its literals move down, in place,
   keeping their order — and reasons, the pending list and every watch
   list are rebuilt on the new slots; proof ids are untouched.  Safe at
   any decision level: the watched-positions-0/1 invariant holds for
   every clause of length >= 2, so watch lists can be reconstructed from
   scratch. *)
let reduce_db s =
  let n = s.nclauses in
  let locked = Array.make n false in
  Vec.iter
    (fun l ->
      let r = s.reason.(Lit.var l) in
      if r >= 0 then locked.(r) <- true)
    s.trail;
  let cand = ref [] in
  for i = 0 to n - 1 do
    if s.c_blbd.(i) > 0 && s.c_len.(i) > 2 && s.c_lbd.(i) > s.policy.keep_lbd && not locked.(i)
    then cand := i :: !cand
  done;
  let cand = Array.of_list !cand in
  let lbd = s.c_lbd and act = s.c_act in
  Array.sort
    (fun a b ->
      if lbd.(a) <> lbd.(b) then compare lbd.(b) lbd.(a) else Float.compare act.(a) act.(b))
    cand;
  let ndelete = Array.length cand / 2 in
  if ndelete > 0 then begin
    let dead = Array.make n false in
    (* Per-reduction victim histograms (the [Reduce] record's), also
       folded into the cumulative lifecycle statistics that [Budget]
       charges to the run.  Cheap (three bumps per victim), so always
       on — the registry invariants (dead sums = deleted count) must
       hold whether or not anyone listens. *)
    let dl = Array.make hist_buckets 0 in
    let du = Array.make hist_buckets 0 in
    for k = 0 to ndelete - 1 do
      let slot = cand.(k) in
      hist_bump dl lbd.(slot);
      hist_bump du s.c_uses.(slot);
      hist_bump s.dead_drift (max 0 (s.c_blbd.(slot) - lbd.(slot)));
      dead.(slot) <- true;
      Proof_log.delete s.log s.c_cid.(slot)
    done;
    Array.iteri (fun i n -> s.dead_lbd.(i) <- s.dead_lbd.(i) + n) dl;
    Array.iteri (fun i n -> s.dead_uses.(i) <- s.dead_uses.(i) + n) du;
    (* Compact the store and remap every stored slot.  Slot [j <= i]
       lands at arena offset [fill <= c_off.(i)], so moving forward in
       slot order never overwrites what is still to move. *)
    let map = Array.make n (-1) in
    let j = ref 0 and fill = ref 0 in
    for i = 0 to n - 1 do
      if not dead.(i) then begin
        let len = s.c_len.(i) in
        Vec.blit_ints s.arena s.c_off.(i) s.arena !fill len;
        s.c_off.(!j) <- !fill;
        s.c_len.(!j) <- len;
        s.c_cid.(!j) <- s.c_cid.(i);
        lbd.(!j) <- lbd.(i);
        s.c_blbd.(!j) <- s.c_blbd.(i);
        s.c_uses.(!j) <- s.c_uses.(i);
        act.(!j) <- act.(i);
        fill := !fill + len;
        map.(i) <- !j;
        incr j
      end
    done;
    s.nclauses <- !j;
    s.afill <- !fill;
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
    Array.fill s.wlen 0 (2 * s.nvars) 0;
    for i = 0 to s.nclauses - 1 do
      if s.c_len.(i) >= 2 then watch_clause s i
    done;
    s.live_learnt <- s.live_learnt - ndelete;
    s.reduces <- s.reduces + 1;
    s.reduce_kept <- s.live_learnt;
    if Isr_obs.Event.enabled () then begin
      (* LBD distribution of the surviving learnt clauses; only computed
         when someone is listening (the victim histograms were already
         paid above). *)
      let kept = Array.make hist_buckets 0 in
      for i = 0 to s.nclauses - 1 do
        if s.c_blbd.(i) > 0 then hist_bump kept lbd.(i)
      done;
      Isr_obs.Event.emit
        (Isr_obs.Event.Reduce
           { kept = s.live_learnt; dropped = ndelete; lbd = kept; dead_lbd = dl; dead_uses = du })
    end
  end;
  (* Grow the threshold even when nothing was deletable, so an
     all-glue/all-locked database does not retrigger every conflict. *)
  s.reduce_limit <- int_of_float (float_of_int s.reduce_limit *. s.policy.growth) + 1

(* Sorts [a] in place, merges duplicates into its prefix and returns
   the prefix length: the literals of [List.sort_uniq Lit.compare]. *)
let sort_uniq_in_place a =
  let n = Array.length a in
  if n <= 16 then
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else Array.sort Lit.compare a;
  if n = 0 then 0
  else begin
    let m = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!m - 1) then begin
        a.(!m) <- a.(i);
        incr m
      end
    done;
    !m
  end

(* Adding clauses is allowed at any time; the solver backtracks to the
   root level first.  Unit consequences are deferred to the next solve
   (via the pending list) so that proof shapes do not depend on
   interleaving clause addition with propagation. *)
let add_clause_array s ?(tag = 0) arr =
  if tag < 0 then invalid_arg "Solver.add_clause: negative tag";
  if s.ok then begin
    cancel_until s 0;
    s.last_result <- Undef;
    (* Merge duplicates, drop tautologies.  Literals are otherwise kept
       untouched so the clause matches its proof role exactly. *)
    let len = sort_uniq_in_place arr in
    let tauto = ref false in
    for i = 1 to len - 1 do
      if Lit.var arr.(i - 1) = Lit.var arr.(i) then tauto := true
    done;
    if not !tauto then begin
      for i = 0 to len - 1 do
        let l = arr.(i) in
        if Lit.var l >= s.nvars || l < 0 then
          invalid_arg "Solver.add_clause: unknown variable"
      done;
      let arr = if len = Array.length arr then arr else Array.sub arr 0 len in
      let cid = Proof_log.add_input s.log ~tag arr in
      (* Watch two non-false literals when possible (under the current
         root-level assignment), moving them to the front in clause
         order; when fewer exist, the clause is unit or false right now
         and goes to the pending list. *)
      let pos = ref 0 and i = ref 0 in
      if len >= 2 then
        while !pos < 2 && !i < len do
          let l = arr.(!i) in
          if lit_val s l <> 0 then begin
            arr.(!i) <- arr.(!pos);
            arr.(!pos) <- l;
            incr pos
          end;
          incr i
        done;
      let slot = push_clause s arr len ~cid ~lbd:0 ~act:0.0 in
      match len with
      | 0 ->
        s.ok <- false;
        s.empty_id <- cid
      | 1 -> Vec.push s.pending slot
      | _ ->
        watch_clause s slot;
        if !pos < 2 then Vec.push s.pending slot
    end
  end

let add_clause s ?tag lits = add_clause_array s ?tag (Array.of_list lits)

(* Re-examine the pending clauses at solve start: enqueue the unit ones,
   derive the empty clause from falsified ones.  Clauses whose literal
   got satisfied at the root level are dropped from the list. *)
let flush_pending s =
  let kept = ref [] in
  let failed = ref false in
  Vec.iter
    (fun slot ->
      if not !failed then begin
        let off = s.c_off.(slot) in
        let nonfalse = ref [] in
        for k = off to off + s.c_len.(slot) - 1 do
          let l = s.arena.(k) in
          if lit_val s l <> 0 then nonfalse := l :: !nonfalse
        done;
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

let rec pick_branch_var s =
  let v = Heap.pop s.order in
  if v < 0 || s.assigns.(v) < 0 then v else pick_branch_var s

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
          let lits = analyze s confl in
          let first = s.c_cid.(confl) in
          (* Glue is read off conflict-time levels, before the backjump
             unassigns the asserting literal. *)
          let lbd = compute_lbd s lits 0 (Array.length lits) in
          (* Never backjump into the middle of the assumption prefix
             without replaying it: cancelling to [bt_level] is safe since
             the decision loop re-installs assumptions by level. *)
          cancel_until s s.bt_level;
          let slot = record_learnt s lits ~lbd ~first in
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

let proof s =
  if not (refuted s) then
    invalid_arg "Solver.proof: no logged refutation";
  match s.view with
  | Some p -> p
  | None ->
    (* Once refuted the solver takes no more clauses, so the log is
       final and one view (with its memoised used cone) serves every
       caller. *)
    let p = Proof_log.view s.log ~empty:s.empty_id ~nvars:s.nvars in
    s.view <- Some p;
    p

(* Which learnt clauses earned their keep: histogram (by birth LBD) of
   the learnt steps reachable from the empty clause.  Deleted clauses
   count too — deletion removes a clause from the database, not from the
   resolutions it already served — which is why birth LBDs are kept per
   proof id, not per clause.  Reads the used cone of the cached view. *)
let core_birth_lbd s =
  let h = Array.make hist_buckets 0 in
  Array.iter
    (fun id ->
      if id < Bytes.length s.birth then
        let b = Char.code (Bytes.get s.birth id) in
        if b > 0 then hist_bump h b)
    (Proof.used (proof s));
  h

(* The watch invariant behind propagation and [reduce_db]'s rebuild:
   every clause of length >= 2 is watched exactly once on its first and
   once on its second literal, every entry names a live slot watching
   the list's literal, and a binary clause's entry carries its other
   literal. *)
let watches_consistent s =
  let on0 = Array.make s.nclauses 0 and on1 = Array.make s.nclauses 0 in
  let ok = ref true in
  Array.iteri
    (fun lit ws ->
      if s.wlen.(lit) > Array.length ws then ok := false
      else
        for i = 0 to s.wlen.(lit) - 1 do
          let w = ws.(i) in
          let slot = entry_slot w in
          if slot >= s.nclauses then ok := false
          else begin
            let off = s.c_off.(slot) and len = s.c_len.(slot) in
            if len < 2 then ok := false
            else begin
              let l0 = s.arena.(off) and l1 = s.arena.(off + 1) in
              let pos = if l0 = lit then 0 else if l1 = lit then 1 else -1 in
              if pos < 0 then ok := false
              else begin
                let counts = if pos = 0 then on0 else on1 in
                counts.(slot) <- counts.(slot) + 1;
                let other = if len = 2 then (if pos = 0 then l1 else l0) else -1 in
                if entry_other w <> other then ok := false
              end
            end
          end
        done)
    s.watches;
  (* The store is packed in slot order, as [reduce_db] relies on. *)
  let fill = ref 0 in
  for i = 0 to s.nclauses - 1 do
    if s.c_len.(i) >= 2 && (on0.(i) <> 1 || on1.(i) <> 1) then
      ok := false;
    if s.c_off.(i) <> !fill then ok := false;
    fill := !fill + s.c_len.(i)
  done;
  !ok && !fill = s.afill

(* Sanitizer probes at the solve boundary.  Fast checks the answer
   against the clause database (trail consistency; on Sat, every input
   clause satisfied).  Paranoid additionally checks the watch lists and
   replays the used cone of the resolution proof behind every
   unconditional Unsat, read through the same view interpolation uses. *)
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
            if s.c_blbd.(i) = 0 then begin
              let sat = ref false in
              let off = s.c_off.(i) in
              for k = off to off + s.c_len.(i) - 1 do
                if lit_val s s.arena.(k) = 1 then sat := true
              done;
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
        ("proof_bytes", string_of_int (proof_bytes s));
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
    if s.c_blbd.(i) = 0 then
      f ~tag:(Proof_log.tag s.log s.c_cid.(i)) (Array.sub s.arena s.c_off.(i) s.c_len.(i))
  done
