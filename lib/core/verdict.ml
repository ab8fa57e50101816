open Isr_model
module M = Isr_obs.Metrics

type reason = Time_limit | Conflict_limit | Bound_limit of int

type t =
  | Proved of { kfp : int; jfp : int; invariant : Isr_aig.Aig.lit option }
  | Falsified of { depth : int; trace : Trace.t }
  | Unknown of reason

type stats = {
  metrics : M.t;
  c_sat_calls : M.counter;
  c_conflicts : M.counter;
  c_decisions : M.counter;
  c_propagations : M.counter;
  c_restarts : M.counter;
  h_learnt_len : M.histogram;
  c_db_reduce : M.counter;
  g_db_kept : M.gauge;
  c_clause_born : M.counter;
  c_clause_deleted : M.counter;
  c_share_export : M.counter;
  c_share_import : M.counter;
  c_share_drop : M.counter;
  h_clause_birth_lbd : M.histogram;
  h_clause_uses_death : M.histogram;
  h_clause_drift : M.histogram;
  h_clause_core_lbd : M.histogram;
  g_proof_steps : M.gauge;
  g_proof_bytes : M.gauge;
  c_itp_nodes : M.counter;
  h_itp_size : M.histogram;
  c_incl_checks : M.counter;
  c_incl_cached : M.counter;
  c_incl_vars : M.counter;
  g_last_bound : M.gauge;
  c_refinements : M.counter;
  g_frozen_latches : M.gauge;
  g_time : M.gauge;
}

(* Metric names are the public contract of the JSON snapshot; the
   glossary in DESIGN.md maps them to the paper's quantities. *)
let mk_stats () =
  let m = M.create () in
  {
    metrics = m;
    c_sat_calls = M.counter m "sat.calls";
    c_conflicts = M.counter m "sat.conflicts";
    c_decisions = M.counter m "sat.decisions";
    c_propagations = M.counter m "sat.propagations";
    c_restarts = M.counter m "sat.restarts";
    h_learnt_len = M.histogram m "sat.learnt_len";
    c_db_reduce = M.counter m "sat.db.reduce";
    g_db_kept = M.gauge m "sat.db.kept";
    c_clause_born = M.counter m "clause.born";
    c_clause_deleted = M.counter m "clause.deleted";
    c_share_export = M.counter m "share.exported";
    c_share_import = M.counter m "share.imported";
    c_share_drop = M.counter m "share.dropped";
    h_clause_birth_lbd = M.histogram m "clause.birth_lbd";
    h_clause_uses_death = M.histogram m "clause.uses_at_death";
    h_clause_drift = M.histogram m "clause.lbd_drift";
    h_clause_core_lbd = M.histogram m "clause.core_birth_lbd";
    g_proof_steps = M.gauge m "proof.steps";
    g_proof_bytes = M.gauge m "proof.bytes";
    c_itp_nodes = M.counter m "itp.nodes";
    h_itp_size = M.histogram m "itp.size";
    c_incl_checks = M.counter m "incl.checks";
    c_incl_cached = M.counter m "incl.cached";
    c_incl_vars = M.counter m "incl.new_vars";
    g_last_bound = M.gauge m "bmc.last_bound";
    c_refinements = M.counter m "abs.refinements";
    g_frozen_latches = M.gauge m "abs.frozen_latches";
    g_time = M.gauge m "engine.time_s";
  }

let registry s = s.metrics

let sat_calls s = M.value s.c_sat_calls
let conflicts s = M.value s.c_conflicts
let decisions s = M.value s.c_decisions
let propagations s = M.value s.c_propagations
let restarts s = M.value s.c_restarts
let max_learnt_len s = int_of_float (M.hist_max s.h_learnt_len)
let db_reduces s = M.value s.c_db_reduce
let clauses_born s = M.value s.c_clause_born
let clauses_deleted s = M.value s.c_clause_deleted
let shared_exported s = M.value s.c_share_export
let shared_imported s = M.value s.c_share_import
let shared_dropped s = M.value s.c_share_drop
let proof_steps s = int_of_float (M.gauge_value s.g_proof_steps)
let itp_nodes s = M.value s.c_itp_nodes
let last_bound s = int_of_float (M.gauge_value s.g_last_bound)
let refinements s = M.value s.c_refinements
let abstract_latches s = int_of_float (M.gauge_value s.g_frozen_latches)
let time s = M.gauge_value s.g_time

let note_bound s k = M.set_max s.g_last_bound (float_of_int k)

let add_itp_nodes s n =
  M.add s.c_itp_nodes n;
  M.observe s.h_itp_size (float_of_int n)

let incl_checks s = M.value s.c_incl_checks
let incl_cached s = M.value s.c_incl_cached
let incl_new_vars s = M.value s.c_incl_vars

let add_incl_check s ~cached ~new_vars =
  M.incr s.c_incl_checks;
  if cached then M.incr s.c_incl_cached;
  M.add s.c_incl_vars new_vars

let incr_refinements s = M.incr s.c_refinements
let set_abstract_latches s n = M.set s.g_frozen_latches (float_of_int n)
let set_time s t = M.set s.g_time t
let merge_into ~into s = M.merge ~into:into.metrics s.metrics

(* One progress heartbeat, charged with the run's cumulative search
   effort.  Reporter-off is the common case: a single flag test.  The
   same call sites feed the structured event log, so every engine's
   phase transitions (bound advance, frame push, refinement) land in
   the stream without per-engine wiring. *)
let beat ?step ?detail s phase =
  if Isr_obs.Progress.enabled () then
    Isr_obs.Progress.tick ?step ?detail ~conflicts:(M.value s.c_conflicts)
      ~propagations:(M.value s.c_propagations)
      ~learnt:(M.hist_count s.h_learnt_len) phase;
  if Isr_obs.Event.enabled () then
    Isr_obs.Event.emit
      (Isr_obs.Event.Phase
         {
           phase;
           step = Option.value ~default:(-1) step;
           detail = Option.value ~default:"" detail;
         })

let is_proved = function Proved _ -> true | Falsified _ | Unknown _ -> false
let is_falsified = function Falsified _ -> true | Proved _ | Unknown _ -> false

let kfp = function
  | Proved { kfp; _ } -> Some kfp
  | Falsified { depth; _ } -> Some depth
  | Unknown _ -> None

let jfp = function
  | Proved { jfp; _ } -> Some jfp
  | Falsified _ -> Some 0
  | Unknown _ -> None

let pp fmt = function
  | Proved { kfp; jfp; invariant } ->
    Format.fprintf fmt "PASS (kfp=%d, jfp=%d%s)" kfp jfp
      (match invariant with Some _ -> ", certified invariant" | None -> "")
  | Falsified { depth; _ } -> Format.fprintf fmt "FAIL (depth=%d)" depth
  | Unknown Time_limit -> Format.fprintf fmt "UNKNOWN (time limit)"
  | Unknown Conflict_limit -> Format.fprintf fmt "UNKNOWN (conflict limit)"
  | Unknown (Bound_limit k) -> Format.fprintf fmt "UNKNOWN (bound limit %d)" k

let pp_stats fmt s =
  Format.fprintf fmt "%.3fs, %d SAT calls, %d conflicts, bound %d, %d itp nodes" (time s)
    (sat_calls s) (conflicts s) (last_bound s) (itp_nodes s);
  Format.fprintf fmt ", %d decisions, %d propagations, %d restarts" (decisions s)
    (propagations s) (restarts s);
  if max_learnt_len s > 0 then
    Format.fprintf fmt ", learnt len mean/med/max %.1f/%.1f/%d"
      (M.hist_mean s.h_learnt_len)
      (M.hist_quantile s.h_learnt_len 0.5)
      (max_learnt_len s);
  if db_reduces s > 0 then
    Format.fprintf fmt ", %d db reductions (%d learnt kept)" (db_reduces s)
      (int_of_float (M.gauge_value s.g_db_kept));
  if proof_steps s > 0 then
    Format.fprintf fmt ", %d proof steps (~%d bytes)" (proof_steps s)
      (int_of_float (M.gauge_value s.g_proof_bytes));
  if incl_checks s > 0 then
    Format.fprintf fmt ", %d inclusion checks (%d from remembered states)" (incl_checks s)
      (incl_cached s);
  if refinements s > 0 then
    Format.fprintf fmt ", %d refinements (%d latches still frozen)" (refinements s)
      (abstract_latches s);
  if shared_exported s > 0 || shared_imported s > 0 then
    Format.fprintf fmt ", shared %d exported / %d imported / %d dropped"
      (shared_exported s) (shared_imported s) (shared_dropped s)
