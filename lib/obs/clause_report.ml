(* Clause-lifecycle report; see the .mli.  The metrics side carries the
   authoritative totals (log-bucketed); the event side carries the exact
   16-bucket victim histograms and the reduction timeline.  The
   invariants below are the sum-pinning contract of the analytics: if
   one fails, the instrumentation itself has a bug. *)

type hist = {
  count : int;
  mean : float;
  max_v : float;
  buckets : (float * int) list;
}

type t = {
  born : int;
  deleted : int;
  kept : int;
  reduces : int;
  birth_lbd : hist option;
  uses_at_death : hist option;
  lbd_drift : hist option;
  core_birth_lbd : hist option;
  ev_dead_lbd : int array;
  ev_dead_uses : int array;
  ev_timeline : (float * int * int) list;
  violations : string list;
}

let nbuckets = 16

let of_run ~metrics ~events =
  let reading name = Option.bind metrics (List.assoc_opt name) in
  let geti name =
    match reading name with Some (Metrics.Number f) -> int_of_float f | _ -> 0
  in
  let hist name =
    match reading name with
    | Some (Metrics.Histogram { count; sum; max; buckets }) ->
      Some
        { count; mean = (if count > 0 then sum /. float_of_int count else 0.0); max_v = max; buckets }
    | _ -> None
  in
  let born = geti "clause.born" in
  let deleted = geti "clause.deleted" in
  let reduces = geti "sat.db.reduce" in
  let birth_lbd = hist "clause.birth_lbd" in
  let uses_at_death = hist "clause.uses_at_death" in
  let lbd_drift = hist "clause.lbd_drift" in
  let core_birth_lbd = hist "clause.core_birth_lbd" in
  let ev_dead_lbd = Array.make nbuckets 0 in
  let ev_dead_uses = Array.make nbuckets 0 in
  let timeline = ref [] in
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Reduce { kept; dropped; lbd = _; dead_lbd; dead_uses } ->
        timeline := (e.Event.ts, kept, dropped) :: !timeline;
        let add dst src = Array.iteri (fun i n -> if i < nbuckets then dst.(i) <- dst.(i) + n) src in
        add ev_dead_lbd dead_lbd;
        add ev_dead_uses dead_uses;
        let sum = Array.fold_left ( + ) 0 in
        (* Per-event pinning: every victim appears in both histograms. *)
        if Array.length dead_lbd > 0 && sum dead_lbd <> dropped then
          bad "reduce event at %.3fs: dead_lbd sums to %d, dropped %d" e.Event.ts
            (sum dead_lbd) dropped;
        if Array.length dead_uses > 0 && sum dead_uses <> dropped then
          bad "reduce event at %.3fs: dead_uses sums to %d, dropped %d" e.Event.ts
            (sum dead_uses) dropped
      | _ -> ())
    events;
  (* Registry-side pinning.  kept + deleted = born by construction; the
     death histograms observe exactly one sample per victim; the proof
     core is a subset of everything ever born. *)
  if deleted > born then bad "deleted (%d) exceeds born (%d)" deleted born;
  (match uses_at_death with
  | Some h when h.count <> deleted ->
    bad "uses_at_death count %d, deleted %d" h.count deleted
  | _ -> ());
  (match lbd_drift with
  | Some h when h.count <> deleted -> bad "lbd_drift count %d, deleted %d" h.count deleted
  | _ -> ());
  (match core_birth_lbd with
  | Some h when h.count > born -> bad "proof-core count %d exceeds born %d" h.count born
  | _ -> ());
  {
    born;
    deleted;
    kept = born - deleted;
    reduces;
    birth_lbd;
    uses_at_death;
    lbd_drift;
    core_birth_lbd;
    ev_dead_lbd;
    ev_dead_uses;
    ev_timeline = List.rev !timeline;
    violations = List.rev !violations;
  }

(* --- rendering ------------------------------------------------------------ *)

let pp_hist fmt label h =
  Format.fprintf fmt "  %-22s count=%d mean=%.2f max=%g@." label h.count h.mean h.max_v;
  let widest = List.fold_left (fun m (_, n) -> max m n) 1 h.buckets in
  List.iter
    (fun (le, n) ->
      if n > 0 then
        Format.fprintf fmt "    le %-6g %6d  %s@." le n
          (String.make (max 1 (40 * n / widest)) '#'))
    h.buckets

let pp_exact fmt label a =
  let total = Array.fold_left ( + ) 0 a in
  if total > 0 then begin
    Format.fprintf fmt "  %-22s (exact, from reduce events; total %d)@." label total;
    Array.iteri
      (fun v n ->
        if n > 0 then
          Format.fprintf fmt "    %s%-4d %6d  %s@."
            (if v = Array.length a - 1 then ">=" else "")
            v n
            (String.make (min 40 (1 + (40 * n / total))) '#'))
      a
  end

let pp fmt r =
  Format.fprintf fmt "clause lifecycle:@.";
  Format.fprintf fmt "  born %d, deleted %d, kept %d (%d reductions)@." r.born r.deleted
    r.kept r.reduces;
  (match r.birth_lbd with Some h -> pp_hist fmt "birth LBD" h | None -> ());
  (match r.uses_at_death with Some h -> pp_hist fmt "uses at death" h | None -> ());
  (match r.lbd_drift with Some h -> pp_hist fmt "LBD drift at death" h | None -> ());
  (match (r.core_birth_lbd, r.birth_lbd) with
  | Some core, Some birth ->
    pp_hist fmt "proof core by birth LBD" core;
    if r.born > 0 && core.count > 0 then begin
      (* Join by [le] bound — the two histograms may have been snapshot
         with different bucket counts (the core one stops growing at the
         largest core LBD seen). *)
      Format.fprintf fmt "  core fraction by birth-LBD bucket:@.";
      List.iter
        (fun (le, db) ->
          if db > 0 then
            let dc = Option.value ~default:0 (List.assoc_opt le core.buckets) in
            Format.fprintf fmt "    le %-6g %d/%d (%.1f%%)@." le dc db
              (100.0 *. float_of_int dc /. float_of_int db))
        birth.buckets
    end
  | Some core, None -> pp_hist fmt "proof core by birth LBD" core
  | None, _ -> ());
  pp_exact fmt "victims by LBD at death" r.ev_dead_lbd;
  pp_exact fmt "victims by uses" r.ev_dead_uses;
  (match r.ev_timeline with
  | [] -> ()
  | tl ->
    Format.fprintf fmt "  reductions (ts, kept, dropped):@.";
    List.iter (fun (ts, k, d) -> Format.fprintf fmt "    %8.3fs  kept %-7d dropped %d@." ts k d) tl);
  match r.violations with
  | [] -> Format.fprintf fmt "  invariants: ok@."
  | vs ->
    Format.fprintf fmt "  INVARIANT VIOLATIONS:@.";
    List.iter (fun v -> Format.fprintf fmt "    %s@." v) vs
