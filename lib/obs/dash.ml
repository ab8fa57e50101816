(* Dashboard model for [isr_obs top]; see the .mli.  The fold reuses the
   attribution rules of explain-race: lifecycle events ([Spawn],
   [Dispatch], [Cancel], [Verdict]) name their worker explicitly, and a
   [Spawn] binds its emitting domain to that worker so the dom-only
   solver events land in the right lane. *)

type lane = {
  worker : int;
  engines : string;
  bound : int;
  conflicts : int;
  learnt : int;
  restarts : int;
  reduces : int;
  kept : int;
  rate : float;
  phase : string;
  cuts : int;
  verdict : string option;
  cancelled : (Event.cause * int) option;
  last_ts : float;
}

type view = {
  t0 : float;
  t_end : float;
  lanes : lane list;
  total : int;
  winner : (int * string) option;
}

(* Mutable fold accumulator; flattened into the pure [lane] at the end. *)
type acc = {
  mutable a_engines : string;
  mutable a_bound : int;
  mutable a_conflicts : int;
  mutable a_learnt : int;
  mutable a_restarts : int;
  mutable a_reduces : int;
  mutable a_kept : int;
  mutable a_rate : float;
  mutable a_prev_restart : (float * int) option;
  mutable a_phase : string;
  mutable a_cuts : int;
  mutable a_verdict : string option;
  mutable a_cancelled : (Event.cause * int) option;
  mutable a_last_ts : float;
}

let view events =
  let lanes : (int, acc) Hashtbl.t = Hashtbl.create 8 in
  let dom_of : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let lane w =
    match Hashtbl.find_opt lanes w with
    | Some a -> a
    | None ->
      let a =
        {
          a_engines = "-";
          a_bound = -1;
          a_conflicts = 0;
          a_learnt = 0;
          a_restarts = 0;
          a_reduces = 0;
          a_kept = -1;
          a_rate = 0.0;
          a_prev_restart = None;
          a_phase = "";
          a_cuts = 0;
          a_verdict = None;
          a_cancelled = None;
          a_last_ts = 0.0;
        }
      in
      Hashtbl.add lanes w a;
      a
  in
  (* Dom-only events go to the worker their domain was bound to by a
     [Spawn]; unbound domains (sequential streams, or events before the
     binding) get per-domain lanes keyed negatively so the two index
     spaces cannot collide. *)
  let lane_of_dom dom =
    match Hashtbl.find_opt dom_of dom with Some w -> lane w | None -> lane (-1 - dom)
  in
  let t0 = ref infinity and t_end = ref 0.0 and total = ref 0 in
  let winner = ref None in
  List.iter
    (fun (e : Event.t) ->
      incr total;
      if e.Event.ts < !t0 then t0 := e.Event.ts;
      if e.Event.ts > !t_end then t_end := e.Event.ts;
      let touch a = if e.Event.ts > a.a_last_ts then a.a_last_ts <- e.Event.ts in
      match e.Event.kind with
      | Event.Spawn { worker; engines } ->
        Hashtbl.replace dom_of e.Event.dom worker;
        let a = lane worker in
        a.a_engines <- engines;
        touch a
      | Event.Dispatch { worker; bound } ->
        let a = lane worker in
        a.a_bound <- bound;
        touch a
      | Event.Cancel { worker; cause; by } ->
        let a = lane worker in
        if a.a_cancelled = None then a.a_cancelled <- Some (cause, by);
        touch a
      | Event.Verdict { worker; verdict } ->
        let a = lane worker in
        a.a_verdict <- Some verdict;
        winner := Some (worker, verdict);
        touch a
      | Event.Restart { conflicts; learnt; _ } ->
        let a = lane_of_dom e.Event.dom in
        a.a_restarts <- a.a_restarts + 1;
        a.a_conflicts <- conflicts;
        a.a_learnt <- learnt;
        (match a.a_prev_restart with
        | Some (pts, pc) when e.Event.ts > pts ->
          a.a_rate <- float_of_int (conflicts - pc) /. (e.Event.ts -. pts)
        | _ -> ());
        a.a_prev_restart <- Some (e.Event.ts, conflicts);
        touch a
      | Event.Reduce { kept; _ } ->
        let a = lane_of_dom e.Event.dom in
        a.a_reduces <- a.a_reduces + 1;
        a.a_kept <- kept;
        touch a
      | Event.Phase { phase; step; _ } ->
        let a = lane_of_dom e.Event.dom in
        a.a_phase <- phase;
        if step >= 0 then a.a_bound <- step;
        touch a
      | Event.Itp_cut _ ->
        let a = lane_of_dom e.Event.dom in
        a.a_cuts <- a.a_cuts + 1;
        touch a
      | Event.Step { pos; _ } ->
        (* [lane] is the member's id, not a worker index. *)
        let a = lane_of_dom e.Event.dom in
        a.a_bound <- pos;
        touch a
      | Event.Analyze _ -> ())
    events;
  let lanes =
    Hashtbl.fold
      (fun w a rest ->
        {
          worker = w;
          engines = a.a_engines;
          bound = a.a_bound;
          conflicts = a.a_conflicts;
          learnt = a.a_learnt;
          restarts = a.a_restarts;
          reduces = a.a_reduces;
          kept = a.a_kept;
          rate = a.a_rate;
          phase = a.a_phase;
          cuts = a.a_cuts;
          verdict = a.a_verdict;
          cancelled = a.a_cancelled;
          last_ts = a.a_last_ts;
        }
        :: rest)
      lanes []
    (* Worker lanes first in index order, then the per-domain lanes in
       domain order (their keys are [-1 - dom]). *)
    |> List.sort (fun l1 l2 ->
           let key l = if l.worker >= 0 then (0, l.worker) else (1, -1 - l.worker) in
           compare (key l1) (key l2))
  in
  {
    t0 = (if !t0 = infinity then 0.0 else !t0);
    t_end = !t_end;
    lanes;
    total = !total;
    winner = !winner;
  }

(* --- rendering ------------------------------------------------------------ *)

let cause_name = function
  | Event.Race_won -> "winner-verdict"
  | Event.Deadline -> "deadline"
  | Event.Min_depth -> "minimised-depth"
  | Event.Exhausted -> "slate-exhausted"

let si n =
  if n >= 1_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1e6)
  else if n >= 10_000 then Printf.sprintf "%.0fk" (float_of_int n /. 1e3)
  else string_of_int n

let lane_label w = if w >= 0 then Printf.sprintf "w%d" w else Printf.sprintf "d%d" (-1 - w)

let state v l =
  match (l.verdict, l.cancelled) with
  | Some verdict, _ -> "VERDICT " ^ verdict
  | None, Some (cause, by) -> Printf.sprintf "cancelled (%s, by %s)" (cause_name cause) (lane_label by)
  | None, None ->
    (* "Running" only means "was alive at the tail of the stream". *)
    if v.t_end -. l.last_ts < 1.0 then "running"
    else Printf.sprintf "idle %.1fs" (v.t_end -. l.last_ts)

let render ?width ?gc v =
  let width = match width with Some w -> w | None -> Progress.default_width () in
  let b = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        let s = if String.length s > width then String.sub s 0 (max 0 width) else s in
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  line "isr top  %d lanes  %d events  elapsed %.2fs" (List.length v.lanes) v.total
    (v.t_end -. v.t0);
  line "%-4s %-14s %5s %9s %9s %7s %6s %4s %-10s %s" "lane" "engines" "bound"
    "confl" "confl/s" "learnt" "red" "cut" "phase" "state";
  List.iter
    (fun l ->
      line "%-4s %-14s %5s %9s %9s %7s %6s %4s %-10s %s" (lane_label l.worker)
        l.engines
        (if l.bound >= 0 then string_of_int l.bound else "-")
        (si l.conflicts)
        (if l.rate > 0.0 then si (int_of_float l.rate) else "-")
        (si l.learnt)
        (if l.reduces > 0 then Printf.sprintf "%d/%s" l.reduces (si l.kept) else "-")
        (if l.cuts > 0 then string_of_int l.cuts else "-")
        (if l.phase = "" then "-" else l.phase)
        (state v l))
    v.lanes;
  (match v.winner with
  | Some (w, verdict) ->
    line "race: %s published %s at +%.2fs" (lane_label w) verdict (v.t_end -. v.t0)
  | None -> if List.length v.lanes > 1 then line "race: no verdict published yet");
  (match gc with Some g -> line "%s" g | None -> ());
  Buffer.contents b
