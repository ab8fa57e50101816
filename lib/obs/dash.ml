(* The one fold of a merged event stream; see the .mli.  Lifecycle
   records ([Spawn], [Dispatch], [Cancel], [Verdict]) name their worker
   explicitly, and a [Spawn] binds its emitting domain to that worker so
   the dom-only solver events land in the right lane. *)

type lane = {
  worker : int;
  mutable engines : string;
  mutable spawned : float option;
  mutable dom : int option;
  mutable dispatches : int;
  mutable bound : int;
  mutable conflicts : int;
  mutable learnt : int;
  mutable restarts : int;
  mutable reduces : int;
  mutable kept : int;
  mutable rate : float;
  mutable phase : string;
  mutable cuts : int;
  mutable verdict : string option;
  mutable cancelled : (Event.cause * int * float) option;
  mutable last_ts : float;
}

type member = { id : int; engine : string; n : int; pos : int; status : string }

type view = {
  t0 : float;
  t_end : float;
  lanes : lane list;
  total : int;
  spawns : int list;
  verdicts : (int * string * float) list;
  members : member list;
  schedule : int list;
}

let view events =
  let lanes : (int, lane) Hashtbl.t = Hashtbl.create 8 in
  let dom_of : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let lane w =
    match Hashtbl.find_opt lanes w with
    | Some l -> l
    | None ->
      let l =
        {
          worker = w;
          engines = "-";
          spawned = None;
          dom = None;
          dispatches = 0;
          bound = -1;
          conflicts = 0;
          learnt = 0;
          restarts = 0;
          reduces = 0;
          kept = -1;
          rate = 0.0;
          phase = "";
          cuts = 0;
          verdict = None;
          cancelled = None;
          last_ts = 0.0;
        }
      in
      Hashtbl.add lanes w l;
      l
  in
  (* Dom-only events go to the worker their domain was bound to by a
     [Spawn]; unbound domains (sequential streams, or events before the
     binding) get per-domain lanes keyed negatively so the two index
     spaces cannot collide. *)
  let lane_of_dom dom =
    match Hashtbl.find_opt dom_of dom with Some w -> lane w | None -> lane (-1 - dom)
  in
  (* Each lane's previous restart (ts, conflicts), for the rate. *)
  let prev_restart : (int, float * int) Hashtbl.t = Hashtbl.create 8 in
  (* Member lanes: the last [Step] of each, with its domain; and the
     domains whose scheduler decided (one of its lanes proved or
     falsified). *)
  let steps : (int, int * member) Hashtbl.t = Hashtbl.create 8 in
  let decided : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let t0 = ref infinity and t_end = ref 0.0 and total = ref 0 in
  let spawns = ref [] and verdicts = ref [] and schedule = ref [] in
  List.iter
    (fun (e : Event.t) ->
      incr total;
      let ts = e.Event.ts in
      if ts < !t0 then t0 := ts;
      if ts > !t_end then t_end := ts;
      let l =
        match e.Event.kind with
        | Event.Spawn { worker; engines } ->
          Hashtbl.replace dom_of e.Event.dom worker;
          spawns := worker :: !spawns;
          let l = lane worker in
          l.engines <- engines;
          l.spawned <- Some ts;
          l.dom <- Some e.Event.dom;
          Some l
        | Event.Dispatch { worker; bound } ->
          let l = lane worker in
          l.dispatches <- l.dispatches + 1;
          l.bound <- bound;
          Some l
        | Event.Cancel { worker; cause; by } ->
          let l = lane worker in
          if l.cancelled = None then l.cancelled <- Some (cause, by, ts);
          Some l
        | Event.Verdict { worker; verdict } ->
          let l = lane worker in
          l.verdict <- Some verdict;
          verdicts := (worker, verdict, ts) :: !verdicts;
          Some l
        | Event.Restart { conflicts; learnt; _ } ->
          let l = lane_of_dom e.Event.dom in
          l.restarts <- l.restarts + 1;
          l.conflicts <- conflicts;
          l.learnt <- learnt;
          (match Hashtbl.find_opt prev_restart l.worker with
          | Some (pts, pc) when ts > pts -> l.rate <- float_of_int (conflicts - pc) /. (ts -. pts)
          | _ -> ());
          Hashtbl.replace prev_restart l.worker (ts, conflicts);
          Some l
        | Event.Reduce { kept; _ } ->
          let l = lane_of_dom e.Event.dom in
          l.reduces <- l.reduces + 1;
          l.kept <- kept;
          Some l
        | Event.Phase { phase; step; _ } ->
          let l = lane_of_dom e.Event.dom in
          l.phase <- phase;
          if step >= 0 then l.bound <- step;
          Some l
        | Event.Itp_cut _ ->
          let l = lane_of_dom e.Event.dom in
          l.cuts <- l.cuts + 1;
          Some l
        | Event.Step { lane = id; engine; n; pos; status } ->
          schedule := id :: !schedule;
          Hashtbl.replace steps id (e.Event.dom, { id; engine; n; pos; status });
          if status = "proved" || status = "falsified" then Hashtbl.replace decided e.Event.dom ();
          (* [id] is the member's, not a worker index. *)
          let l = lane_of_dom e.Event.dom in
          l.bound <- pos;
          Some l
        | Event.Analyze _ -> None
      in
      Option.iter (fun l -> if ts > l.last_ts then l.last_ts <- ts) l)
    events;
  (* A member left "running" stopped with its scheduler when another
     lane of its domain decided, or when a [Cancel] edge reached the
     worker its domain's [Spawn] binds it to: it is cancelled, not
     mid-flight. *)
  let stopped dom =
    Hashtbl.mem decided dom
    || Hashtbl.fold (fun _ l acc -> acc || (l.dom = Some dom && l.cancelled <> None)) lanes false
  in
  let members =
    Hashtbl.fold
      (fun _ (dom, m) acc ->
        (if m.status = "running" && stopped dom then { m with status = "cancelled" } else m) :: acc)
      steps []
    |> List.sort (fun m1 m2 -> compare m1.id m2.id)
  in
  (* Worker lanes first in index order, then the per-domain lanes in
     domain order (their keys are [-1 - dom]). *)
  let key l = if l.worker >= 0 then (0, l.worker) else (1, -1 - l.worker) in
  {
    t0 = (if !t0 = infinity then 0.0 else !t0);
    t_end = !t_end;
    lanes =
      List.sort (fun l1 l2 -> compare (key l1) (key l2)) (List.of_seq (Hashtbl.to_seq_values lanes));
    total = !total;
    spawns = List.rev !spawns;
    verdicts = List.rev !verdicts;
    members;
    schedule = List.rev !schedule;
  }

let winner v =
  match List.rev v.verdicts with (w, verdict, _) :: _ -> Some (w, verdict) | [] -> None

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
  | None, Some (cause, by, _) -> Printf.sprintf "cancelled (%s, by %s)" (cause_name cause) (lane_label by)
  | None, None ->
    (* "Running" only means "was alive at the tail of the stream". *)
    if v.t_end -. l.last_ts < 1.0 then "running"
    else Printf.sprintf "idle %.1fs" (v.t_end -. l.last_ts)

let render ?width ?gc v =
  let b = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        let s =
          match width with
          | Some w when String.length s > w -> String.sub s 0 (max 0 w)
          | _ -> s
        in
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
  (match winner v with
  | Some (w, verdict) ->
    line "race: %s published %s at +%.2fs" (lane_label w) verdict (v.t_end -. v.t0)
  | None -> if List.length v.lanes > 1 then line "race: no verdict published yet");
  (match gc with Some g -> line "%s" g | None -> ());
  Buffer.contents b
