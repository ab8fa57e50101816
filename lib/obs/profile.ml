(* Call-tree profiles folded from span event streams.  The builder keeps
   one mutable node per (parent, name) pair, so memory is proportional to
   the shape of the call tree, not to the number of events — a live
   collector over a million-span bench run stays small. *)

type node = {
  name : string;
  calls : int;
  total : float;
  self : float;
  children : node list;
}

(* --- mutable builder ------------------------------------------------------- *)

type bnode = {
  bname : string;
  mutable bcalls : int;
  mutable btotal : float;
  mutable border : string list; (* child names, reverse arrival order *)
  btbl : (string, bnode) Hashtbl.t;
}

let mk_bnode name = { bname = name; bcalls = 0; btotal = 0.0; border = []; btbl = Hashtbl.create 4 }

type builder = {
  root : bnode;
  (* One stack of open spans per emitting domain (innermost first):
     parallel runs interleave events from several domains in a single
     stream, and folding them through one stack would pair begins with
     the wrong ends.  Each domain's sub-tree hangs off the shared root. *)
  stacks : (int, (bnode * float) list) Hashtbl.t;
  mutable first_ts : float;
  mutable last_ts : float;
  mutable seen : bool;
}

let create () =
  {
    root = mk_bnode "(root)";
    stacks = Hashtbl.create 4;
    first_ts = 0.0;
    last_ts = 0.0;
    seen = false;
  }

let stack_of b tid = Option.value ~default:[] (Hashtbl.find_opt b.stacks tid)

let child_of parent name =
  match Hashtbl.find_opt parent.btbl name with
  | Some n -> n
  | None ->
    let n = mk_bnode name in
    Hashtbl.add parent.btbl name n;
    parent.border <- name :: parent.border;
    n

let note_ts b ts =
  if not b.seen then begin
    b.seen <- true;
    b.first_ts <- ts
  end;
  if ts > b.last_ts then b.last_ts <- ts

let feed b (e : Trace.event) =
  match e with
  | Trace.Begin { name; ts; tid; _ } ->
    note_ts b ts;
    let stack = stack_of b tid in
    let parent = match stack with (n, _) :: _ -> n | [] -> b.root in
    let n = child_of parent name in
    n.bcalls <- n.bcalls + 1;
    Hashtbl.replace b.stacks tid ((n, ts) :: stack)
  | Trace.End { ts; tid; _ } -> (
    note_ts b ts;
    match stack_of b tid with
    | (n, t0) :: rest ->
      n.btotal <- n.btotal +. Float.max 0.0 (ts -. t0);
      Hashtbl.replace b.stacks tid rest
    | [] -> (* stray end: tolerate unbalanced streams *) ())

(* Snapshot: still-open spans are charged provisionally up to the last
   seen timestamp.  The builder is left untouched, so feeding the real
   End events later and snapshotting again gives the exact totals. *)
let snapshot b =
  let rec freeze bn extra =
    let children =
      List.rev_map
        (fun name ->
          let c = Hashtbl.find bn.btbl name in
          (* Distribute pending time to open children of this node: only
             spans on the open stacks matter, and each stack entry's
             name is unique per parent in [btbl]. *)
          let c_extra =
            Hashtbl.fold
              (fun _ stack acc ->
                List.fold_left
                  (fun acc (sn, t0) ->
                    if sn == c then acc +. Float.max 0.0 (b.last_ts -. t0) else acc)
                  acc stack)
              b.stacks 0.0
          in
          freeze c c_extra)
        bn.border
    in
    let children = List.sort (fun a b -> compare b.total a.total) children in
    let child_total = List.fold_left (fun acc c -> acc +. c.total) 0.0 children in
    (* Concurrent domains can charge the root's children more than the
       window between the first and last event; the root then takes
       their sum, so [total = self + children] holds everywhere. *)
    let total =
      if bn == b.root then
        Float.max child_total (if b.seen then b.last_ts -. b.first_ts else 0.0)
      else bn.btotal +. extra
    in
    {
      name = bn.bname;
      calls = (if bn == b.root then 1 else bn.bcalls);
      total;
      self = Float.max 0.0 (total -. child_total);
      children;
    }
  in
  freeze b.root 0.0

let of_events events =
  let b = create () in
  List.iter (feed b) events;
  snapshot b

let collector () =
  let b = create () in
  let lock = Mutex.create () in
  ( { Event.on_span = Some (fun e -> Mutex.protect lock (fun () -> feed b e)); on_record = None },
    fun () -> Mutex.protect lock (fun () -> snapshot b) )

let root_total n = n.total

(* --- flat aggregation ------------------------------------------------------ *)

(* Aggregate by span name over the whole tree.  [self] and [calls] sum
   safely; [total] of a name only counts spans not nested inside another
   span of the same name, so recursion is not double-charged. *)
let hot root =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  let bucket name =
    match Hashtbl.find_opt tbl name with
    | Some b -> b
    | None ->
      let b = ref (0, 0.0, 0.0) in
      Hashtbl.add tbl name b;
      order := name :: !order;
      b
  in
  let rec walk ancestors n =
    List.iter
      (fun (c : node) ->
        let b = bucket c.name in
        let calls, total, self = !b in
        let total' = if List.mem c.name ancestors then total else total +. c.total in
        b := (calls + c.calls, total', self +. c.self);
        walk (c.name :: ancestors) c)
      n.children
  in
  walk [] root;
  let rows =
    List.rev_map
      (fun name ->
        let calls, total, self = !(Hashtbl.find tbl name) in
        (name, calls, total, self))
      !order
  in
  List.sort (fun (_, _, _, s1) (_, _, _, s2) -> compare s2 s1) rows

(* --- rendering ------------------------------------------------------------- *)

let pct part whole = if whole > 0.0 then 100.0 *. part /. whole else 0.0

let pp ?(top = 12) ?(max_depth = 6) ?(min_frac = 0.002) fmt root =
  let whole = Float.max root.total 1e-12 in
  Format.fprintf fmt "profile: wall %.3fs@." root.total;
  let rec tree depth n =
    if depth <= max_depth && (n.total >= min_frac *. whole || depth <= 1) then begin
      Format.fprintf fmt "%s%-*s %9.3fs %5.1f%%  self %8.3fs  x%d@."
        (String.make (2 * depth) ' ')
        (Stdlib.max 1 (36 - (2 * depth)))
        n.name n.total (pct n.total whole) n.self n.calls;
      List.iter (tree (depth + 1)) n.children
    end
  in
  List.iter (tree 0) root.children;
  let rows = hot root in
  if rows <> [] then begin
    Format.fprintf fmt "hot spans (by self time):@.";
    List.iteri
      (fun i (name, calls, total, self) ->
        if i < top then
          Format.fprintf fmt "  %-30s self %8.3fs %5.1f%%  total %8.3fs  x%d@." name self
            (pct self whole) total calls)
      rows
  end

let escape = Json.escape

let to_json root =
  let b = Buffer.create 1024 in
  let rec emit (n : node) =
    Buffer.add_string b
      (Printf.sprintf "{\"name\":\"%s\",\"calls\":%d,\"total_s\":%.6f,\"self_s\":%.6f,\"children\":["
         (escape n.name) n.calls n.total n.self);
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_char b ',';
        emit c)
      n.children;
    Buffer.add_string b "]}"
  in
  emit root;
  Buffer.contents b

(* Read a [to_json] dump back as its call paths ("(root)/engine/...")
   with their self times, in reverse pre-order. *)
let read_self_times path =
  let rec flatten prefix j acc =
    match j with
    | Json.Obj _ ->
      let name = Option.value ~default:"?" (Json.opt_str_field "name" j) in
      let path = if prefix = "" then name else prefix ^ "/" ^ name in
      let self = match Json.field "self_s" j with Some (Json.Num f) -> f | _ -> 0.0 in
      let acc = (path, self) :: acc in
      (match Json.field "children" j with
      | Some (Json.Arr cs) -> List.fold_left (fun acc c -> flatten path c acc) acc cs
      | _ -> acc)
    | _ -> acc
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
    match Json.parse (String.trim text) with
    | exception Json.Parse_error _ -> None
    | j -> Some (flatten "" j []))
