(* The per-layer split of a traced run: self times of the spans the
   library already emits, grouped into layers by span name.

   This table is the only place that knows span names.  A span renamed
   or added under lib/ lands in [other.self_s] until the table learns
   it; it never breaks the build.  [other.self_s] also holds the self
   time of [Engine.run]'s root span ["engine"] and of the harness's own
   ["bench.cell"]: at most 2% of any workload as measured. *)

let table =
  [
    ("sat.solve", "sat.self_s");
    ("sat.call", "sat.self_s");
    ("incl.check", "incl.self_s");
    ("bmc.bound", "bmc.self_s");
    ("itpseq.family", "seq_family.self_s");
    ("itpseq.serial_step", "seq_family.self_s");
    ("itpseq.outer", "itpseq.self_s");
    ("itpseq.sweep", "itpseq.self_s");
    ("itp.outer", "itp_verif.self_s");
    ("itp.inner", "itp_verif.self_s");
    ("itp.analyze", "itp.self_s");
    ("itp.extract", "itp.self_s");
    ("kind.step", "kind.self_s");
    ("pdr.block", "pdr.self_s");
    ("pdr.propagate", "pdr.self_s");
    ("portfolio", "portfolio.self_s");
    ("bench.analyze", "analyze.self_s");
  ]

let other = "other.self_s"

(* Layers in report order, [other] last. *)
let names =
  List.fold_left (fun acc (_, l) -> if List.mem l acc then acc else acc @ [ l ]) [] table
  @ [ other ]

let layer_of span = Option.value ~default:other (List.assoc_opt span table)

(* The span the harness wraps around each measured cell; only time
   inside it is split into layers. *)
let cell_span = "bench.cell"

type split = {
  self : (string * float) list;  (** self seconds per layer *)
  calls : (string * int) list;  (** calls per span name *)
}

let empty = { self = []; calls = [] }
let seconds s layer = Option.value ~default:0.0 (List.assoc_opt layer s.self)
let calls s span = Option.value ~default:0 (List.assoc_opt span s.calls)
let scale k s = { s with self = List.map (fun (l, v) -> (l, v *. k)) s.self }

(* The split of every [bench.cell] subtree of a profile.  The self times
   of a subtree partition its total, so the layers sum to the cells'
   wall time. *)
let fold (root : Isr_obs.Profile.node) =
  let self = Hashtbl.create 16 and calls = Hashtbl.create 16 in
  let bump tbl k v zero ( + ) =
    Hashtbl.replace tbl k (Option.value ~default:zero (Hashtbl.find_opt tbl k) + v)
  in
  let rec walk (n : Isr_obs.Profile.node) =
    bump self (layer_of n.name) n.self 0.0 ( +. );
    bump calls n.name n.calls 0 ( + );
    List.iter walk n.children
  in
  List.iter
    (fun (n : Isr_obs.Profile.node) -> if n.name = cell_span then walk n)
    root.children;
  {
    self = List.map (fun l -> (l, Option.value ~default:0.0 (Hashtbl.find_opt self l))) names;
    calls = Hashtbl.fold (fun k v acc -> (k, v) :: acc) calls [];
  }
