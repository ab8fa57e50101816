(* The benchmark's workloads: which (instance, engine) cells each one
   runs, and in which order.

   Every cell is named here, so the program under test only ever
   receives models.  The seed permutes the cells of a workload; the
   cells themselves, and so every count the run reports, stay the same
   for every seed. *)

open Isr_core
open Isr_suite

type runner =
  | Paper of Engine.t
      (** one engine run; a falsification must name exactly the
          shortest depth *)
  | Push_button
      (** [Isr_analyze.run ~mode:Full], then [Portfolio.verify] on the
          reduced model with lifted traces; a falsification only needs a
          replaying trace at least as deep as the shortest one *)

type cell = { entry : Registry.entry; runner : runner }

type t = {
  name : string;
  limit : float;  (** per-cell wall-clock limit, seconds *)
  all_cells : cell list;  (** in seed-independent order *)
}

let cell_name c =
  match c.runner with
  | Paper e -> c.entry.name ^ "/" ^ Engine.name e
  | Push_button -> c.entry.name ^ "/analyze+portfolio"

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> invalid_arg ("Workload: no registry entry " ^ name)

let paper name engine =
  match Engine.of_name engine with
  | Ok e -> { entry = entry name; runner = Paper e }
  | Error msg -> invalid_arg msg

(* Mid Table I cells left out of [table1]: the undecided ones, the
   [frontier] targets, and every cell that needs more than half a second
   on a 2-core x86-64 container, so that three passes fit in a 20 s run. *)
let table1_excluded =
  let all = [ "itp"; "itpseq-assume"; "sitpseq0.5-assume"; "itpseqcba0.5-exact" ] in
  [
    ("eijkring12", [ "itpseq-assume"; "sitpseq0.5-assume"; "itpseqcba0.5-exact" ]);
    ("lfsr8d40", all);
    ("tcas12", all);
    ("tcas25", all);
    ("rether16", [ "itpseqcba0.5-exact" ]);
    ("rether33", all);
    ("counter6t40", [ "itp"; "sitpseq0.5-assume"; "itpseqcba0.5-exact" ]);
    ("gcount5t20", [ "itpseq-assume"; "sitpseq0.5-assume"; "itpseqcba0.5-exact" ]);
    ("fifo3", all);
    ("fifo2bug", [ "itp"; "itpseqcba0.5-exact" ]);
    ("peterson", [ "sitpseq0.5-assume" ]);
  ]

let table1 =
  List.concat_map
    (fun (e : Registry.entry) ->
      let excluded = Option.value ~default:[] (List.assoc_opt e.name table1_excluded) in
      List.filter_map
        (fun eng ->
          if List.mem (Engine.name eng) excluded then None
          else Some { entry = e; runner = Paper eng })
        Isr_exp.Table1.engines)
    (List.filter (fun (e : Registry.entry) -> e.category = Registry.Mid) Registry.table1)

(* The roadmap's live targets that decide within one run: eijkring12
   under ITPSEQCBA (about 17 s) does not fit next to these two. *)
let frontier = [ paper "rether33" "itpseq-assume"; paper "fifo3" "sitpseq0.5-assume" ]

(* Industrial Table I cells under the Section V engines that decide
   within about one second.  industrialA2 is undecided under all three;
   the others left out are undecided (B1, F1 and F2 under SITPSEQ, F1
   under PBA) or take 1.2-7.5 s each. *)
let industrial =
  let sitpseq = "sitpseq0.5-exact" and cba = "itpseqcba0.5-exact" and pba = "itpseqpba0-exact" in
  List.concat_map
    (fun (name, engines) -> List.map (paper name) engines)
    [
      ("industrialA1", [ sitpseq; cba; pba ]);
      ("industrialA3", [ cba; pba ]);
      ("industrialA4", [ sitpseq; cba; pba ]);
      ("industrialB1", [ cba ]);
      ("industrialB2", [ cba ]);
      ("industrialB3", [ sitpseq; cba; pba ]);
      ("industrialC1", [ sitpseq; cba; pba ]);
      ("industrialC2", [ sitpseq; cba; pba ]);
      ("industrialD1", [ cba ]);
      ("industrialE1", [ cba; pba ]);
      ("industrialF1", [ cba ]);
      ("industrialF2", [ cba ]);
      ("industrialF3", [ cba ]);
    ]

(* Figure 6 instances the push-button path leaves undecided for seconds
   (fifo3, fifo4safe, fifo3bug) or decides only after more than one
   second (the deep counters and TCAS rows, fifo2safe). *)
let portfolio_excluded =
  [
    "fifo3"; "fifo4safe"; "fifo3bug"; "counter7t70"; "counter7t90"; "fifo2safe"; "tcas18";
    "tcas21"; "tcas25"; "tcas30";
  ]

let portfolio =
  List.filter_map
    (fun (e : Registry.entry) ->
      if List.mem e.name portfolio_excluded then None else Some { entry = e; runner = Push_button })
    Registry.fig6

let all =
  [
    { name = "table1"; limit = 30.0; all_cells = table1 };
    { name = "frontier"; limit = 60.0; all_cells = frontier };
    { name = "industrial"; limit = 60.0; all_cells = industrial };
    { name = "portfolio"; limit = 20.0; all_cells = portfolio };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Fisher-Yates driven by a splitmix-style generator of our own, so a
   seed names the same order whatever the stdlib's [Random] does. *)
let shuffle ~seed l =
  let a = Array.of_list l in
  let s = ref (seed * 0x1e3779b97f4a7c15) in
  let next bound =
    s := !s + 0x1e3779b97f4a7c15;
    let z = !s in
    let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
    let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
    ((z lxor (z lsr 31)) land max_int) mod bound
  in
  for i = Array.length a - 1 downto 1 do
    let j = next (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The cells of a run, in run order. *)
let cells w ~seed = shuffle ~seed w.all_cells
