open Isr_sat
open Isr_aig

type system = McMillan | Pudlak | McMillan_dual

let system_name = function
  | McMillan -> "mcmillan"
  | Pudlak -> "pudlak"
  | McMillan_dual -> "mcmillan-dual"

type info = {
  minp : int array;  (* variable -> smallest partition tag it occurs in *)
  maxp : int array;  (* variable -> largest partition tag it occurs in *)
  ntags : int;
  used : int array;  (* ascending ids reachable from the empty clause *)
  pos : int array;   (* used id -> its position in [used] *)
}

(* Labels need every input clause, used or not: a variable's partition
   range is fixed by all of its occurrences. *)
let analyze (p : Proof.t) =
  Isr_obs.Trace.span "itp.analyze" @@ fun () ->
  let lo, ntags = Proof.tag_range p in
  if lo < 1 then invalid_arg "Itp.analyze: input clause with tag < 1";
  let minp, maxp = Proof.var_tag_ranges p in
  let used = Proof.used p in
  (* The empty clause is the largest used id. *)
  let pos = Array.make (Proof.empty p + 1) 0 in
  Array.iteri (fun i id -> pos.(id) <- i) used;
  { minp; maxp; ntags; used; pos }

(* Literal/variable label at a cut.  Unused variables (never in an input
   clause) can only appear as pivots of irrelevant resolutions; treating
   them as A-local is sound. *)
type label = La | Lb | Lab

let var_label info ~cut ~system v =
  if info.maxp.(v) <= cut then La
  else if info.minp.(v) > cut then Lb
  else
    match system with McMillan -> Lb | Pudlak -> Lab | McMillan_dual -> La

let interpolant ?info ?(system = McMillan) (p : Proof.t) ~cut ~man ~var_map =
  Isr_obs.Trace.span "itp.extract" ~args:[ ("cut", string_of_int cut) ] @@ fun () ->
  let info = match info with Some i -> i | None -> analyze p in
  Isr_check_core.Level.check "itp.cut_in_range"
    (cut >= 1 && cut < info.ntags)
    ~detail:(fun () -> Printf.sprintf "cut %d outside [1, %d)" cut info.ntags);
  let label v = var_label info ~cut ~system v in
  let map_var v =
    match var_map v with
    | Some l -> l
    | None ->
      invalid_arg
        (Printf.sprintf "Itp.interpolant: cut-global variable %d not mapped" v)
  in
  let map_lit l =
    let al = map_var (Lit.var l) in
    if Lit.is_neg l then Aig.not_ al else al
  in
  (* Attributes are indexed by position in the used cone, which is
     visited in id order, so antecedents are always done first. *)
  let used = info.used in
  let attrs = Array.make (Array.length used) Aig.lit_false in
  let get id = attrs.(info.pos.(id)) in
  (* A-clause: disjunction of its b-labeled literals. *)
  let seed_a acc l = if label (Lit.var l) = Lb then Aig.or_ man acc (map_lit l) else acc in
  (* B-clause: conjunction of its negated a-labeled literals. *)
  let seed_b acc l =
    if label (Lit.var l) = La then Aig.and_ man acc (Aig.not_ (map_lit l)) else acc
  in
  let resolve acc pivot aid =
    let other = get aid in
    match label pivot with
    | La -> Aig.or_ man acc other
    | Lb -> Aig.and_ man acc other
    | Lab ->
      (* Pudlák: disjoin each premise's own pivot phase.  The
         antecedent's phase is read off its literals; the running
         resolvent holds the complement. *)
      let phase =
        Proof.fold_lits p aid
          (fun found l -> if found < 0 && Lit.var l = pivot then l else found)
          (-1)
      in
      if phase < 0 then invalid_arg "Itp.interpolant: pivot absent from antecedent";
      let l_ant = map_lit phase in
      Aig.and_ man (Aig.or_ man acc (Aig.not_ l_ant)) (Aig.or_ man other l_ant)
  in
  Array.iteri
    (fun i id ->
      let tag = Proof.tag p id in
      attrs.(i) <-
        (if tag < 0 then Proof.fold_chain p id resolve (get (Proof.first p id))
         else if tag <= cut then Proof.fold_lits p id seed_a Aig.lit_false
         else Proof.fold_lits p id seed_b Aig.lit_true))
    used;
  attrs.(info.pos.(Proof.empty p))

let sequence ?info ?system (p : Proof.t) ~man ~var_map =
  let info = match info with Some i -> i | None -> analyze p in
  let n = info.ntags in
  if n < 2 then invalid_arg "Itp.sequence: needs at least two partitions";
  Array.init (n - 1) (fun j -> interpolant ~info ?system p ~cut:(j + 1) ~man ~var_map)
