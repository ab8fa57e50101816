open Isr_sat
open Isr_aig
open Isr_model
module Tseitin = Isr_cnf.Tseitin

(* Miter-based equivalence of two literals over the same inputs.  A
   difference comes with its witness: the value of every input the two
   cones read. *)
type miter = Equal | Differ of (int * bool) list | Undecided

let miter ~conflict_budget man a b =
  (* Only the answer is read; Paranoid logs to replay the refutation. *)
  let solver = Solver.create ~proof:(Isr_check_core.Level.paranoid ()) () in
  let input_vars = Hashtbl.create 16 in
  let input_lit i =
    match Hashtbl.find_opt input_vars i with
    | Some l -> l
    | None ->
      let l = Lit.pos (Solver.new_var solver) in
      Hashtbl.add input_vars i l;
      l
  in
  let ctx = Tseitin.create ~man ~solver ~tag:1 ~input_lit in
  let la = Tseitin.lit ctx a and lb = Tseitin.lit ctx b in
  (* Assert la <> lb. *)
  Solver.add_clause solver [ la; lb ];
  Solver.add_clause solver [ Lit.neg la; Lit.neg lb ];
  match Solver.solve ~conflict_budget solver with
  | Solver.Unsat -> Equal
  | Solver.Sat ->
    Differ (Hashtbl.fold (fun i l acc -> (i, Solver.lit_value solver l) :: acc) input_vars [])
  | Solver.Undef -> Undecided

let equivalent ?(conflict_budget = 10_000) man a b =
  match miter ~conflict_budget man a b with
  | Equal -> Some true
  | Differ _ -> Some false
  | Undecided -> None

let sweep ?(rounds = 8) ?(conflict_budget = 10_000) (m : Model.t) =
  let man = m.Model.man in
  let prog = Prog.compile man (m.Model.bad :: Array.to_list m.Model.next) in
  let ninputs = Aig.num_inputs man in
  let rand = Random.State.make [| 0xf4a16 |] in
  (* Seed signatures: a node's words under [rounds] random 64-lane
     patterns, as a string key. *)
  let seeds =
    Array.init rounds (fun _ ->
        let pattern = Array.init ninputs (fun _ -> Random.State.bits64 rand) in
        let buf = Prog.words prog in
        Prog.eval64 prog buf (fun i -> pattern.(i));
        buf)
  in
  let key s ~compl =
    let k = Bytes.create (8 * rounds) in
    Array.iteri
      (fun r buf ->
        let w = Prog.word buf s in
        Bytes.set_int64_ne k (8 * r) (if compl then Int64.lognot w else w))
      seeds;
    Bytes.unsafe_to_string k
  in
  (* Refinement: every SAT counterexample fills one lane of the newest
     refinement word, whose other lanes stay random.  Each lane is a
     real input assignment, so two nodes that differ on any lane of any
     word cannot be equivalent. *)
  let refine = ref [] and pattern = ref [||] and lanes = ref 64 and stale = ref false in
  let add_cex cex =
    if !lanes = 64 then begin
      pattern := Array.init ninputs (fun _ -> Random.State.bits64 rand);
      refine := Prog.words prog :: !refine;
      lanes := 0
    end;
    let bit = Int64.shift_left 1L !lanes in
    List.iter
      (fun (i, v) ->
        let w = !pattern.(i) in
        !pattern.(i) <- (if v then Int64.logor w bit else Int64.logand w (Int64.lognot bit)))
      cex;
    incr lanes;
    stale := true
  in
  let agree s c ~compl =
    (match !refine with
    | buf :: _ when !stale ->
      Prog.eval64 prog buf (fun i -> !pattern.(i));
      stale := false
    | _ -> ());
    let flip = if compl then -1L else 0L in
    List.for_all (fun buf -> Int64.logxor (Prog.word buf s) (Prog.word buf c) = flip) !refine
  in
  (* Rebuild bottom-up in a fresh manager, merging nodes whose signature
     matches a previously placed representative and whose equivalence a
     SAT miter confirms.  Signatures are matched up to complement.  A
     bucket's candidates are tried newest first; those that disagree
     with the node on a refinement word are skipped, since their miter
     could only fail, so the first equivalent candidate is the one an
     unrefined sweep would merge with. *)
  let dst = Aig.create () in
  let new_inputs = Array.init ninputs (fun _ -> Aig.fresh_input dst) in
  (* representative buckets: signature -> (old slot, new lit) list *)
  let buckets : (string, (int * Aig.lit) list) Hashtbl.t = Hashtbl.create 256 in
  let mapping = Array.make (Prog.size prog) (-1) in
  let merges = ref 0 in
  let try_bucket s l0 k ~compl =
    match Hashtbl.find_opt buckets k with
    | None -> None
    | Some candidates ->
      List.find_map
        (fun (c, repr_new) ->
          if not (agree s c ~compl) then None
          else begin
            let target = Prog.node prog c lsl 1 in
            let target = if compl then Aig.not_ target else target in
            match miter ~conflict_budget man l0 target with
            | Equal ->
              incr merges;
              Some (if compl then Aig.not_ repr_new else repr_new)
            | Differ cex ->
              add_cex cex;
              None
            | Undecided -> None
          end)
        candidates
  in
  let rec rebuild_slot s =
    if mapping.(s) < 0 then begin
      let l0 = Prog.node prog s lsl 1 in
      mapping.(s) <-
        (if Aig.is_const man l0 then Aig.lit_false
         else if Aig.is_input man l0 then new_inputs.(Aig.input_index man l0)
         else begin
           let f0, f1 = Aig.fanins man l0 in
           let built = Aig.and_ dst (rebuild_lit f0) (rebuild_lit f1) in
           let k = key s ~compl:false in
           match try_bucket s l0 k ~compl:false with
           | Some repr -> repr
           | None -> (
             match try_bucket s l0 (key s ~compl:true) ~compl:true with
             | Some repr -> repr
             | None ->
               let prev = Option.value ~default:[] (Hashtbl.find_opt buckets k) in
               Hashtbl.replace buckets k ((s, built) :: prev);
               built)
         end)
    end;
    mapping.(s)
  and rebuild_lit l =
    let nl = rebuild_slot (Prog.slot prog l) in
    if Aig.is_complemented l then Aig.not_ nl else nl
  in
  let next = Array.map rebuild_lit m.Model.next in
  let bad = rebuild_lit m.Model.bad in
  ( {
      m with
      Model.man = dst;
      next;
      bad;
      frames = Frame_cnf.cache ();
      name = m.Model.name ^ "_fraig";
    },
    !merges )

(* --- semantic instance fingerprint ---------------------------------------- *)

(* xorshift64*: deterministic per-(round, input) pattern words, so the
   hash never depends on any global RNG state. *)
let pattern_word ~round ~input =
  let x = ref (Int64.of_int (((round + 1) * 0x9e3779b9) lxor ((input + 1) * 0x85ebca6b))) in
  if !x = 0L then x := 0x2545f4914f6cdd1dL;
  let step () =
    x := Int64.logxor !x (Int64.shift_left !x 13);
    x := Int64.logxor !x (Int64.shift_right_logical !x 7);
    x := Int64.logxor !x (Int64.shift_left !x 17)
  in
  step ();
  step ();
  step ();
  !x

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let fnv acc word =
  let acc = Int64.logxor acc word in
  Int64.mul acc fnv_prime

let property_hash ?(rounds = 8) (m : Model.t) =
  (* Cone of influence: latches reachable from [bad] through the
     next-state functions, to a fixpoint.  Everything outside it cannot
     affect the property and must not affect the hash. *)
  let obs = Model.observable m [ m.Model.bad ] in
  let needed = obs.Model.obs_latches in
  (* Sequential 64-pattern simulation from the initial state: latch
     words start broadcast to the initial values, primary inputs get
     fresh deterministic patterns every round. *)
  let state = Rand_sim.init64 m in
  let h = ref fnv_offset in
  (* Seed with the shape of the cone so e.g. an empty cone of a
     constant-true property still hashes distinctly per latch count. *)
  h := fnv !h (Int64.of_int m.Model.num_latches);
  h := fnv !h (Int64.of_int (Array.fold_left (fun a b -> if b then a + 1 else a) 0 needed));
  let frame64 = Rand_sim.frame64 m ~latch_mask:(fun l -> needed.(l)) in
  for round = 0 to rounds - 1 do
    let fr = frame64 ~state ~input:(fun i -> pattern_word ~round ~input:i) in
    h := fnv !h fr.Rand_sim.bad;
    for l = 0 to m.Model.num_latches - 1 do
      if needed.(l) then h := fnv !h fr.Rand_sim.next.(l)
    done;
    Array.blit fr.Rand_sim.next 0 state 0 m.Model.num_latches
  done;
  Printf.sprintf "%016Lx" !h
