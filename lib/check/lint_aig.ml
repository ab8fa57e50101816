open Isr_aig
open Isr_model

(* --- in-memory models -------------------------------------------------- *)

let unreachable_ands (model : Model.t) =
  (* Everything the manager holds minus the union of the model's cones
     (one shared walk via [Aig.cone_sizes], through [Model.num_ands]). *)
  Aig.num_ands model.Model.man - Model.num_ands model

let lint_cone ?(check = "aig.support") man ~shared l =
  List.filter_map
    (fun i ->
      if shared i then None
      else
        Some
          (Diag.errorf ~check ~loc:(Printf.sprintf "input %d" i)
             "cone depends on input %d, outside the allowed support" i))
    (Aig.support man l)

let lint_model (model : Model.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  (match Model.validate model with
  | Ok () -> ()
  | Error msg ->
    add
      (Diag.error ~check:"aig.support" ~hint:"declare every input and latch the cones use"
         msg));
  let n = unreachable_ands model in
  if n > 0 then
    add
      (Diag.warningf ~check:"aig.unreachable"
         ~hint:"strip dead logic with cone-of-influence reduction"
         "%d AND node%s outside every next-state and bad cone" n
         (if n = 1 then "" else "s"));
  if model.Model.bad = Aig.lit_false then
    add (Diag.warning ~check:"aig.const_bad" "property is structurally true (bad = false)")
  else if model.Model.bad = Aig.lit_true then
    add (Diag.warning ~check:"aig.const_bad" "property is structurally false (bad = true)");
  List.rev !ds

(* --- AIGER netlists ------------------------------------------------------ *)

(* A defect of the decoder, as the diagnostic its check names. *)
let defect_diag n (loc, p) =
  let loc = if p = Aiger.Empty then None else Some (Aiger.string_of_loc loc) in
  let msg = Aiger.describe n p in
  match p with
  | Aiger.Truncated _ ->
    Diag.error ~check:"aig.truncated" ?loc
      ~hint:"the header announces more definition lines than the file holds" msg
  | Bad_header ->
    Diag.error ~check:"aig.header" ?loc
      ~hint:(Printf.sprintf "expected '%s M I L O A [B]'" (if n.Aiger.binary then "aig" else "aag"))
      msg
  | Empty | Bad_max_var _ | Malformed _ | Negative _ -> Diag.error ~check:"aig.header" ?loc msg
  | Cycle _ -> Diag.error ~check:"aig.cycle" ?loc msg

(* Variable definition sites, recorded before any reference is resolved so
   that forward references and cycles are observable rather than fatal. *)
type def = Dinput | Dlatch | Dand of int * int

let lint_netlist (n : Aiger.netlist) =
  match n.Aiger.header with
  | None -> List.map (defect_diag n) n.Aiger.defects
  | Some h ->
    let m = h.Aiger.m in
    let where = Aiger.string_of_loc in
    (* Diagnostics of the definitions, each at its location; merged with
       the decoder's line defects in file order below. *)
    let located = ref [] in
    let add loc d = located := (loc, d) :: !located in
    let defs : (int, def * Aiger.loc) Hashtbl.t = Hashtbl.create 64 in
    let refs = ref [] (* (literal, loc) to resolve once all defs are in *) in
    let define loc v d =
      if v = 0 then
        add loc
          (Diag.error ~check:"aig.redefines_constant" ~loc:(where loc)
             "variable 0 is the constant and cannot be defined")
      else if v > m then
        add loc
          (Diag.errorf ~check:"aig.out_of_range" ~loc:(where loc)
             "variable %d beyond the declared maximum %d" v m)
      else
        match Hashtbl.find_opt defs v with
        | Some (_, loc0) ->
          add loc
            (Diag.errorf ~check:"aig.duplicate_def" ~loc:(where loc)
               "variable %d already defined at %s" v (where loc0))
        | None -> Hashtbl.add defs v (d, loc)
    in
    let reference loc al =
      if al / 2 > m then
        add loc
          (Diag.errorf ~check:"aig.out_of_range" ~loc:(where loc)
             "literal %d beyond the declared maximum variable %d" al m)
      else refs := (al, loc) :: !refs
    in
    List.iter (fun (lit, loc) -> define loc (lit / 2) Dinput) n.Aiger.inputs;
    List.iter
      (fun (lit, next, reset, loc) ->
        define loc (lit / 2) Dlatch;
        reference loc next;
        match reset with
        | [] | [ 0 ] | [ 1 ] -> ()
        | _ ->
          add loc
            (Diag.errorf ~check:"aig.latch_init" ~loc:(where loc)
               ~hint:"use 0, 1 or omit the reset value"
               "unsupported latch reset value on latch %d" (lit / 2)))
      n.Aiger.latches;
    List.iter (fun (lit, loc) -> reference loc lit) n.Aiger.outputs;
    List.iter
      (fun (lhs, r0, r1, loc) ->
        define loc (lhs / 2) (Dand (r0, r1));
        reference loc r0;
        reference loc r1)
      n.Aiger.ands;
    (* The header's problems first, then every line in file order.  A
       [Cycle] the decoder met is reported by the cycle check below. *)
    let at_header = Aiger.Line 0 in
    let ds =
      List.filter_map
        (fun ((loc, p) as d) ->
          match p with
          | Aiger.Cycle _ -> None
          | Malformed _ | Negative _ -> Some (loc, defect_diag n d)
          | _ -> Some (at_header, defect_diag n d))
        n.Aiger.defects
      @ (if h.Aiger.o + h.Aiger.b <> 0 then []
         else
           [
             ( at_header,
               Diag.warning ~check:"aig.no_output"
                 ~hint:"add an output or bad line naming the property"
                 "no output or bad literal: nothing to verify" );
           ])
      @ List.rev !located
      |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
      |> List.rev_map snd |> ref
    in
    let add d = ds := d :: !ds in
    (* Dangling references: every used variable must be defined. *)
    List.iter
      (fun (al, loc) ->
        let v = al / 2 in
        if v <> 0 && v <= m && not (Hashtbl.mem defs v) then
          add
            (Diag.errorf ~check:"aig.dangling" ~loc:(where loc)
               ~hint:"define the variable as an input, latch or and gate"
               "literal %d references variable %d, which is never defined" al v))
      (List.rev !refs);
    (* Combinational cycles through AND definitions (latches break
       cycles by construction).  Colors: 1 on stack, 2 done. *)
    let color = Hashtbl.create 64 in
    let rec dfs v =
      match Hashtbl.find_opt color v with
      | Some 2 -> ()
      | Some 1 ->
        add
          (Diag.errorf ~check:"aig.cycle"
             ~loc:
               (match Hashtbl.find_opt defs v with
               | Some (_, loc) -> where loc
               | None -> Printf.sprintf "variable %d" v)
             ~hint:"order and gates topologically; a latch must break every loop"
             "combinational cycle through and gate %d" v);
        Hashtbl.replace color v 2
      | _ -> (
        match Hashtbl.find_opt defs v with
        | Some (Dand (r0, r1), _) ->
          Hashtbl.replace color v 1;
          dfs (r0 / 2);
          dfs (r1 / 2);
          Hashtbl.replace color v 2
        | _ -> Hashtbl.replace color v 2)
    in
    Hashtbl.iter (fun v (d, _) -> match d with Dand _ -> dfs v | _ -> ()) defs;
    (* AND gates outside every cone: only when the netlist is otherwise
       sound (reachability over a broken graph reports noise). *)
    if not (Diag.has_errors !ds) then begin
      let marked = Hashtbl.create 64 in
      let rec mark v =
        if not (Hashtbl.mem marked v) then begin
          Hashtbl.add marked v ();
          match Hashtbl.find_opt defs v with
          | Some (Dand (r0, r1), _) ->
            mark (r0 / 2);
            mark (r1 / 2)
          | _ -> ()
        end
      in
      (* The roots are what the netlist exposes: its output and bad
         literals and its latches' next states.  An AND fanin is no
         root: a gate only dead gates read is dead too. *)
      List.iter (fun (al, _) -> mark (al / 2)) n.Aiger.outputs;
      List.iter (fun (_, next, _, _) -> mark (next / 2)) n.Aiger.latches;
      let dead = ref 0 in
      Hashtbl.iter
        (fun v (d, _) ->
          match d with Dand _ when not (Hashtbl.mem marked v) -> incr dead | _ -> ())
        defs;
      if !dead > 0 then
        add
          (Diag.warningf ~check:"aig.unreachable"
             ~hint:"strip dead logic with cone-of-influence reduction"
             "%d and gate%s outside every output, bad and next-state cone" !dead
             (if !dead = 1 then "" else "s"))
    end;
    List.rev !ds
