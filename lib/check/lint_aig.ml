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

(* --- lenient ASCII AIGER reader ---------------------------------------- *)

(* Variable definition sites, recorded before any reference is resolved so
   that forward references and cycles are observable rather than fatal. *)
type def = Dinput | Dlatch of int (* next literal *) | Dand of int * int

let lint_ascii ?(name = "aiger") text =
  ignore name;
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  (* A negative number is malformed wherever it appears. *)
  let ints line =
    let parts = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
    let nums = List.map int_of_string_opt parts in
    if List.exists (function None -> true | Some n -> n < 0) nums then None
    else Some (List.map Option.get nums)
  in
  match lines with
  | [] -> [ Diag.error ~check:"aig.header" "empty file" ]
  | (hline, header) :: rest -> (
    let loc n = Printf.sprintf "line %d" n in
    match
      match String.split_on_char ' ' header |> List.filter (fun s -> s <> "") with
      | "aag" :: nums -> (
        match ints (String.concat " " nums) with
        | Some [ m; i; l; o; a ] -> Some (m, i, l, o, a, 0)
        | Some [ m; i; l; o; a; b ] -> Some (m, i, l, o, a, b)
        | _ -> None)
      | _ -> None
    with
    | None ->
      [
        Diag.error ~check:"aig.header" ~loc:(loc hline)
          ~hint:"expected 'aag M I L O A [B]'" "malformed ASCII AIGER header";
      ]
    | Some (m, i, l, o, a, b) ->
      if m < i + l + a then
        add
          (Diag.errorf ~check:"aig.header" ~loc:(loc hline)
             "header claims M = %d but I + L + A = %d" m (i + l + a));
      let rest = Array.of_list rest in
      let present = Array.length rest in
      (* A saturating sum: the header's counts may be anything. *)
      let needed =
        List.fold_left (fun acc n -> if n > max_int - acc then max_int else acc + n) 0
          [ i; l; o; a; b ]
      in
      if present < needed then
        add
          (Diag.errorf ~check:"aig.truncated" ~loc:(loc hline)
             ~hint:"the header announces more definition lines than the file holds"
             "file truncated: %d definition lines expected, %d present" needed present);
      if o + b = 0 then
        add
          (Diag.warning ~check:"aig.no_output"
             ~hint:"add an output or bad line naming the property"
             "no output or bad literal: nothing to verify");
      (* Past this point no loop runs further than the lines present. *)
      let i = min i present and l = min l present and o = min o present
      and a = min a present and b = min b present in
      let avail = min (i + l + o + a + b) present in
      let defs : (int, def * int) Hashtbl.t = Hashtbl.create 64 in
      let refs = ref [] (* (literal, line) to resolve once all defs are in *) in
      let define line v d =
        if v = 0 then
          add
            (Diag.error ~check:"aig.redefines_constant" ~loc:(loc line)
               "variable 0 is the constant and cannot be defined")
        else if v > m then
          add
            (Diag.errorf ~check:"aig.out_of_range" ~loc:(loc line)
               "variable %d beyond the declared maximum %d" v m)
        else
          match Hashtbl.find_opt defs v with
          | Some (_, line0) ->
            add
              (Diag.errorf ~check:"aig.duplicate_def" ~loc:(loc line)
                 "variable %d already defined at line %d" v line0)
          | None -> Hashtbl.add defs v (d, line)
      in
      let reference line al =
        if al / 2 > m then
          add
            (Diag.errorf ~check:"aig.out_of_range" ~loc:(loc line)
               "literal %d beyond the declared maximum variable %d" al m)
        else refs := (al, line) :: !refs
      in
      let line_at k = if k < avail then Some rest.(k) else None in
      let malformed line what =
        add (Diag.errorf ~check:"aig.header" ~loc:(loc line) "malformed %s line" what)
      in
      for k = 0 to i - 1 do
        match line_at k with
        | None -> ()
        | Some (line, text) -> (
          match ints text with
          | Some [ al ] when al land 1 = 0 -> define line (al / 2) Dinput
          | Some [ al ] ->
            add
              (Diag.errorf ~check:"aig.header" ~loc:(loc line)
                 "input defined by a complemented literal %d" al)
          | _ -> malformed line "input")
      done;
      for k = 0 to l - 1 do
        match line_at (i + k) with
        | None -> ()
        | Some (line, text) -> (
          match ints text with
          | Some (al :: nl :: init_rest) when al land 1 = 0 -> (
            define line (al / 2) (Dlatch nl);
            reference line nl;
            match init_rest with
            | [] | [ 0 ] | [ 1 ] -> ()
            | _ ->
              add
                (Diag.errorf ~check:"aig.latch_init" ~loc:(loc line)
                   ~hint:"use 0, 1 or omit the reset value"
                   "unsupported latch reset value on latch %d" (al / 2)))
          | _ -> malformed line "latch")
      done;
      for k = 0 to o + b - 1 do
        match line_at (i + l + k) with
        | None -> ()
        | Some (line, text) -> (
          match ints text with
          | Some [ al ] -> reference line al
          | _ -> malformed line "output")
      done;
      for k = 0 to a - 1 do
        match line_at (i + l + o + b + k) with
        | None -> ()
        | Some (line, text) -> (
          match ints text with
          | Some [ lhs; r0; r1 ] when lhs land 1 = 0 ->
            define line (lhs / 2) (Dand (r0, r1));
            reference line r0;
            reference line r1
          | _ -> malformed line "and")
      done;
      (* Dangling references: every used variable must be defined. *)
      List.iter
        (fun (al, line) ->
          let v = al / 2 in
          if v <> 0 && v <= m && not (Hashtbl.mem defs v) then
            add
              (Diag.errorf ~check:"aig.dangling" ~loc:(loc line)
                 ~hint:"define the variable as an input, latch or and gate"
                 "literal %d references variable %d, which is never defined" al v))
        (List.rev !refs);
      (* Combinational cycles through AND definitions (latches break
         cycles by construction).  Colors: 0 unvisited, 1 on stack, 2 done. *)
      let color = Hashtbl.create 64 in
      let rec dfs v =
        match Hashtbl.find_opt color v with
        | Some 2 -> ()
        | Some 1 ->
          add
            (Diag.errorf ~check:"aig.cycle"
               ~loc:
                 (match Hashtbl.find_opt defs v with
                 | Some (_, line) -> loc line
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
      (* Unreachable AND cones: only when the netlist is otherwise sound
         (reachability over a broken graph reports noise). *)
      if not (Diag.has_errors !ds) then begin
        let marked = Hashtbl.create 64 in
        let rec mark v =
          if v <> 0 && not (Hashtbl.mem marked v) then begin
            Hashtbl.add marked v ();
            match Hashtbl.find_opt defs v with
            | Some (Dand (r0, r1), _) ->
              mark (r0 / 2);
              mark (r1 / 2)
            | _ -> ()
          end
        in
        List.iter (fun (al, _) -> mark (al / 2)) !refs;
        let dead = ref 0 in
        Hashtbl.iter
          (fun v (d, _) ->
            match d with
            | Dand _ when not (Hashtbl.mem marked v) -> incr dead
            | _ -> ())
          defs;
        if !dead > 0 then
          add
            (Diag.warningf ~check:"aig.unreachable"
               ~hint:"strip dead logic with cone-of-influence reduction"
               "%d and gate%s outside every output, bad and next-state cone" !dead
               (if !dead = 1 then "" else "s"))
      end;
      List.rev !ds)

let lint_aiger_string ?name text =
  if String.length text >= 4 && String.sub text 0 4 = "aig " then
    (* Binary AIGER is acyclic and dense by construction; the strict
       parser is the right reader and its failures become diagnostics. *)
    match Aiger.parse_string ?name text with
    | Ok model -> lint_model model
    | Error msg -> [ Diag.error ~check:"aig.parse" msg ]
  else lint_ascii ?name text
