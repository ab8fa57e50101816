open Isr_aig

(* --- the decoder: either encoding into one netlist ---------------------- *)

type loc = Line of int | And of int
type part = Input | Latch | Output | And_gate

type problem =
  | Empty
  | Bad_header
  | Bad_max_var of { m : int; defined : int }
  | Truncated of { needed : int; present : int }
  | Malformed of part
  | Negative of part
  | Cycle of int

type defect = loc * problem

type header = { m : int; i : int; l : int; o : int; a : int; b : int }

type netlist = {
  binary : bool;
  header : header option;
  inputs : (int * loc) list;
  latches : (int * int * int list * loc) list;
  outputs : (int * loc) list;
  ands : (int * int * int * loc) list;
  defects : defect list;
}

let string_of_loc = function Line n -> Printf.sprintf "line %d" n | And k -> Printf.sprintf "and %d" k

let describe n = function
  | Empty -> "empty file"
  | Bad_header -> Printf.sprintf "malformed %s AIGER header" (if n.binary then "binary" else "ASCII")
  | Bad_max_var { m; defined } -> Printf.sprintf "header claims M = %d but I + L + A = %d" m defined
  | Truncated { needed; present } ->
    if n.binary then
      Printf.sprintf "file truncated: at least %d bytes expected after the header, %d present"
        needed present
    else Printf.sprintf "file truncated: %d definition lines expected, %d present" needed present
  | (Malformed part | Negative part) as p ->
    Printf.sprintf "%s %s line"
      (match p with Negative _ -> "negative number on" | _ -> "malformed")
      (match part with Input -> "input" | Latch -> "latch" | Output -> "output" | And_gate -> "and")
  | Cycle v -> Printf.sprintf "combinational cycle through and gate %d" v

(* A header's counts may be anything: sums saturate. *)
let sum = List.fold_left (fun x y -> if y > max_int - x then max_int else x + y) 0

(* A line's space-separated numbers.  A token that is not a number makes
   it [`Malformed]; a negative one (never a literal or a count)
   [`Negative]. *)
let numbers tokens =
  let nums = List.map int_of_string_opt tokens in
  if List.mem None nums then Error `Malformed
  else
    let nums = List.map Option.get nums in
    if List.exists (fun n -> n < 0) nums then Error `Negative else Ok nums

let tokens line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let parse_header ~magic line =
  match tokens line with
  | w :: nums when w = magic -> (
    match numbers nums with
    | Ok [ m; i; l; o; a ] -> Some { m; i; l; o; a; b = 0 }
    | Ok [ m; i; l; o; a; b ] -> Some { m; i; l; o; a; b }
    | _ -> None)
  | _ -> None

exception End_of_input

let decode text =
  let binary = String.length text >= 4 && String.sub text 0 4 = "aig " in
  let len = String.length text and pos = ref 0 in
  (* ASCII skips blank lines and trims the others; a binary line is taken
     as it is, and must end in a newline. *)
  let ascii_lines =
    if binary then []
    else
      String.split_on_char '\n' text
      |> List.mapi (fun k l -> (k + 1, String.trim l))
      |> List.filter (fun (_, l) -> l <> "")
  in
  let next_ascii = ref ascii_lines and line = ref 0 in
  let read_line () =
    if binary then begin
      let e = try String.index_from text !pos '\n' with Not_found -> raise End_of_input in
      let l = String.sub text !pos (e - !pos) in
      pos := e + 1;
      incr line;
      (!line, l)
    end
    else
      match !next_ascii with
      | [] -> raise End_of_input
      | l :: rest ->
        next_ascii := rest;
        l
  in
  let defects = ref [] in
  let defect d = defects := d :: !defects in
  let netlist ?header ?(inputs = []) ?(latches = []) ?(outputs = []) ?(ands = []) () =
    { binary; header; inputs; latches; outputs; ands; defects = List.rev !defects }
  in
  match read_line () with
  | exception End_of_input ->
    defect (Line 1, if binary then Bad_header else Empty);
    netlist ()
  | hline, header -> (
    match parse_header ~magic:(if binary then "aig" else "aag") header with
    | None ->
      defect (Line hline, Bad_header);
      netlist ()
    | Some h ->
      let defined = sum [ h.i; h.l; h.a ] in
      if if binary then h.m <> defined else h.m < defined then
        defect (Line hline, Bad_max_var { m = h.m; defined });
      (* Every count is bounded by the input before anything is sized by
         it.  An ASCII definition takes a line.  In binary, latch and
         output lines take at least two bytes each, and so does each
         AND's pair of deltas; inputs are implicit, but each one a file
         references costs it a byte. *)
      let needed, present =
        if binary then
          let lines = sum [ h.l; h.o; h.b; h.a ] in
          (max h.i (sum [ lines; lines ]), len - !pos)
        else (sum [ h.i; h.l; h.o; h.a; h.b ], List.length ascii_lines - 1)
      in
      if needed > present then defect (Line hline, Truncated { needed; present });
      (* A binary file cut short up front has no sections to read; an
         ASCII one has the lines present.  A binary file that ends early
         is truncated where it ends, and nothing after that reads. *)
      let count n = if binary && needed > present then 0 else min n present in
      let ended = ref false in
      let section n part read shape =
        let entries = ref [] in
        for k = 0 to count n - 1 do
          match if !ended then None else Some (read k) with
          | None -> ()
          | exception End_of_input ->
            ended := true;
            if binary then defect (Line hline, Truncated { needed = present + 1; present })
          | Some (loc, Error e) ->
            defect (loc, if e = `Negative then Negative part else Malformed part)
          | Some (loc, Ok nums) -> (
            match shape loc nums with
            | Some x -> entries := x :: !entries
            | None -> defect (loc, Malformed part))
        done;
        List.rev !entries
      in
      (* A line's numbers; a binary latch line lacks the implicit lhs. *)
      let on_line lhs =
        let n, l = read_line () in
        (Line n, Result.map (fun ns -> lhs @ ns) (numbers (tokens l)))
      in
      let even lit = lit land 1 = 0 in
      let inputs =
        section h.i Input
          (fun k -> if binary then (Line hline, Ok [ (2 * k) + 2 ]) else on_line [])
          (fun loc -> function [ lit ] when even lit -> Some (lit, loc) | _ -> None)
      in
      let latches =
        section h.l Latch
          (fun k -> on_line (if binary then [ 2 * (h.i + k + 1) ] else []))
          (fun loc -> function
            | lit :: next :: reset when even lit -> Some (lit, next, reset, loc)
            | _ -> None)
      in
      let outputs =
        section (sum [ h.o; h.b ]) Output
          (fun _ -> on_line [])
          (fun loc -> function [ lit ] -> Some (lit, loc) | _ -> None)
      in
      let rec read_delta shift acc =
        if !pos >= len then raise End_of_input;
        let byte = Char.code text.[!pos] in
        incr pos;
        let acc = acc lor ((byte land 0x7f) lsl shift) in
        if byte land 0x80 <> 0 then read_delta (shift + 7) acc else acc
      in
      let ands =
        section h.a And_gate
          (fun k ->
            if not binary then on_line []
            else
              (* The lhs is implicit; the deltas are 7-bit little-endian. *)
              let lhs = 2 * (h.i + h.l + k + 1) in
              let rhs0 = lhs - read_delta 0 0 in
              let rhs1 = rhs0 - read_delta 0 0 in
              (And k, if rhs0 < 0 || rhs1 < 0 then Error `Negative else Ok [ lhs; rhs0; rhs1 ]))
          (fun loc -> function
            | [ lhs; rhs0; rhs1 ] when even lhs -> Some (lhs, rhs0, rhs1, loc)
            | _ -> None)
      in
      (* The binary format requires lhs > rhs0: a first delta of 0 makes
         the gate read itself, a cycle seen without resolving anything. *)
      if binary then
        List.iter
          (fun (lhs, rhs0, _, loc) -> if rhs0 / 2 = lhs / 2 then defect (loc, Cycle (lhs / 2)))
          ands;
      netlist ~header:h ~inputs ~latches ~outputs ~ands ())

(* --- models from a netlist ---------------------------------------------- *)

exception Unresolved of string

let build ?(name = "aiger") n =
  match (n.defects, n.header) with
  | (_, p) :: _, _ -> Error (describe n p)
  | [], None -> Error (describe n Empty)
  | [], Some h -> (
    let fail fmt = Printf.ksprintf (fun msg -> raise (Unresolved msg)) fmt in
    let defined = h.i + h.l + h.a in
    let man = Aig.create ~nodes:(defined + 1) () in
    (* aiger var -> our literal, -1 until defined; var 0 is constant
       false.  An array reads a file markedly faster than a table, but
       M bounds the variable indices, not their number, so an array only
       when the numbering is dense (M = I + L + A, as binary requires). *)
    let find, set =
      if h.m = defined then
        let vars = Array.make (h.m + 1) (-1) in
        (Array.get vars, Array.set vars)
      else
        let vars = Hashtbl.create (defined + 1) in
        ((fun v -> Option.value (Hashtbl.find_opt vars v) ~default:(-1)), Hashtbl.replace vars)
    in
    set 0 Aig.lit_false;
    let lit_of al =
      if al / 2 > h.m then fail "literal %d out of range" al;
      let x = find (al / 2) in
      if x < 0 then fail "literal %d references variable %d, which is never defined" al (al / 2);
      if al land 1 = 1 then Aig.not_ x else x
    in
    let define lit x =
      if lit / 2 > h.m then fail "variable %d beyond the maximum %d" (lit / 2) h.m;
      if find (lit / 2) >= 0 then fail "variable %d defined twice" (lit / 2);
      set (lit / 2) x
    in
    try
      List.iter (fun (lit, _) -> define lit (Aig.fresh_input man)) n.inputs;
      List.iter (fun (lit, _, _, _) -> define lit (Aig.fresh_input man)) n.latches;
      let reset = function
        | [] | [ 0 ] -> false
        | [ 1 ] -> true
        | _ -> fail "unsupported latch reset value"
      in
      let init = Array.of_list (List.map (fun (_, _, r, _) -> reset r) n.latches) in
      (* AND gates.  A file in topological order (every binary file, and
         most ASCII ones) is built in file order.  ASCII lets a gate
         precede its fanins: from the first gate with an undefined fanin
         on, a gate waiting on an undefined fanin gate defines that gate
         first, on an explicit stack, and meeting a gate that is already
         on the stack closes a combinational cycle. *)
      let ands = Array.of_list n.ands in
      let nands = Array.length ands in
      let ready r = r / 2 <= h.m && find (r / 2) >= 0 in
      let gate (lhs, r0, r1, _) =
        let l0 = lit_of r0 in
        define lhs (Aig.and_ man l0 (lit_of r1))
      in
      let first = ref 0 in
      while
        !first < nands
        &&
        let _, r0, r1, _ = ands.(!first) in
        ready r0 && ready r1
      do
        gate ands.(!first);
        incr first
      done;
      if !first < nands then begin
        let gates = Hashtbl.create (nands - !first) in
        let gate_of v = Option.value (Hashtbl.find_opt gates v) ~default:(-1) in
        for k = !first to nands - 1 do
          let lhs, _, _, _ = ands.(k) in
          let v = lhs / 2 in
          if v > h.m then fail "variable %d beyond the maximum %d" v h.m;
          if find v >= 0 || gate_of v >= 0 then fail "variable %d defined twice" v;
          Hashtbl.replace gates v k
        done;
        let on_stack = Bytes.make nands '\000' in
        let waits_on r = if r / 2 > h.m || find (r / 2) >= 0 then -1 else gate_of (r / 2) in
        let rec settle = function
          | [] -> ()
          | k :: rest as stack ->
            let _, r0, r1, _ = ands.(k) in
            let g = match waits_on r0 with -1 -> waits_on r1 | g -> g in
            if g < 0 then begin
              gate ands.(k);
              settle rest
            end
            else begin
              if Bytes.get on_stack g = '\001' then begin
                let lg, _, _, _ = ands.(g) in
                fail "%s" (describe n (Cycle (lg / 2)))
              end;
              Bytes.set on_stack g '\001';
              settle (g :: stack)
            end
        in
        for k = !first to nands - 1 do
          let lhs, _, _, _ = ands.(k) in
          if find (lhs / 2) < 0 then begin
            Bytes.set on_stack k '\001';
            settle [ k ]
          end
        done
      end;
      let next = Array.of_list (List.map (fun (_, next, _, _) -> lit_of next) n.latches) in
      let bads = List.map (fun (lit, _) -> lit_of lit) n.outputs in
      let bad = match bads with [] -> Aig.lit_false | b :: _ -> b in
      let model =
        {
          Model.name;
          man;
          num_inputs = h.i;
          num_latches = h.l;
          next;
          init;
          bad;
          frames = Frame_cnf.cache ();
        }
      in
      Result.map (fun () -> (model, bads)) (Model.validate model)
    with Unresolved msg -> Error msg)

let parse_string ?name text = Result.map fst (build ?name (decode text))

let models ?name n =
  Result.map
    (fun ((model : Model.t), bads) ->
      match bads with
      | [] | [ _ ] -> [ model ]
      | _ ->
        List.mapi
          (fun idx bad ->
            { model with Model.name = Printf.sprintf "%s_p%d" model.Model.name idx; bad })
          bads)
    (build ?name n)

let parse_string_multi ?name text = models ?name (decode text)

(* Shared numbering for both writers: inputs 1..I, latches I+1..I+L, then
   ANDs in topological order (so fanin literals always precede the
   defined one — a requirement of the binary encoding). *)
let number (model : Model.t) =
  let man = model.Model.man in
  let num_i = model.Model.num_inputs and num_l = model.Model.num_latches in
  let var_of_node = Hashtbl.create 256 in
  Hashtbl.add var_of_node 0 0;
  for k = 0 to num_i + num_l - 1 do
    Hashtbl.add var_of_node (Aig.node_of (Aig.input man k)) (k + 1)
  done;
  let next_var = ref (num_i + num_l + 1) in
  let ands = ref [] in
  let visit l =
    ignore
      (Aig.fold_cone man l ~init:() ~f:(fun () node ->
           if not (Hashtbl.mem var_of_node node) then begin
             Hashtbl.add var_of_node node !next_var;
             incr next_var;
             ands := node :: !ands
           end))
  in
  Array.iter visit model.Model.next;
  visit model.Model.bad;
  let alit l =
    let v = Hashtbl.find var_of_node (Aig.node_of l) in
    (2 * v) + if Aig.is_complemented l then 1 else 0
  in
  (List.rev !ands, alit, !next_var - 1)

let to_string (model : Model.t) =
  let man = model.Model.man in
  let num_i = model.Model.num_inputs and num_l = model.Model.num_latches in
  let ands, alit, max_var = number model in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "aag %d %d %d 1 %d\n" max_var num_i num_l (List.length ands));
  for k = 0 to num_i - 1 do
    Buffer.add_string buf (Printf.sprintf "%d\n" (2 * (k + 1)))
  done;
  for k = 0 to num_l - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d %d %d\n"
         (2 * (num_i + k + 1))
         (alit model.Model.next.(k))
         (if model.Model.init.(k) then 1 else 0))
  done;
  Buffer.add_string buf (Printf.sprintf "%d\n" (alit model.Model.bad));
  List.iter
    (fun node ->
      let f0, f1 = Aig.fanins man (node lsl 1) in
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d\n" (alit (node lsl 1)) (alit f0) (alit f1)))
    ands;
  Buffer.add_string buf (Printf.sprintf "c\nmodel %s\n" model.Model.name);
  Buffer.contents buf

let to_binary_string (model : Model.t) =
  let man = model.Model.man in
  let num_i = model.Model.num_inputs and num_l = model.Model.num_latches in
  let ands, alit, max_var = number model in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "aig %d %d %d 1 %d\n" max_var num_i num_l (List.length ands));
  for k = 0 to num_l - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d %d\n"
         (alit model.Model.next.(k))
         (if model.Model.init.(k) then 1 else 0))
  done;
  Buffer.add_string buf (Printf.sprintf "%d\n" (alit model.Model.bad));
  let put_delta d =
    let rec go d =
      if d < 0x80 then Buffer.add_char buf (Char.chr d)
      else begin
        Buffer.add_char buf (Char.chr (0x80 lor (d land 0x7f)));
        go (d lsr 7)
      end
    in
    go d
  in
  List.iter
    (fun node ->
      let f0, f1 = Aig.fanins man (node lsl 1) in
      let lhs = alit (node lsl 1) in
      let r0 = alit f0 and r1 = alit f1 in
      let rhs0 = max r0 r1 and rhs1 = min r0 r1 in
      assert (lhs > rhs0);
      put_delta (lhs - rhs0);
      put_delta (rhs0 - rhs1))
    ands;
  Buffer.add_string buf (Printf.sprintf "c\nmodel %s\n" model.Model.name);
  Buffer.contents buf

let witness_to_string (model : Model.t) (tr : Trace.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "1\nb0\n";
  Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) model.Model.init;
  Buffer.add_char buf '\n';
  Array.iter
    (fun frame ->
      Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) frame;
      Buffer.add_char buf '\n')
    tr.Trace.inputs;
  Buffer.add_string buf ".\n";
  Buffer.contents buf

let witness_of_string (model : Model.t) text =
  let lines =
    String.split_on_char '\n' text |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | "1" :: _prop :: init_line :: rest ->
    if String.length init_line <> model.Model.num_latches then
      Error "witness: wrong latch-line width"
    else begin
      let frames = ref [] in
      let error = ref None in
      List.iter
        (fun line ->
          if !error = None && line <> "." then
            if String.length line <> model.Model.num_inputs then
              error := Some "witness: wrong input-line width"
            else
              frames := Array.init (String.length line) (fun i -> line.[i] = '1') :: !frames)
        rest;
      match !error with
      | Some e -> Error e
      | None -> Ok { Trace.inputs = Array.of_list (List.rev !frames) }
    end
  | _ -> Error "witness: expected status 1 and a property line"

let write_file ?(format = `Ascii) model path =
  let text = match format with `Ascii -> to_string model | `Binary -> to_binary_string model in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)
