open Isr_aig
open Isr_model
module Json = Isr_obs.Json

(* --- portable cones ---------------------------------------------------- *)

type node = Const | Input of int | And of int

type edge = { inv : bool; node : node }

type cone = { ands : (edge * edge) array; root : edge }

let cone_of_lit man root =
  (* Manager node index -> portable node.  [fold_cone] yields fanins
     before fanouts, so every edge target is already in the table. *)
  let tbl = Hashtbl.create 64 in
  let ands = ref [] in
  let nands = ref 0 in
  let edge l =
    { inv = Aig.is_complemented l; node = Hashtbl.find tbl (Aig.node_of l) }
  in
  Aig.fold_cone man root ~init:() ~f:(fun () n ->
      let pos = 2 * n in
      if Aig.is_and man pos then begin
        let f0, f1 = Aig.fanins man pos in
        let e = (edge f0, edge f1) in
        Hashtbl.add tbl n (And !nands);
        ands := e :: !ands;
        incr nands
      end
      else if Aig.is_input man pos then Hashtbl.add tbl n (Input (Aig.input_index man pos))
      else Hashtbl.add tbl n Const);
  { ands = Array.of_list (List.rev !ands); root = edge root }

let lit_of_cone man c =
  let built = Array.make (Array.length c.ands) Aig.lit_false in
  let resolve e =
    let base =
      match e.node with
      | Const -> Aig.lit_false
      | Input i -> Aig.input man i
      | And j -> built.(j)
    in
    if e.inv then Aig.not_ base else base
  in
  Array.iteri (fun j (a, b) -> built.(j) <- Aig.and_ man (resolve a) (resolve b)) c.ands;
  resolve c.root

let cones_of_lits man lits = Array.map (cone_of_lit man) lits
let lits_of_cones man cones = Array.map (lit_of_cone man) cones

(* --- envelope ----------------------------------------------------------- *)

let version = 1

type t = {
  version : int;
  engine : string;
  model : string;
  model_sig : string;
  steps : int;
  bound : int;
  elapsed : float;
  payload : string;
}

let model_signature (m : Model.t) =
  let init = String.init m.Model.num_latches (fun i -> if m.Model.init.(i) then '1' else '0') in
  Printf.sprintf "in=%d;la=%d;init=%s;bad=%d" m.Model.num_inputs m.Model.num_latches init
    (Aig.cone_size m.Model.man m.Model.bad)

let make ~engine ~model ~steps ~bound ~elapsed ~payload =
  {
    version;
    engine;
    model = model.Model.name;
    model_sig = model_signature model;
    steps;
    bound;
    elapsed;
    payload;
  }

let check_model t model =
  let s = model_signature model in
  if String.equal s t.model_sig then Ok ()
  else
    Error
      (Printf.sprintf
         "checkpoint was taken on %S (%s) but the loaded model is %S (%s)" t.model
         t.model_sig model.Model.name s)

let meta_json t =
  Printf.sprintf
    "{\"stream\":\"isr-checkpoint\",\"version\":%d,\"engine\":%s,\"model\":%s,\"sig\":%s,\"steps\":%d,\"bound\":%d,\"elapsed\":%.6f,\"bytes\":%d}"
    t.version (Json.quote t.engine) (Json.quote t.model) (Json.quote t.model_sig) t.steps
    t.bound t.elapsed (String.length t.payload)

let write path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (meta_json t);
      output_char oc '\n';
      output_string oc t.payload);
  Sys.rename tmp path

let read path =
  let fail fmt = Printf.ksprintf (fun msg -> failwith ("Checkpoint.read " ^ path ^ ": " ^ msg)) fmt in
  let ic =
    try open_in_bin path with Sys_error msg -> failwith ("Checkpoint.read: " ^ msg)
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let meta = try input_line ic with End_of_file -> fail "empty file" in
      let j =
        match Json.parse meta with
        | exception Json.Parse_error _ -> fail "not a checkpoint (bad meta line)"
        | j -> j
      in
      (match Json.field "stream" j with
      | Some (Json.Str "isr-checkpoint") -> ()
      | _ -> fail "not a checkpoint stream");
      let float name =
        match Json.field name j with
        | Some (Json.Num f) -> f
        | _ -> fail "the meta line has no number %S" name
      in
      let int name =
        let f = float name in
        if Float.is_integer f && Float.abs f < 0x1p62 then int_of_float f
        else fail "%S is not an integer" name
      in
      let str name =
        match Json.field name j with
        | Some (Json.Str s) -> s
        | _ -> fail "the meta line has no string %S" name
      in
      let v = int "version" in
      if v > version then fail "envelope version %d is newer than %d" v version;
      (* The payload is the rest of the file, exactly. *)
      let bytes = int "bytes" and left = in_channel_length ic - pos_in ic in
      if bytes <> left then fail "the meta line announces %d payload bytes, the file holds %d" bytes left;
      let payload = really_input_string ic bytes in
      {
        version = v;
        engine = str "engine";
        model = str "model";
        model_sig = str "sig";
        steps = int "steps";
        bound = int "bound";
        elapsed = float "elapsed";
        payload;
      })
