open Isr_core

let schema_version = 1

type run = {
  bench : string;
  engine : string;
  verdict : string;
  time_median : float;
  time_spread : float;
  conflicts : int;
  sat_calls : int;
  kfp : int option;
  jfp : int option;
}

type t = {
  schema : int;
  suite : string;
  repeat : int;
  time_limit : float;
  runs : run list;
}

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let spread = function
  | [] -> 0.0
  | x :: xs ->
    let lo = List.fold_left Float.min x xs and hi = List.fold_left Float.max x xs in
    hi -. lo

let verdict_tag = function
  | Verdict.Proved _ -> "proved"
  | Verdict.Falsified _ -> "falsified"
  | Verdict.Unknown _ -> "unknown"

let mk_run ~bench ~engine samples =
  match samples with
  | [] -> invalid_arg "Bench_store.mk_run: no samples"
  | (verdict, stats) :: _ ->
    let times = List.map (fun (_, s) -> Verdict.time s) samples in
    {
      bench;
      engine;
      verdict = verdict_tag verdict;
      time_median = median times;
      time_spread = spread times;
      conflicts = Verdict.conflicts stats;
      sat_calls = Verdict.sat_calls stats;
      kfp = Verdict.kfp verdict;
      jfp = Verdict.jfp verdict;
    }

let make ~suite ~repeat ~time_limit runs =
  { schema = schema_version; suite; repeat; time_limit; runs }

(* -------------------------------------------------------------------- *)
(* Printing.                                                            *)

let escape = Isr_obs.Json.escape

let run_to_json r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"bench\":\"%s\",\"engine\":\"%s\",\"verdict\":\"%s\",\"time_median_s\":%.6f,\"time_spread_s\":%.6f,\"conflicts\":%d,\"sat_calls\":%d"
       (escape r.bench) (escape r.engine) (escape r.verdict) r.time_median r.time_spread
       r.conflicts r.sat_calls);
  (match r.kfp with Some k -> Buffer.add_string b (Printf.sprintf ",\"kfp\":%d" k) | None -> ());
  (match r.jfp with Some j -> Buffer.add_string b (Printf.sprintf ",\"jfp\":%d" j) | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"schema\": %d,\n  \"suite\": \"%s\",\n  \"repeat\": %d,\n  \"time_limit_s\": %g,\n  \"runs\": [\n"
       t.schema (escape t.suite) t.repeat t.time_limit);
  List.iteri
    (fun i r ->
      Buffer.add_string b "    ";
      Buffer.add_string b (run_to_json r);
      if i < List.length t.runs - 1 then Buffer.add_char b ',';
      Buffer.add_char b '\n')
    t.runs;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json t))

(* -------------------------------------------------------------------- *)
(* Parsing: on the shared Isr_obs.Json reader.  A baseline file feeds the
   regression gate, so a corrupt one must fail loudly and typed — never
   load a NaN median that every float comparison then waves through.    *)

exception Corrupt of { path : string; what : string }

let () =
  Printexc.register_printer (function
    | Corrupt { path; what } -> Some (Printf.sprintf "Bench_store.Corrupt(%s: %s)" path what)
    | _ -> None)

module J = Isr_obs.Json

let corrupt path fmt = Printf.ksprintf (fun what -> raise (Corrupt { path; what })) fmt

let str_field path name j =
  match J.field name j with
  | Some (J.Str s) -> s
  | _ -> corrupt path "missing string field %S" name

let num_field path name j =
  match J.field name j with
  | Some (J.Num f) -> f
  | _ -> corrupt path "missing numeric field %S" name

let opt_int_field name j =
  match J.field name j with Some (J.Num f) -> Some (int_of_float f) | _ -> None

(* A usable wall-time summary is a finite non-negative number; NaN,
   infinities and negatives all mean the file was mangled (or written by
   a buggy harness) and would silently defeat the gate's comparisons. *)
let time_field path ~bench name j =
  let f = num_field path name j in
  if Float.is_nan f then corrupt path "%s: %S is NaN" bench name;
  if not (Float.is_finite f) then corrupt path "%s: %S is infinite" bench name;
  if f < 0.0 then corrupt path "%s: %S is negative (%g)" bench name f;
  f

let count_field path ~bench name j =
  let f = num_field path name j in
  if not (Float.is_finite f) || f < 0.0 then
    corrupt path "%s: %S is not a non-negative count" bench name;
  int_of_float f

let run_of_json path j =
  let bench = str_field path "bench" j in
  {
    bench;
    engine = str_field path "engine" j;
    verdict = str_field path "verdict" j;
    time_median = time_field path ~bench "time_median_s" j;
    time_spread = time_field path ~bench "time_spread_s" j;
    conflicts = count_field path ~bench "conflicts" j;
    sat_calls = count_field path ~bench "sat_calls" j;
    kfp = opt_int_field "kfp" j;
    jfp = opt_int_field "jfp" j;
  }

let load path =
  let contents =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> corrupt path "%s" msg
  in
  match J.parse contents with
  | exception J.Parse_error msg -> corrupt path "%s" msg
  | j -> (
    match J.field "schema" j with
    | Some (J.Num v) when int_of_float v = schema_version -> (
      match J.field "runs" j with
      | Some (J.Arr runs) ->
        {
          schema = schema_version;
          suite =
            (match J.field "suite" j with Some (J.Str s) -> s | _ -> "");
          repeat =
            (match J.field "repeat" j with Some (J.Num f) -> int_of_float f | _ -> 1);
          time_limit =
            (match J.field "time_limit_s" j with Some (J.Num f) -> f | _ -> 0.0);
          runs = List.map (run_of_json path) runs;
        }
      | _ -> corrupt path "no \"runs\" array")
    | Some (J.Num v) ->
      corrupt path "unsupported schema %d (expected %d)" (int_of_float v) schema_version
    | _ -> corrupt path "no \"schema\" field")

(* -------------------------------------------------------------------- *)
(* Regression gate.                                                     *)

type regression =
  | Slower of { bench : string; engine : string; base : float; cur : float }
  | Verdict_changed of { bench : string; engine : string; base : string; cur : string }
  | Missing of { bench : string; engine : string }

let compare_to_baseline ?(threshold = 0.25) ?(min_delta = 0.05) ~baseline current =
  let find r =
    List.find_opt (fun c -> c.bench = r.bench && c.engine = r.engine) current.runs
  in
  List.filter_map
    (fun b ->
      match find b with
      | None -> Some (Missing { bench = b.bench; engine = b.engine })
      | Some c ->
        if c.verdict <> b.verdict then
          Some
            (Verdict_changed
               { bench = b.bench; engine = b.engine; base = b.verdict; cur = c.verdict })
        else begin
          let delta = c.time_median -. b.time_median in
          (* Noise guards: the relative threshold, an absolute floor for
             sub-ms-scale runs, and the measured spread of both sides. *)
          if
            delta > threshold *. b.time_median
            && delta > min_delta
            && delta > b.time_spread +. c.time_spread
          then
            Some
              (Slower
                 { bench = b.bench; engine = b.engine; base = b.time_median; cur = c.time_median })
          else None
        end)
    baseline.runs

let pp_regression fmt = function
  | Slower { bench; engine; base; cur } ->
    Format.fprintf fmt "SLOWER  %s/%s: %.3fs -> %.3fs (%+.0f%%)" bench engine base cur
      (100.0 *. ((cur /. Float.max base 1e-9) -. 1.0))
  | Verdict_changed { bench; engine; base; cur } ->
    Format.fprintf fmt "VERDICT %s/%s: %s -> %s" bench engine base cur
  | Missing { bench; engine } -> Format.fprintf fmt "MISSING %s/%s" bench engine

(* -------------------------------------------------------------------- *)
(* Verdict-agreement gate.                                              *)

type disagreement =
  | Flip of { a : string; b : string }
  | No_replay of [ `A | `B ]

let disagreements ~same_model ~replays a b =
  let ta = verdict_tag a and tb = verdict_tag b in
  (* Unknown vs conclusive is a flip only between runs on the same model:
     a rewritten model may legitimately decide what the original could
     not in the same budget. *)
  let flip =
    if ta = tb || ((ta = "unknown" || tb = "unknown") && not same_model) then []
    else [ Flip { a = ta; b = tb } ]
  in
  let replay side = function
    | Verdict.Falsified { trace; _ } when not (replays trace) -> [ No_replay side ]
    | _ -> []
  in
  flip @ replay `A a @ replay `B b
