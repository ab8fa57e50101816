open Isr_model
open Isr_core
open Isr_suite

type engine_result = {
  engine : Engine.t;
  verdict : Verdict.t;
  stats : Verdict.stats;
}

type row = {
  entry : Registry.entry;
  pis : int;
  ffs : int;
  results : engine_result list;
}

type record = {
  bench : string;
  engine_name : string;
  instance_hash : string;
  verdict : Verdict.t;
  stats : Verdict.stats;
}

type progress = {
  p_bench : string;
  p_engine : string;
  p_index : int;
  p_total : int;
}

(* Default progress sink: post the suite position as a phase record (a
   no-op with nobody listening), so any caller of [run_entry] gets
   --progress coverage for free. *)
let obs_progress p =
  if Isr_obs.Event.enabled () then
    Isr_obs.Event.emit
      (Isr_obs.Event.Phase
         {
           phase = "suite.run";
           step = p.p_index + 1;
           total = p.p_total;
           detail = p.p_bench ^ "/" ^ p.p_engine;
           conflicts = 0;
           propagations = 0;
           learnt = 0;
         })

(* Lift a per-entry progress (index within the entry's engine list) to a
   whole-suite one: [index] is the entry's position among [total]. *)
let globalize ~index ~total progress p =
  progress { p with p_index = (index * p.p_total) + p.p_index; p_total = total * p.p_total }

let json_escape = Isr_obs.Json.escape

let verdict_tag = function
  | Verdict.Proved _ -> "proved"
  | Verdict.Falsified _ -> "falsified"
  | Verdict.Unknown _ -> "unknown"

(* The one projection of a run record: the ledger entry (unstamped, so
   [id] and [time] are empty until {!Isr_obs.Ledger.append}), which the
   --metrics line renders too.  The registry snapshot is collapsed to one
   line so both stay greppable. *)
let entry ?(config = "") ?events_path ?profile_path r =
  let compact s = String.concat " " (String.split_on_char '\n' s) in
  {
    Isr_obs.Ledger.id = "";
    time = "";
    instance = r.bench;
    instance_hash = r.instance_hash;
    engine = r.engine_name;
    config;
    verdict = verdict_tag r.verdict;
    kfp = Verdict.kfp r.verdict;
    jfp = Verdict.jfp r.verdict;
    wall_s = Verdict.time r.stats;
    conflicts = Verdict.conflicts r.stats;
    sat_calls = Verdict.sat_calls r.stats;
    itp_nodes = Verdict.itp_nodes r.stats;
    metrics_json = compact (Isr_obs.Metrics.to_json (Verdict.registry r.stats));
    events_path;
    profile_path;
  }

let json_of_entry (e : Isr_obs.Ledger.entry) =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "{\"bench\":\"%s\",\"engine\":\"%s\",\"verdict\":\"%s\""
       (json_escape e.instance) (json_escape e.engine) e.verdict);
  if e.instance_hash <> "" then
    Buffer.add_string b (Printf.sprintf ",\"hash\":\"%s\"" e.instance_hash);
  Option.iter (fun k -> Buffer.add_string b (Printf.sprintf ",\"kfp\":%d" k)) e.kfp;
  Option.iter (fun j -> Buffer.add_string b (Printf.sprintf ",\"jfp\":%d" j)) e.jfp;
  Buffer.add_string b (Printf.sprintf ",\"metrics\":%s}" e.metrics_json);
  Buffer.contents b

let run_entry ?(progress = obs_progress) ?(record = fun _ -> ()) ~limits ~engines
    entry =
  let model = Registry.build_validated entry in
  (* One semantic fingerprint per instance: every record of this entry
     keys to the same ledger bucket, whatever the engine. *)
  let instance_hash = Isr_fraig.Fraig.property_hash model in
  let total = List.length engines in
  let results =
    List.mapi
      (fun i engine ->
        progress
          {
            p_bench = entry.Registry.name;
            p_engine = Engine.name engine;
            p_index = i;
            p_total = total;
          };
        let verdict, stats = Engine.run engine ~limits model in
        record
          {
            bench = entry.Registry.name;
            engine_name = Engine.name engine;
            instance_hash;
            verdict;
            stats;
          };
        { engine; verdict; stats })
      engines
  in
  {
    entry;
    pis = model.Model.num_inputs;
    ffs = model.Model.num_latches;
    results;
  }

let run_suite ?(progress = obs_progress) ?record ~limits ~engines entries =
  let n = List.length entries in
  List.mapi
    (fun i entry ->
      run_entry ~progress:(globalize ~index:i ~total:n progress) ?record ~limits
        ~engines entry)
    entries

let ok_mark entry verdict =
  match verdict with
  | Verdict.Unknown _ -> ""
  | Verdict.Proved _ -> if Registry.agrees entry `Proved then "" else "!"
  | Verdict.Falsified { depth; _ } ->
    if Registry.agrees entry (`Falsified depth) then "" else "!"

let time_cell verdict stats =
  match verdict with
  | Verdict.Unknown _ -> Printf.sprintf "ovf(%d)" (Verdict.last_bound stats)
  | _ -> Printf.sprintf "%.2f" (Verdict.time stats)

let kfp_cell = function
  | Verdict.Proved { kfp; _ } -> string_of_int kfp
  | Verdict.Falsified { depth; _ } -> string_of_int depth
  | Verdict.Unknown _ -> "-"

let jfp_cell = function
  | Verdict.Proved { jfp; _ } -> string_of_int jfp
  | Verdict.Falsified _ -> "0"
  | Verdict.Unknown _ -> "-"
