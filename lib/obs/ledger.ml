let schema_version = 1

type entry = {
  id : string;
  time : string;
  instance : string;
  instance_hash : string;
  engine : string;
  config : string;
  verdict : string;
  kfp : int option;
  jfp : int option;
  wall_s : float;
  conflicts : int;
  sat_calls : int;
  itp_nodes : int;
  metrics_json : string;
  events_path : string option;
  profile_path : string option;
}

type t = { root : string }

let ledger_file t = Filename.concat t.root "ledger.jsonl"
let events_dir t = Filename.concat t.root "events"
let dir t = t.root

(* Surface directory-creation failures as [Sys_error], like every other
   file operation callers already guard against (unwritable paths must
   be a one-line exit, not a backtrace). *)
let mkdir_p path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if parent <> path && not (Sys.file_exists parent) then begin
      let rec up p =
        if p <> Filename.dirname p && not (Sys.file_exists p) then begin
          up (Filename.dirname p);
          try Unix.mkdir p 0o755 with
          | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
          | Unix.Unix_error (e, _, _) ->
            raise (Sys_error (p ^ ": " ^ Unix.error_message e))
        end
      in
      up parent
    end;
    try Unix.mkdir path 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  end

let open_ root =
  let t = { root } in
  mkdir_p root;
  mkdir_p (events_dir t);
  t

let open_existing root =
  if Sys.file_exists root && Sys.is_directory root then { root }
  else raise (Sys_error (root ^ ": no such ledger directory"))

let fingerprint kvs =
  List.sort (fun (a, _) (b, _) -> compare a b) kvs
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat " "

let resolve t path =
  if Filename.is_relative path then Filename.concat t.root path else path

(* --- JSON ---------------------------------------------------------------- *)

let json_of_entry e =
  let b = Buffer.create 256 in
  let str k v =
    Buffer.add_string b (Printf.sprintf "\"%s\":%s," k (Json.quote v))
  in
  let int k v = Buffer.add_string b (Printf.sprintf "\"%s\":%d," k v) in
  Buffer.add_char b '{';
  str "id" e.id;
  str "time" e.time;
  str "instance" e.instance;
  if e.instance_hash <> "" then str "hash" e.instance_hash;
  str "engine" e.engine;
  if e.config <> "" then str "config" e.config;
  str "verdict" e.verdict;
  (match e.kfp with Some k -> int "kfp" k | None -> ());
  (match e.jfp with Some j -> int "jfp" j | None -> ());
  Buffer.add_string b (Printf.sprintf "\"wall_s\":%s," (Json.float_ e.wall_s));
  int "conflicts" e.conflicts;
  int "sat_calls" e.sat_calls;
  int "itp_nodes" e.itp_nodes;
  (match e.events_path with Some p -> str "events" p | None -> ());
  (match e.profile_path with Some p -> str "profile" p | None -> ());
  if e.metrics_json <> "" then
    (* Already a JSON document: embedded verbatim, not re-quoted. *)
    Buffer.add_string b (Printf.sprintf "\"metrics\":%s," e.metrics_json);
  (* Drop the trailing comma. *)
  Buffer.truncate b (Buffer.length b - 1);
  Buffer.add_char b '}';
  Buffer.contents b

let entry_of_json j =
  match (Json.field "id" j, Json.field "instance" j) with
  | Some (Json.Str id), Some (Json.Str instance) ->
    let ostr name = Option.value ~default:"" (Json.opt_str_field name j) in
    let onum name =
      match Json.field name j with Some (Json.Num f) -> int_of_float f | _ -> 0
    in
    Some
      {
        id;
        time = ostr "time";
        instance;
        instance_hash = ostr "hash";
        engine = ostr "engine";
        config = ostr "config";
        verdict = ostr "verdict";
        kfp = Json.opt_int_field "kfp" j;
        jfp = Json.opt_int_field "jfp" j;
        wall_s = (match Json.field "wall_s" j with Some (Json.Num f) -> f | _ -> 0.0);
        conflicts = onum "conflicts";
        sat_calls = onum "sat_calls";
        itp_nodes = onum "itp_nodes";
        metrics_json =
          (match Json.field "metrics" j with
          | Some m -> Json.render m
          | None -> "");
        events_path = Json.opt_str_field "events" j;
        profile_path = Json.opt_str_field "profile" j;
      }
  | _ -> None

(* --- persistence ----------------------------------------------------------- *)

let count_lines path =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = ref 0 in
        (try
           while true do
             ignore (input_line ic);
             incr n
           done
         with End_of_file -> ());
        !n)
  end

let utc_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* A crash can leave the file without its final newline; appending right
   after such a torn tail would weld two records into one unparsable
   line, losing both. *)
let ends_with_newline path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      if len = 0 then true
      else begin
        seek_in ic (len - 1);
        input_char ic = '\n'
      end)

let append t entry =
  let file = ledger_file t in
  let fresh = not (Sys.file_exists file) in
  let n = count_lines file in
  (* The header occupies line 1, so entry ids start at the line count. *)
  let id = Printf.sprintf "r%04d" (if fresh then 1 else max 1 n) in
  let entry =
    { entry with id; time = (if entry.time = "" then utc_now () else entry.time) }
  in
  let repair = (not fresh) && not (ends_with_newline file) in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if fresh then
        output_string oc
          (Printf.sprintf "{\"store\":\"isr-ledger\",\"schema\":%d}\n" schema_version);
      if repair then output_char oc '\n';
      output_string oc (json_of_entry entry);
      output_char oc '\n');
  entry

let load t =
  let file = ledger_file t in
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let out = ref [] in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then begin
               match Json.parse line with
               | exception Json.Parse_error _ -> ()
               | j -> (
                 match Json.field "store" j with
                 | Some (Json.Str "isr-ledger") -> (
                   match Json.opt_int_field "schema" j with
                   | Some v when v = schema_version -> ()
                   | Some v ->
                     failwith
                       (Printf.sprintf
                          "Ledger.load %s: unsupported schema %d (expected %d)" file v
                          schema_version)
                   | None ->
                     failwith (Printf.sprintf "Ledger.load %s: header without a schema" file))
                 | _ -> (
                   match entry_of_json j with Some e -> out := e :: !out | None -> ()))
             end
           done
         with End_of_file -> ());
        List.rev !out)
  end

let find t id = List.find_opt (fun e -> e.id = id) (load t)
