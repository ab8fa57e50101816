(* The Chrome trace-event writer; see the .mli for the wire rules. *)

let escape = Json.escape_to

let add_args b args =
  if args <> [] then begin
    Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        escape b k;
        Buffer.add_string b "\":\"";
        escape b v;
        Buffer.add_char b '"')
      args;
    Buffer.add_char b '}'
  end

let add_event b ~ph ?name ~tid ~ts args =
  Buffer.add_string b "{\"ph\":\"";
  Buffer.add_string b ph;
  Buffer.add_string b "\",\"pid\":1,\"tid\":";
  Buffer.add_string b (string_of_int (tid + 1));
  Buffer.add_string b ",\"ts\":";
  Buffer.add_string b (Printf.sprintf "%.1f" (ts *. 1e6));
  (match name with
  | Some n ->
    Buffer.add_string b ",\"name\":\"";
    escape b n;
    Buffer.add_char b '"'
  | None -> ());
  add_args b args;
  (* Instant events need a scope for Perfetto to render them. *)
  if ph = "i" then Buffer.add_string b ",\"s\":\"t\"";
  Buffer.add_char b '}'

let record_name : Event.kind -> string = function
  | Restart _ -> "restart"
  | Reduce _ -> "db.reduce"
  | Itp_cut { cut; _ } -> Printf.sprintf "itp.cut %d" cut
  | Phase { phase; step; _ } ->
    if step >= 0 then Printf.sprintf "%s %d" phase step else phase
  | Spawn { worker; _ } -> Printf.sprintf "spawn w%d" worker
  | Dispatch { worker; bound } -> Printf.sprintf "w%d: bound %d" worker bound
  | Cancel { worker; cause; _ } ->
    Printf.sprintf "cancel w%d (%s)" worker (Event.cause_name cause)
  | Verdict { worker; verdict } -> Printf.sprintf "w%d wins: %s" worker verdict
  | Analyze { pass; ands_before; ands_after; _ } ->
    Printf.sprintf "analyze.%s %d->%d" pass ands_before ands_after
  | Step { lane; engine; pos; _ } -> Printf.sprintf "step L%d %s @%d" lane engine pos

(* Each post renders into the buffer and hands it to the channel, whose
   own buffer batches the writes; the lock makes one record one
   uninterrupted run of bytes. *)
let writer oc =
  let b = Buffer.create 256 in
  let lock = Mutex.create () in
  let first = ref true and closed = ref false in
  let post render =
    Mutex.protect lock (fun () ->
        if not !closed then begin
          Buffer.add_string b (if !first then "[\n" else ",\n");
          first := false;
          render b;
          Buffer.output_buffer oc b;
          Buffer.clear b
        end)
  in
  let on_span (s : Event.span) =
    post (fun b ->
        match s with
        | Begin { name; ts; tid; args } -> add_event b ~ph:"B" ~name ~tid ~ts args
        | End { ts; tid; args } -> add_event b ~ph:"E" ~tid ~ts args)
  in
  let on_record ~ts ~dom kind =
    post (fun b ->
        add_event b ~ph:"i" ~name:(record_name kind) ~tid:dom ~ts
          [ ("json", Event.json_of_kind kind) ])
  in
  let close () =
    Mutex.protect lock (fun () ->
        if not !closed then begin
          closed := true;
          output_string oc (if !first then "[\n]\n" else "\n]\n");
          close_out oc
        end)
  in
  ({ Event.on_span = Some on_span; on_record = Some on_record }, close)
