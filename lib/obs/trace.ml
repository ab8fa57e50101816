type args = Event.args

type event = Event.span =
  | Begin of { name : string; ts : float; tid : int; args : args }
  | End of { ts : float; tid : int; args : args }

let enabled = Event.spans_enabled

let tid () = (Domain.self () :> int)

let span ?(args = []) ?end_args name f =
  if not (Event.spans_enabled ()) then f ()
  else begin
    Event.emit_span (Begin { name; ts = Clock.now (); tid = tid (); args });
    let finish args = Event.emit_span (End { ts = Clock.now (); tid = tid (); args }) in
    match f () with
    | v ->
      finish (match end_args with None -> [] | Some g -> g ());
      v
    | exception e ->
      finish [ ("exception", Printexc.exn_slot_name e) ];
      raise e
  end

let sink : Event.consumer option ref = ref None

let set_sink c =
  Event.subscribe c;
  sink := Some c

let clear_sink () =
  Option.iter Event.unsubscribe !sink;
  sink := None
