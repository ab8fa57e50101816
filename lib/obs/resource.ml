(* GC/memory accounting: samples [Gc.quick_stat] into the attached
   run's metrics registry so memory joins time as a first-class signal.
   Attachment is a stack — a portfolio member's run nests inside the
   portfolio's — and samples always land in the innermost registry.
   The stack is domain-local: each racing domain attaches its own run's
   registry and samples its own GC counters, so parallel members never
   write into each other's books.  Samples are taken at attach and
   detach; the heartbeat reporter calls [sample] on its own cadence.
   Spans never sample, so tracing a run leaves its [gc.*] gauges as
   they are. *)

module M = Metrics

type handles = {
  reg : M.t;
  g_heap : M.gauge;        (* current major-heap words *)
  g_peak : M.gauge;        (* max heap words seen at any sample *)
  c_minor_words : M.counter;
  c_minor : M.counter;     (* minor collections *)
  c_major : M.counter;     (* major collections *)
  g_rate : M.gauge;        (* minor allocation rate, words/s since attach *)
  g_dropped : M.gauge;     (* unconsumed Event emissions + flight-ring evictions *)
  clock : unit -> float;
  t0 : float;
  base_minor_words : float;
  mutable last_minor_words : float;
  mutable last_minor : int;
  mutable last_major : int;
}

let attached_stack : handles list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let attached () = Domain.DLS.get attached_stack <> []

(* [Gc.quick_stat] only accounts minor words up to the last minor
   collection; [Gc.minor_words] also counts the live arena, which is
   what a between-collections sample needs. *)
let minor_words () = Gc.minor_words ()

let mk ?(clock = Clock.now) reg =
  let s = Gc.quick_stat () in
  let mw = minor_words () in
  {
    reg;
    g_heap = M.gauge reg "gc.heap_words";
    g_peak = M.gauge reg "gc.peak_heap_words";
    c_minor_words = M.counter reg "gc.minor_words";
    c_minor = M.counter reg "gc.minor_collections";
    c_major = M.counter reg "gc.major_collections";
    g_rate = M.gauge reg "gc.minor_alloc_rate";
    g_dropped = M.gauge reg "obs.dropped";
    clock;
    t0 = clock ();
    base_minor_words = mw;
    last_minor_words = mw;
    last_minor = s.Gc.minor_collections;
    last_major = s.Gc.major_collections;
  }

let sample_into h =
  let s = Gc.quick_stat () in
  let heap = float_of_int s.Gc.heap_words in
  M.set h.g_heap heap;
  M.set_max h.g_peak heap;
  let mw = minor_words () in
  let dw = mw -. h.last_minor_words in
  if dw > 0.0 then M.add h.c_minor_words (int_of_float dw);
  h.last_minor_words <- mw;
  let dmin = s.Gc.minor_collections - h.last_minor in
  if dmin > 0 then M.add h.c_minor dmin;
  h.last_minor <- s.Gc.minor_collections;
  let dmaj = s.Gc.major_collections - h.last_major in
  if dmaj > 0 then M.add h.c_major dmaj;
  h.last_major <- s.Gc.major_collections;
  let dt = h.clock () -. h.t0 in
  if dt > 0.0 then M.set h.g_rate ((mw -. h.base_minor_words) /. dt);
  (* Observability's own loss accounting: emissions nobody consumed plus
     flight-ring wrap-around evictions, so silence is always visible.
     These are process-wide totals; [set_max] keeps merges sane. *)
  M.set_max h.g_dropped (float_of_int (Event.dropped () + Flight.evicted ()))

let sample () =
  match Domain.DLS.get attached_stack with [] -> () | h :: _ -> sample_into h

let attach ?clock reg =
  Domain.DLS.set attached_stack (mk ?clock reg :: Domain.DLS.get attached_stack);
  sample ()

let detach () =
  match Domain.DLS.get attached_stack with
  | [] -> ()
  | h :: rest ->
    sample_into h;
    Domain.DLS.set attached_stack rest

let with_attached ?clock reg f =
  attach ?clock reg;
  Fun.protect ~finally:detach f
