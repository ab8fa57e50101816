open Isr_model

type status = Running | Done of (Verdict.t * Verdict.stats)

type run = {
  model : Model.t;
  limits : Budget.limits;
  budget : Budget.t;
  stats : Verdict.stats;
}

type 'st engine = {
  name : string;
  init : run -> 'st;
  step : 'st -> Verdict.t option;
  at_end : 'st -> unit;
  bound : 'st -> int;
  snapshot : 'st -> string;
  restore : run -> string -> 'st;
}

type packed = Packed : 'st engine -> packed

let cex_depth model ~k trace = Option.value ~default:k (Sim.first_bad model trace)

type inst =
  | Inst : {
      eng : 'st engine;
      run : run;
      mutable st : 'st;
      mutable steps : int;
      mutable last : status;
      lane : int;
      prior : float;  (* wall seconds of the sessions before a restore *)
    }
      -> inst

let new_run ?cancel limits model =
  { model; limits; budget = Budget.start ?cancel limits; stats = Verdict.mk_stats () }

let start ?(lane = 0) ?(limits = Budget.default_limits) ?cancel (Packed eng) model =
  let run = new_run ?cancel limits model in
  Inst { eng; run; st = eng.init run; steps = 0; last = Running; lane; prior = 0.0 }

let name (Inst i) = i.eng.name
let lane (Inst i) = i.lane
let steps_done (Inst i) = i.steps
let bound (Inst i) = i.eng.bound i.st
let stats (Inst i) = i.run.stats
let status (Inst i) = i.last

let status_tag = function
  | Running -> "running"
  | Done (Verdict.Proved _, _) -> "proved"
  | Done (Verdict.Falsified _, _) -> "falsified"
  | Done (Verdict.Unknown _, _) -> "unknown"

(* One step under the run's bound cap and budget: a bound past the cap
   answers without stepping, and budget exhaustion ends the run;
   [Budget.Cancelled] propagates to the parallel runner. *)
let advance eng run st =
  let cap = run.limits.Budget.bound_limit in
  if eng.bound st > cap then Some (Verdict.Unknown (Verdict.Bound_limit cap))
  else
    try eng.step st with
    | Budget.Out_of_time -> Some (Verdict.Unknown Verdict.Time_limit)
    | Budget.Out_of_conflicts -> Some (Verdict.Unknown Verdict.Conflict_limit)

let step (Inst i) =
  match i.last with
  | Done _ as d -> d
  | Running ->
    let status =
      match advance i.eng i.run i.st with
      | None -> Running
      | Some v ->
        Verdict.set_time i.run.stats (Budget.elapsed i.run.budget);
        i.eng.at_end i.st;
        Done (v, i.run.stats)
    in
    i.steps <- i.steps + 1;
    i.last <- status;
    if Isr_obs.Event.enabled () then
      Isr_obs.Event.emit
        (Isr_obs.Event.Step
           {
             lane = i.lane;
             engine = i.eng.name;
             n = i.steps;
             pos = i.eng.bound i.st;
             status = status_tag status;
           });
    status

(* --- checkpoint / resume ------------------------------------------------ *)

let snapshot (Inst i) =
  Checkpoint.make ~engine:i.eng.name ~model:i.run.model ~steps:i.steps
    ~bound:(i.eng.bound i.st)
    ~elapsed:(i.prior +. Budget.elapsed i.run.budget)
    ~payload:(i.eng.snapshot i.st)

let restore ?(lane = 0) ?(limits = Budget.default_limits) ?cancel (Packed eng) model
    (ck : Checkpoint.t) =
  if not (String.equal ck.Checkpoint.engine eng.name) then
    invalid_arg
      (Printf.sprintf "Step.restore: checkpoint is for engine %S, not %S"
         ck.Checkpoint.engine eng.name);
  (match Checkpoint.check_model ck model with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Step.restore: " ^ msg));
  let run = new_run ?cancel limits model in
  Inst
    {
      eng;
      run;
      st = eng.restore run ck.Checkpoint.payload;
      steps = ck.Checkpoint.steps;
      last = Running;
      lane;
      prior = ck.Checkpoint.elapsed;
    }

(* --- driving ------------------------------------------------------------ *)

let ckpt_flag = Atomic.make false
let request_checkpoint () = Atomic.set ckpt_flag true
let checkpoint_requested () = Atomic.get ckpt_flag

(* The SIGTERM safe-point: engine states are consistent at any moment
   (snapshot fields only change between solver calls), so the unwind can
   snapshot directly, dump the flight ring next to it, and leave with
   the conventional SIGTERM status. *)
(* An unwritable checkpoint path is a usage error (exit 2, one line),
   not a crash — matching every other IO surface of the CLI. *)
let write_or_die path ck =
  try Checkpoint.write path ck
  with Sys_error msg ->
    Printf.eprintf "isr: checkpoint write failed: %s\n%!" msg;
    exit 2

let interrupt_exit inst path =
  write_or_die path (snapshot inst);
  ignore (Isr_obs.Flight.dump ~reason:"sigterm" ());
  Printf.eprintf "isr: checkpoint written to %s (sigterm)\n%!" path;
  exit 143

let drive ?checkpoint inst =
  Isr_obs.Resource.with_attached (Verdict.registry (stats inst)) @@ fun () ->
  let rec loop () =
    (match checkpoint with
    | Some path when Atomic.get ckpt_flag -> interrupt_exit inst path
    | _ -> ());
    match step inst with
    | Running -> loop ()
    | Done (v, s) ->
      (match (v, checkpoint) with
      | Verdict.Unknown _, Some path -> write_or_die path (snapshot inst)
      | _ -> ());
      (v, s)
  in
  match loop () with
  | r -> r
  | exception Budget.Cancelled when checkpoint <> None && Atomic.get ckpt_flag ->
    (* The cancel token doubled as the prompt-interrupt channel for an
       in-flight SAT call; a genuine race cancellation (no checkpoint
       request) still propagates. *)
    interrupt_exit inst (Option.get checkpoint)
