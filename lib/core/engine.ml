
type t =
  | Bmc_only of Bmc.check
  | Itp
  | Itpseq of Bmc.check
  | Sitpseq of float * Bmc.check
  | Itpseq_cba of float * Bmc.check
  | Itpseq_pba of float * Bmc.check
  | Kind
  | Pdr
  | Portfolio

let name = function
  | Bmc_only c -> Printf.sprintf "bmc-%s" (Bmc.check_name c)
  | Itp -> "itp"
  | Itpseq c -> Printf.sprintf "itpseq-%s" (Bmc.check_name c)
  | Sitpseq (a, c) -> Printf.sprintf "sitpseq%.2g-%s" a (Bmc.check_name c)
  | Itpseq_cba (a, c) -> Printf.sprintf "itpseqcba%.2g-%s" a (Bmc.check_name c)
  | Itpseq_pba (a, c) -> Printf.sprintf "itpseqpba%.2g-%s" a (Bmc.check_name c)
  | Kind -> "kind"
  | Pdr -> "pdr"
  | Portfolio -> "portfolio"

(* A parameterized tail "<alpha>[-<check>]", as [name] prints it — so
   every [name] spelling round-trips through [of_name]. *)
let parse_param ~default_check rest mk =
  let alpha_s, check_s =
    match String.index_opt rest '-' with
    | Some i ->
      (String.sub rest 0 i, Some (String.sub rest (i + 1) (String.length rest - i - 1)))
    | None -> (rest, None)
  in
  match float_of_string_opt alpha_s with
  | Some a when a >= 0.0 && a <= 1.0 -> (
    match check_s with
    | None -> Some (mk a default_check)
    | Some "assume" -> Some (mk a Bmc.Assume)
    | Some "exact" -> Some (mk a Bmc.Exact)
    | Some _ -> None)
  | _ -> None

let of_name s =
  let param prefix ~default_check mk =
    let np = String.length prefix in
    if String.length s > np && String.sub s 0 np = prefix then
      parse_param ~default_check (String.sub s np (String.length s - np)) mk
    else None
  in
  match s with
  | "bmc" | "bmc-assume" -> Ok (Bmc_only Bmc.Assume)
  | "bmc-exact" -> Ok (Bmc_only Bmc.Exact)
  | "bmc-bound" -> Ok (Bmc_only Bmc.Bound)
  | "itp" -> Ok Itp
  | "itpseq" | "itpseq-assume" -> Ok (Itpseq Bmc.Assume)
  | "itpseq-exact" -> Ok (Itpseq Bmc.Exact)
  | "sitpseq" | "sitpseq-assume" -> Ok (Sitpseq (0.5, Bmc.Assume))
  | "sitpseq-exact" -> Ok (Sitpseq (0.5, Bmc.Exact))
  | "itpseqcba" -> Ok (Itpseq_cba (0.5, Bmc.Exact))
  | "itpseqcba-assume" -> Ok (Itpseq_cba (0.5, Bmc.Assume))
  | "itpseqcba-exact" -> Ok (Itpseq_cba (0.5, Bmc.Exact))
  | "itpseqpba" -> Ok (Itpseq_pba (0.0, Bmc.Exact))
  | "itpseqpba-assume" -> Ok (Itpseq_pba (0.0, Bmc.Assume))
  | "itpseqpba-exact" -> Ok (Itpseq_pba (0.0, Bmc.Exact))
  | "kind" -> Ok Kind
  | "pdr" -> Ok Pdr
  | "portfolio" -> Ok Portfolio
  | s -> (
    let parsed =
      match param "sitpseq" ~default_check:Bmc.Assume (fun a c -> Sitpseq (a, c)) with
      | Some _ as r -> r
      | None -> (
        match
          param "itpseqcba" ~default_check:Bmc.Exact (fun a c -> Itpseq_cba (a, c))
        with
        | Some _ as r -> r
        | None ->
          param "itpseqpba" ~default_check:Bmc.Exact (fun a c -> Itpseq_pba (a, c)))
    in
    match parsed with
    | Some e -> Ok e
    | None ->
      Error
        (Printf.sprintf
           "unknown engine %S (expected bmc[-exact|-bound], itp, itpseq[-exact], \
            sitpseq[<alpha>][-exact], itpseqcba[<alpha>][-assume|-exact], \
            itpseqpba[<alpha>][-assume|-exact], kind, pdr, portfolio)"
           s))

let all =
  [ Itp; Itpseq Bmc.Assume; Sitpseq (0.5, Bmc.Assume); Itpseq_cba (0.5, Bmc.Exact) ]

let stepper = function
  | Bmc_only check -> Some (Bmc.stepper ~check ())
  | Itp -> Some (Itp_verif.stepper ())
  | Itpseq check -> Some (Itpseq_verif.stepper ~mode:Seq_family.Parallel ~check ())
  | Sitpseq (alpha, check) ->
    Some (Itpseq_verif.stepper ~mode:(Seq_family.Serial alpha) ~check ())
  | Itpseq_cba (alpha, check) ->
    Some (Itpseq_verif.stepper ~check ~abstraction:(Itpseq_verif.Cba alpha) ())
  | Itpseq_pba (alpha, check) ->
    Some (Itpseq_verif.stepper ~check ~abstraction:(Itpseq_verif.Pba alpha) ())
  | Kind -> Some (Kind.stepper ())
  | Pdr -> Some (Pdr.stepper ())
  | Portfolio -> None

let run engine ?limits model =
  (* The root span of a run: everything an engine does — bound checks,
     interpolant extraction, SAT calls — nests below it. *)
  Isr_obs.Trace.span "engine"
    ~args:[ ("engine", name engine); ("model", model.Isr_model.Model.name) ]
  @@ fun () ->
  match engine with
  (* The incremental BMC solver is a portfolio-member tuning knob, not a
     default; plain deepening keeps the historical [run] behavior. *)
  | Bmc_only check -> Step.drive (Step.start ?limits (Bmc.stepper ~check ()) model)
  | Portfolio -> Portfolio.verify ?limits model
  | engine -> (
    match stepper engine with
    | Some p -> Step.drive (Step.start ?limits p model)
    | None -> assert false)

let verify_both ?limits model =
  List.map (fun e -> (e, fst (run e ?limits model))) all
