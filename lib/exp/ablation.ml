open Isr_core
open Isr_suite

let default_check_entries () =
  List.filter_map
    (fun n -> Registry.find n)
    [ "vending11"; "prodcons8"; "coherence3"; "guidance4"; "countermod6m50"; "feistel8x8" ]

let checks ?(limits = Budget.default_limits) ?entries ?(depths = [ 5; 10; 15; 20 ])
    ~out:fmt () =
  let entries = match entries with Some e -> e | None -> default_check_entries () in
  Format.fprintf fmt
    "Ablation A1: SAT effort of the BMC formulations (safe instances, unsat at every depth)@.";
  Format.fprintf fmt "%-16s %6s | %10s %10s | %10s %10s | %10s %10s@." "instance" "k"
    "bound[s]" "confl" "exact[s]" "confl" "assume[s]" "confl";
  List.iter
    (fun entry ->
      let model = Registry.build_validated entry in
      List.iter
        (fun k ->
          let cells =
            List.map
              (fun check ->
                let budget = Budget.start limits in
                let stats = Verdict.mk_stats () in
                let t0 = Isr_obs.Clock.now () in
                match Bmc.check_depth budget stats ~proof:false model ~check ~k with
                | `Unsat _ ->
                  Printf.sprintf "%10.3f %10d"
                    (Isr_obs.Clock.now () -. t0)
                    (Verdict.conflicts stats)
                | `Sat _ -> Printf.sprintf "%10s %10s" "SAT?!" "-"
                | exception (Budget.Out_of_time | Budget.Out_of_conflicts) ->
                  Printf.sprintf "%10s %10s" "ovf" "-")
              [ Bmc.Bound; Bmc.Exact; Bmc.Assume ]
          in
          Format.fprintf fmt "%-16s %6d | %s@." entry.Registry.name k
            (String.concat " | " cells);
          Format.pp_print_flush fmt ())
        depths)
    entries

let systems ?(limits = Budget.default_limits) ?entries ~out:fmt () =
  let entries =
    match entries with
    | Some e -> e
    | None ->
      List.filter_map
        (fun n -> Registry.find n)
        [ "amba2g3"; "traffic6"; "coherence3"; "vending11"; "peterson"; "eijkring8"; "prodcons8" ]
  in
  let sys = [ Isr_itp.Itp.McMillan; Isr_itp.Itp.Pudlak; Isr_itp.Itp.McMillan_dual ] in
  Format.fprintf fmt
    "Ablation A3: labeled interpolation systems in ITPSEQ (time[s] kfp jfp itp-nodes)@.";
  Format.fprintf fmt "%-16s" "instance";
  List.iter
    (fun s -> Format.fprintf fmt " | %-24s" (Isr_itp.Itp.system_name s))
    sys;
  Format.fprintf fmt "@.";
  List.iter
    (fun entry ->
      let model = Registry.build_validated entry in
      Format.fprintf fmt "%-16s" entry.Registry.name;
      List.iter
        (fun system ->
          let verdict, stats =
            Step.drive (Step.start ~limits (Itpseq_verif.stepper ~system ()) model)
          in
          Format.fprintf fmt " | %8s %4s %3s %6d"
            (Runner.time_cell verdict stats)
            (Runner.kfp_cell verdict) (Runner.jfp_cell verdict)
            (Verdict.itp_nodes stats))
        sys;
      Format.fprintf fmt "@.";
      Format.pp_print_flush fmt ())
    entries

let default_alpha_entries () =
  List.filter_map
    (fun n -> Registry.find n)
    [ "amba2g3"; "traffic6"; "coherence3"; "vending11"; "peterson"; "eijkring8" ]

let alpha ?(limits = Budget.default_limits) ?entries
    ?(alphas = [ 0.0; 0.25; 0.5; 0.75; 1.0 ]) ~out:fmt () =
  let entries = match entries with Some e -> e | None -> default_alpha_entries () in
  Format.fprintf fmt
    "Ablation A2: serial fraction sweep for SITPSEQ (time[s] kfp jfp per alpha)@.";
  Format.fprintf fmt "%-16s" "instance";
  List.iter (fun a -> Format.fprintf fmt " | %-18s" (Printf.sprintf "alpha=%.2f" a)) alphas;
  Format.fprintf fmt "@.";
  List.iter
    (fun entry ->
      let model = Registry.build_validated entry in
      Format.fprintf fmt "%-16s" entry.Registry.name;
      List.iter
        (fun a ->
          let verdict, stats =
            Engine.run (Engine.Sitpseq (a, Bmc.Assume)) ~limits model
          in
          Format.fprintf fmt " | %8s %4s %4s"
            (Runner.time_cell verdict stats)
            (Runner.kfp_cell verdict) (Runner.jfp_cell verdict))
        alphas;
      Format.fprintf fmt "@.";
      Format.pp_print_flush fmt ())
    entries
