(* The repository benchmark: runs one workload per invocation.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   prints every metric by name, then one JSON result as the last line
   of standard output.  Exit code 1 when a verdict is wrong or no cell
   gave a right one, 2 on a usage error.  See perfbench/README.md. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME table1 | frontier | industrial | portfolio");
      ("--seed", Arg.Set_int seed, "N the cell order; default 1");
      ("--seconds", Arg.Set_float seconds, "S how long to keep sampling; default 20");
      ("--trace", Arg.Set_int trace, "0|1 1 splits time into layers; default 0");
    ]
  in
  let usage = "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match Workload.find !workload with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ Filename.quote !workload);
    prerr_endline usage;
    exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  | Some w ->
    let r = Harness.run ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) w in
    if r.cells = [||] then begin
      prerr_endline "perfbench: no cell gave a right verdict";
      exit 1
    end;
    Report.print ~workload:w.name ~seed:!seed r;
    if r.wrong > 0 then exit 1
