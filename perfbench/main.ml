(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
       runs one workload and prints its report; the last line of
       standard output is the JSON result.  --trace 0 gives the
       end-to-end metrics, --trace 1 the per-layer ones.

     main.exe --all [--seed N] [--seconds S]
       runs every workload, untraced and traced, each in a process of
       its own, and prints every metric by name with its unit.

   Exit status: 0 when every answer was correct, 1 when some answer was
   wrong, 2 on a usage error. *)

let workloads =
  [
    ("cold-large", fun ~seed:_ -> Cold_large.make ());
    ("serve-mix", fun ~seed -> Served.serve_mix ~seed);
    ("parametric", fun ~seed -> Served.parametric ~seed);
    ("dyn-edits", fun ~seed -> Dyn_edits.make ~seed);
  ]

let run_one ~name ~seed ~seconds ~traced =
  let make = List.assoc name workloads in
  let r = Harness.run ~seed ~seconds ~traced (make ~seed) in
  Printf.printf "# workload %s, seed %d, %g s measured, trace %d\n" name seed seconds
    (if traced then 1 else 0);
  List.iter (fun l -> Printf.printf "# %s\n" l) r.Harness.notes;
  print_endline (Harness.result_line r);
  exit (if r.Harness.failed = 0 then 0 else 1)

(* Runs [main.exe args] and returns its standard output lines and exit
   status. *)
let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  let status = Unix.close_process_in ic in
  (out, status = Unix.WEXITED 0)

let run_all ~seed ~seconds =
  let all_ok = ref true in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun trace ->
          let out, ok =
            child
              [ "--workload"; name; "--seed"; string_of_int seed;
                "--seconds"; Printf.sprintf "%g" seconds; "--trace"; trace ]
          in
          if not ok then all_ok := false;
          List.iter (fun l -> if l <> "" && l.[0] = '#' then print_endline l) out;
          let last = match List.rev out with l :: _ -> l | [] -> "" in
          match Trace_read.parse_json last with
          | Ok doc -> (
            (match (Harness.field "attempted" doc, Harness.field "failed" doc) with
            | Some (Trace_read.Num a), Some (Trace_read.Num f) ->
              Printf.printf "%-12s %-30s %14g %s\n" name "failed_ratio" (Harness.ratio f a) "ratio"
            | _ -> ());
            match Harness.field "metrics" doc with
            | Some (Trace_read.Obj ms) ->
              List.iter
                (fun (metric, m) ->
                  match (Harness.field "value" m, Harness.field "unit" m) with
                  | Some (Trace_read.Num v), Some (Trace_read.Str u) ->
                    Printf.printf "%-12s %-30s %14.6g %s\n" name metric v u
                  | _ -> ())
                ms
            | _ -> ())
          | Error e ->
            all_ok := false;
            Printf.printf "%-12s no result (%s)\n" name e)
        [ "0"; "1" ];
      print_newline ())
    workloads;
  exit (if !all_ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and all = ref false in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--all", Arg.Set all, " run every workload, untraced and traced");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1  |  main.exe --all" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !all then run_all ~seed:!seed ~seconds:!seconds
  else if List.mem_assoc !workload workloads && (!trace = 0 || !trace = 1) && !seconds > 0.0 then
    run_one ~name:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
  else begin
    Arg.usage spec usage;
    exit 2
  end
