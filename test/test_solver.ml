let test_acyclic_returns_none () =
  let g = Digraph.of_weighted_arcs 3 [ (0, 1, 5); (1, 2, 5) ] in
  Alcotest.(check bool) "None on DAG" true (Solver.minimum_cycle_mean g = None);
  Alcotest.(check bool) "None on arcless" true
    (Solver.minimum_cycle_mean (Digraph.of_arcs 4 []) = None);
  Alcotest.(check bool) "None on empty" true
    (Solver.minimum_cycle_mean (Digraph.of_arcs 0 []) = None)

let test_multiple_components () =
  (* two cyclic components with different means, joined one-way, plus an
     acyclic tail *)
  let g =
    Digraph.of_weighted_arcs 6
      [
        (0, 1, 10); (1, 0, 10);   (* mean 10 *)
        (1, 2, 1);
        (2, 3, 2); (3, 2, 4);     (* mean 3 *)
        (3, 4, 99); (4, 5, 99);   (* tail *)
      ]
  in
  let r = Solver.minimum_cycle_mean g |> Option.get in
  Helpers.check_ratio "global minimum across components" (Helpers.r 3 1)
    r.Solver.lambda;
  Alcotest.(check int) "two cyclic components" 2 r.Solver.components;
  Alcotest.(check bool) "witness in the right component" true
    (Digraph.is_cycle g r.Solver.cycle);
  Helpers.check_ratio "witness mean" (Helpers.r 3 1)
    (Critical.ratio_of_cycle g ~den:(fun _ -> 1) r.Solver.cycle)

let test_cycle_ids_map_back () =
  (* the witness must use the ORIGINAL graph's arc ids even though the
     algorithm ran on a renumbered SCC *)
  let g =
    Digraph.of_weighted_arcs 4
      [ (0, 1, 1); (2, 3, 5); (3, 2, 7) ]
  in
  let r = Solver.minimum_cycle_mean g |> Option.get in
  Alcotest.(check (list int)) "arc ids from the input graph" [ 1; 2 ]
    (List.sort compare r.Solver.cycle)

let test_maximize () =
  let g = Families.two_cycles ~len1:2 ~w1:9 ~len2:3 ~w2:1 in
  let mx = Solver.maximum_cycle_mean g |> Option.get in
  Helpers.check_ratio "max mean" (Helpers.r 9 1) mx.Solver.lambda;
  let mn = Solver.minimum_cycle_mean g |> Option.get in
  Helpers.check_ratio "min mean" (Helpers.r 1 1) mn.Solver.lambda

let test_ratio_problem () =
  let g = Digraph.of_arcs 2 [ (0, 1, 6, 2); (1, 0, 2, 2); (0, 0, 30, 3) ] in
  let mn = Solver.minimum_cycle_ratio g |> Option.get in
  Helpers.check_ratio "min ratio" (Helpers.r 2 1) mn.Solver.lambda;
  let mx = Solver.maximum_cycle_ratio g |> Option.get in
  Helpers.check_ratio "max ratio" (Helpers.r 10 1) mx.Solver.lambda

let test_zero_transit_cycle_rejected () =
  let g = Digraph.of_arcs 2 [ (0, 1, 1, 0); (1, 0, 1, 0) ] in
  Alcotest.check_raises "ill-posed"
    (Invalid_argument
       "Solver: cycle with zero total transit time (cost-to-time ratio \
        undefined)") (fun () -> ignore (Solver.minimum_cycle_ratio g))

let test_zero_transit_arc_ok_if_no_zero_cycle () =
  (* individual zero-transit arcs are fine as long as every cycle has
     positive total transit (native ratio algorithms only) *)
  let g = Digraph.of_arcs 2 [ (0, 1, 3, 0); (1, 0, 5, 2) ] in
  let r =
    Solver.solve ~problem:Solver.Cycle_ratio ~algorithm:Registry.Howard g
    |> Option.get
  in
  Helpers.check_ratio "ratio 8/2" (Helpers.r 4 1) r.Solver.lambda

let test_stats_accumulate () =
  let g =
    Digraph.of_weighted_arcs 4 [ (0, 1, 1); (1, 0, 2); (2, 3, 3); (3, 2, 4) ]
  in
  let r =
    Solver.solve ~algorithm:Registry.Howard g |> Option.get
  in
  Alcotest.(check bool) "iterations from both components" true
    (r.Solver.stats.Stats.iterations >= 2)

let all_algorithms_on_general_graphs =
  List.map
    (fun alg ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf "solver(%s) = oracle on arbitrary graphs"
             (Registry.name alg))
        ~count:100
        (Helpers.arb_any_graph ~max_n:8 ~max_m:18 ())
        (fun g ->
          match (Solver.solve ~algorithm:alg g, Helpers.oracle_mean Oracle.Minimize g) with
          | None, None -> true
          | Some r, Some opt ->
            Ratio.equal r.Solver.lambda opt
            && Digraph.is_cycle g r.Solver.cycle
          | _ -> false))
    Registry.all

let qcheck_max_is_negated_min =
  QCheck.Test.make ~name:"solver: maximize = -minimize(negated)" ~count:150
    (Helpers.arb_any_graph ~max_n:8 ~max_m:18 ())
    (fun g ->
      let mx = Solver.maximum_cycle_mean g in
      let mn = Solver.minimum_cycle_mean (Digraph.negate_weights g) in
      match (mx, mn) with
      | None, None -> true
      | Some a, Some b -> Ratio.equal a.Solver.lambda (Ratio.neg b.Solver.lambda)
      | _ -> false)

let qcheck_ratio_solver_vs_oracle =
  QCheck.Test.make ~name:"solver: ratio problem = oracle" ~count:100
    (Helpers.arb_any_graph ~max_n:7 ~max_m:14 ~tmax:3 ())
    (fun g ->
      match
        (Solver.minimum_cycle_ratio g, Helpers.oracle_ratio Oracle.Minimize g)
      with
      | None, None -> true
      | Some r, Some opt -> Ratio.equal r.Solver.lambda opt
      | _ -> false)

let suite =
  [
    Alcotest.test_case "acyclic returns None" `Quick test_acyclic_returns_none;
    Alcotest.test_case "multiple components" `Quick test_multiple_components;
    Alcotest.test_case "cycle ids map back" `Quick test_cycle_ids_map_back;
    Alcotest.test_case "maximize" `Quick test_maximize;
    Alcotest.test_case "ratio problem" `Quick test_ratio_problem;
    Alcotest.test_case "zero-transit cycle rejected" `Quick
      test_zero_transit_cycle_rejected;
    Alcotest.test_case "zero-transit arc tolerated" `Quick
      test_zero_transit_arc_ok_if_no_zero_cycle;
    Alcotest.test_case "stats accumulate across components" `Quick
      test_stats_accumulate;
  ]
  @ Helpers.qtests
      (all_algorithms_on_general_graphs
      @ [ qcheck_max_is_negated_min; qcheck_ratio_solver_vs_oracle ])

let test_overflow_guard () =
  (* weights far beyond the exact-arithmetic envelope are refused
     up front instead of silently overflowing *)
  let huge = max_int / 4 in
  let g = Digraph.of_weighted_arcs 2 [ (0, 1, huge); (1, 0, huge) ] in
  Alcotest.(check bool) "guard fires" true
    (match Solver.minimum_cycle_mean g with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* paper-scale weights at a realistic size pass *)
  let g = Sprand.generate ~seed:1 ~n:64 ~m:128 () in
  Alcotest.(check bool) "normal weights fine" true
    (Solver.minimum_cycle_mean g <> None)

(* A graph that is one SCC is solved in place, and its answer equals
   the one computed on the partition copy; a one-node graph without a
   self-loop is one acyclic SCC and stays unsolved. *)
let test_single_scc_identity () =
  let g = Sprand.generate ~seed:4 ~n:200 ~m:600 ~transits:(1, 20) () in
  (match Solver.cyclic_components g with
  | [| sp |] ->
    Alcotest.(check bool) "the graph itself" true (sp.Scc.sub == g);
    Alcotest.(check bool) "identity arc map" true
      (Array.for_all2 ( = ) sp.Scc.arc_of_sub (Array.init (Digraph.m g) Fun.id))
  | subs -> Alcotest.failf "%d subproblems" (Array.length subs));
  let copy =
    match Scc.partition g (Scc.compute g) with
    | [| sp |] -> sp.Scc.sub
    | _ -> Alcotest.fail "one component expected"
  in
  Alcotest.(check bool) "partition copies" true (copy != g);
  List.iter
    (fun (name, problem) ->
      let st = Stats.create () in
      let l, c =
        match problem with
        | Solver.Cycle_mean -> Howard.minimum_cycle_mean ~stats:st copy
        | Solver.Cycle_ratio -> Howard.minimum_cycle_ratio ~stats:st copy
      in
      let r = Option.get (Solver.solve ~problem ~algorithm:Registry.Howard g) in
      Helpers.check_ratio (name ^ ": lambda") l r.Solver.lambda;
      Alcotest.(check (list int)) (name ^ ": witness") c r.Solver.cycle;
      Alcotest.(check bool) (name ^ ": stats") true (st = r.Solver.stats))
    [ ("mean", Solver.Cycle_mean); ("ratio", Solver.Cycle_ratio) ];
  Alcotest.(check int) "lone node" 0
    (Array.length (Solver.cyclic_components (Digraph.of_arcs 1 [])))

let suite =
  suite @ [ Alcotest.test_case "overflow guard" `Quick test_overflow_guard ]

(* ------------------------------------------------------------------ *)
(* Parallel per-SCC solving: same answer for every job count.          *)
(* ------------------------------------------------------------------ *)

let same_report (a : Solver.report) (b : Solver.report) =
  Ratio.equal a.Solver.lambda b.Solver.lambda
  && a.Solver.cycle = b.Solver.cycle
  && a.Solver.components = b.Solver.components
  && a.Solver.stats = b.Solver.stats

let qcheck_parallel_determinism =
  QCheck.Test.make
    ~name:"solver: every job count gives a bit-identical report" ~count:25
    (Helpers.arb_any_graph ~max_n:14 ~max_m:35 ())
    (fun g ->
      let base = Solver.solve ~jobs:1 ~algorithm:Registry.Howard g in
      List.for_all
        (fun jobs ->
          match (base, Solver.solve ~jobs ~algorithm:Registry.Howard g) with
          | None, None -> true
          | Some a, Some b -> same_report a b
          | _ -> false)
        Helpers.jobs_sweep)

let test_many_scc_parallel_identical () =
  let g = Families.many_scc ~seed:7 ~components:12 ~size:10 () in
  let base = Solver.minimum_cycle_mean ~jobs:1 g |> Option.get in
  Alcotest.(check int) "12 cyclic components" 12 base.Solver.components;
  List.iter
    (fun jobs ->
      let r = Solver.minimum_cycle_mean ~jobs g |> Option.get in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d matches jobs=1" jobs)
        true (same_report base r))
    [ 2; 3; 8 ]

(* One giant SCC (SPRAND is strongly connected by construction): the
   per-component fan-out degenerates to a single task, so this pins the
   other level of parallelism — the chunked improvement sweep, which at
   m = 9216 >= 2 x 4096 arcs splits at the default grain
   (Executor.chunk_arcs). *)
let test_single_scc_parallel_identical () =
  let g = Sprand.generate ~seed:9 ~n:2048 ~m:9216 () in
  let base = Solver.minimum_cycle_mean ~jobs:1 g |> Option.get in
  Alcotest.(check int) "one component" 1 base.Solver.components;
  List.iter
    (fun jobs ->
      let r = Solver.minimum_cycle_mean ~jobs g |> Option.get in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d matches jobs=1" jobs)
        true (same_report base r))
    (List.filter (fun j -> j > 1) Helpers.jobs_sweep)

let test_parallel_partial_report () =
  (* 8 components need well over 4 Howard iterations in total, so the
     shared atomic budget must run out mid-fan-out; whatever partial
     report survives has to be sound *)
  let g = Families.many_scc ~seed:3 ~components:8 ~size:8 () in
  let opt = (Solver.minimum_cycle_mean g |> Option.get).Solver.lambda in
  match
    Solver.solve ~jobs:4
      ~budget:(Budget.create ~max_iterations:4 ())
      ~algorithm:Registry.Howard g
  with
  | exception Solver.Deadline_exceeded { partial } -> (
    match partial with
    | None -> ()
    | Some r ->
      Alcotest.(check bool) "witness is a cycle" true
        (Digraph.is_cycle g r.Solver.cycle);
      Helpers.check_ratio "partial lambda is its witness's mean"
        r.Solver.lambda
        (Critical.ratio_of_cycle g ~den:(fun _ -> 1) r.Solver.cycle);
      Alcotest.(check bool) "upper bound on the optimum" true
        (Ratio.leq opt r.Solver.lambda))
  | _ -> Alcotest.fail "a 4-iteration budget over 8 components must run out"

(* The Bigarray-backed solve must not let the float64 weight/transit
   mirrors or the two-level parallelism arbitration leak into results:
   on a graph from ANY generator family, both problems produce reports
   bit-identical across job counts (the ISSUE's jobs in {1, 8}
   contract, widened to the whole sweep). *)
let qcheck_all_families_jobs_bit_identical =
  QCheck.Test.make
    ~name:"solver: mean and ratio bit-identical across jobs (all families)"
    ~count:30 (Helpers.arb_family ())
    (fun g ->
      let identical problem =
        let base = Solver.solve ~problem ~jobs:1 ~algorithm:Registry.Howard g in
        List.for_all
          (fun jobs ->
            match
              (base, Solver.solve ~problem ~jobs ~algorithm:Registry.Howard g)
            with
            | None, None -> true
            | Some a, Some b -> same_report a b
            | _ -> false)
          (List.filter (fun j -> j > 1) Helpers.jobs_sweep)
      in
      identical Solver.Cycle_mean && identical Solver.Cycle_ratio)

let qcheck_parallel_determinism_ratio =
  QCheck.Test.make
    ~name:"solver: ratio problem bit-identical across job counts" ~count:25
    (Helpers.arb_any_graph ~max_n:12 ~max_m:30 ~tmax:3 ())
    (fun g ->
      let base = Solver.solve ~problem:Solver.Cycle_ratio ~jobs:1
          ~algorithm:Registry.Howard g in
      List.for_all
        (fun jobs ->
          match
            ( base,
              Solver.solve ~problem:Solver.Cycle_ratio ~jobs
                ~algorithm:Registry.Howard g )
          with
          | None, None -> true
          | Some a, Some b -> same_report a b
          | _ -> false)
        Helpers.jobs_sweep)

let suite =
  suite
  @ [
      Alcotest.test_case "many-SCC family: parallel = serial" `Quick
        test_many_scc_parallel_identical;
      Alcotest.test_case "single giant SCC: chunked sweep = serial" `Quick
        test_single_scc_parallel_identical;
      Alcotest.test_case "parallel partial report is sound" `Quick
        test_parallel_partial_report;
    ]
  @ Helpers.qtests
      [
        qcheck_parallel_determinism; qcheck_parallel_determinism_ratio;
        qcheck_all_families_jobs_bit_identical;
      ]

(* ------------------------------------------------------------------ *)
(* Solver.fan_out: the one per-SCC component loop                      *)
(* ------------------------------------------------------------------ *)

let with_pool jobs f =
  let pool = Executor.create ~jobs in
  Fun.protect ~finally:(fun () -> Executor.shutdown pool) (fun () -> f pool)

let test_fan_out_item_order () =
  (* uneven work per item, so a pool finishes them out of order *)
  let items = Array.init 24 (fun i -> (i * 7919) mod 24) in
  let work ?pool:_ x =
    let acc = ref 0 in
    for k = 1 to (x + 1) * 2000 do
      acc := (!acc + k) land 0xffff
    done;
    (x, !acc)
  in
  let expected = Array.map (fun x -> Ok (work x)) items in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: results in item order" jobs)
        true
        (Solver.fan_out ~jobs ~size:(fun x -> x) items work = expected))
    Helpers.jobs_sweep

let test_fan_out_serial_stop () =
  let ran = ref [] in
  let f ?pool:_ i =
    ran := i :: !ran;
    if i = 2 then raise (Budget.Exceeded Budget.Iterations);
    i
  in
  let results = Solver.fan_out ~size:(fun _ -> 1) [| 0; 1; 2; 3; 4 |] f in
  Alcotest.(check (list int)) "stops at the first exhausted budget"
    [ 0; 1; 2 ] (List.rev !ran);
  Alcotest.(check bool) "the rest fail with its cause" true
    (results
    = [| Ok 0; Ok 1; Error Budget.Iterations; Error Budget.Iterations;
         Error Budget.Iterations |])

let test_fan_out_lone_item () =
  with_pool (max 2 Helpers.default_jobs) (fun p ->
      let caller = Domain.self () in
      let r =
        Solver.fan_out ~pool:p ~size:(fun _ -> 1) [| () |] (fun ?pool () ->
            ( (match pool with Some q -> q == p | None -> false),
              Domain.self () = caller ))
      in
      Alcotest.(check bool) "inner pool is the whole pool, run inline" true
        (r = [| Ok (true, true) |]))

let test_fan_out_arbitration () =
  (* a saturated fan-out: only the item holding half the total size
     nests the pool *)
  with_pool 2 (fun p ->
      let r =
        Solver.fan_out ~pool:p ~size:Fun.id [| 100; 1; 1; 1 |] (fun ?pool _ ->
            pool <> None)
      in
      Alcotest.(check bool) "only the dominant item gets the inner pool" true
        (r = [| Ok true; Ok false; Ok false; Ok false |]))

let suite =
  suite
  @ [
      Alcotest.test_case "fan_out: results in item order" `Quick
        test_fan_out_item_order;
      Alcotest.test_case "fan_out: serial run stops at first budget" `Quick
        test_fan_out_serial_stop;
      Alcotest.test_case "fan_out: lone item inline with the pool" `Quick
        test_fan_out_lone_item;
      Alcotest.test_case "fan_out: arbitration of the inner pool" `Quick
        test_fan_out_arbitration;
      Alcotest.test_case "single SCC solved in place" `Quick
        test_single_scc_identity;
    ]
