let den1 _ = 1

let test_scaled_cost () =
  let g = Digraph.of_arcs 2 [ (0, 1, 7, 3); (1, 0, 5, 2) ] in
  let lambda = Helpers.r 3 2 in
  (* cost = 2·w − 3·t *)
  Alcotest.(check int) "arc 0" ((2 * 7) - (3 * 3))
    (Critical.scaled_cost g ~den:(Digraph.transit g) lambda 0);
  Alcotest.(check int) "arc 1 (mean)" ((2 * 5) - 3)
    (Critical.scaled_cost g ~den:den1 lambda 1)

let test_ratio_of_cycle () =
  let g = Digraph.of_arcs 2 [ (0, 1, 7, 3); (1, 0, 5, 2) ] in
  Helpers.check_ratio "mean" (Helpers.r 6 1)
    (Critical.ratio_of_cycle g ~den:den1 [ 0; 1 ]);
  Helpers.check_ratio "ratio" (Helpers.r 12 5)
    (Critical.ratio_of_cycle g ~den:(Digraph.transit g) [ 0; 1 ])

let test_cycle_in () =
  let g =
    Digraph.of_weighted_arcs 4 [ (0, 1, 1); (1, 2, 1); (2, 0, 1); (2, 3, 1) ]
  in
  (match Critical.cycle_in g (fun _ -> true) with
  | Some c -> Alcotest.(check bool) "found a valid cycle" true (Digraph.is_cycle g c)
  | None -> Alcotest.fail "graph has a cycle");
  Alcotest.(check bool) "restricted to a DAG: none" true
    (Critical.cycle_in g (fun a -> a <> 2) = None)

let fixture () = Families.two_cycles ~len1:2 ~w1:4 ~len2:3 ~w2:1

let test_locate_below () =
  match Critical.locate ~den:den1 (fixture ()) (Helpers.r 1 2) with
  | Critical.Below -> ()
  | _ -> Alcotest.fail "1/2 < min mean 1"

let test_locate_optimal () =
  match Critical.locate ~den:den1 (fixture ()) (Helpers.r 1 1) with
  | Critical.Optimal c ->
    Helpers.check_ratio "witness mean" (Helpers.r 1 1)
      (Critical.ratio_of_cycle (fixture ()) ~den:den1 c)
  | _ -> Alcotest.fail "1 is the optimum"

let test_locate_above () =
  match Critical.locate ~den:den1 (fixture ()) (Helpers.r 3 1) with
  | Critical.Above c ->
    Alcotest.(check bool) "strictly better cycle" true
      (Ratio.lt (Critical.ratio_of_cycle (fixture ()) ~den:den1 c) (Helpers.r 3 1))
  | _ -> Alcotest.fail "3 > optimum 1"

let test_improve_to_optimal () =
  let g = fixture () in
  (* start from the BAD cycle (mean 4) *)
  let bad =
    List.filter (fun a -> Digraph.weight g a = 4) (List.init (Digraph.m g) Fun.id)
  in
  Alcotest.(check bool) "fixture sanity" true (Digraph.is_cycle g bad);
  let lambda, witness = Critical.improve_to_optimal ~den:den1 g bad in
  Helpers.check_ratio "descended to optimum" (Helpers.r 1 1) lambda;
  Alcotest.(check bool) "witness valid" true (Digraph.is_cycle g witness)

let test_improve_rejects_non_cycle () =
  Alcotest.check_raises "not a cycle"
    (Invalid_argument "Critical.improve_to_optimal: not a cycle") (fun () ->
      ignore (Critical.improve_to_optimal ~den:den1 (fixture ()) [ 0 ]))

let test_critical_arcs () =
  let g = fixture () in
  let crit = Critical.critical_arcs ~den:den1 g (Helpers.r 1 1) in
  (* exactly the arcs of the weight-1 cycle (3 arcs) *)
  Alcotest.(check int) "three critical arcs" 3 (List.length crit);
  List.iter
    (fun a -> Alcotest.(check int) "weight 1" 1 (Digraph.weight g a))
    crit;
  (* below the optimum the tight subgraph is acyclic: nothing critical *)
  Alcotest.(check (list int)) "below optimum: empty" []
    (Critical.critical_arcs ~den:den1 g (Helpers.r 1 2))

let qcheck_locate_against_oracle =
  QCheck.Test.make ~name:"critical: locate agrees with the oracle" ~count:300
    (QCheck.pair
       (Helpers.arb_strongly_connected ~max_n:7 ~max_extra:10 ())
       (QCheck.int_range (-25) 25))
    (fun (g, num) ->
      let lambda = Ratio.make num 2 in
      let opt = Helpers.oracle_mean Oracle.Minimize g |> Option.get in
      match Critical.locate ~den:den1 g lambda with
      | Critical.Below -> Ratio.lt lambda opt
      | Critical.Optimal c ->
        Ratio.equal lambda opt
        && Ratio.equal (Critical.ratio_of_cycle g ~den:den1 c) lambda
      | Critical.Above c ->
        Ratio.lt opt lambda
        && Ratio.lt (Critical.ratio_of_cycle g ~den:den1 c) lambda)

let qcheck_improve_reaches_oracle =
  QCheck.Test.make
    ~name:"critical: improve_to_optimal reaches the oracle optimum" ~count:200
    (Helpers.arb_strongly_connected ~max_n:7 ~max_extra:10 ())
    (fun g ->
      let start = Critical.start_cycle ~name:"test" g in
      let lambda, w = Critical.improve_to_optimal ~den:den1 g start in
      let opt = Helpers.oracle_mean Oracle.Minimize g |> Option.get in
      Ratio.equal lambda opt
      && Ratio.equal (Critical.ratio_of_cycle g ~den:den1 w) opt)

(* the a-priori bracket every λ-search starts from must contain the
   optimum, and bound its denominator *)
let qcheck_brackets_contain_optimum =
  QCheck.Test.make ~name:"critical: mean/ratio brackets contain Howard's λ*"
    ~count:200
    (Helpers.arb_strongly_connected ~max_n:9 ~max_extra:16 ~wlo:(-50) ~whi:50
       ~tmax:6 ())
    (fun g ->
      let inside (b : Critical.bracket) lambda =
        Ratio.leq (Ratio.of_int b.Critical.lo) lambda
        && Ratio.leq lambda (Ratio.of_int b.Critical.hi)
        && Ratio.den lambda <= b.Critical.dmax
      in
      inside
        (Critical.mean_bracket ~name:"test" g)
        (fst (Howard.minimum_cycle_mean g))
      && inside
           (Critical.ratio_bracket ~name:"test" g)
           (fst (Howard.minimum_cycle_ratio g)))

let suite =
  [
    Alcotest.test_case "scaled_cost" `Quick test_scaled_cost;
    Alcotest.test_case "ratio_of_cycle" `Quick test_ratio_of_cycle;
    Alcotest.test_case "cycle_in" `Quick test_cycle_in;
    Alcotest.test_case "locate: below" `Quick test_locate_below;
    Alcotest.test_case "locate: optimal" `Quick test_locate_optimal;
    Alcotest.test_case "locate: above" `Quick test_locate_above;
    Alcotest.test_case "improve_to_optimal" `Quick test_improve_to_optimal;
    Alcotest.test_case "improve rejects non-cycles" `Quick
      test_improve_rejects_non_cycle;
    Alcotest.test_case "critical_arcs" `Quick test_critical_arcs;
  ]
  @ Helpers.qtests
      [
        qcheck_locate_against_oracle;
        qcheck_improve_reaches_oracle;
        qcheck_brackets_contain_optimum;
      ]

(* critical_arcs must be exactly the arcs lying on some optimum-mean
   cycle; the oracle enumerates all cycles, so it can say precisely
   which arcs those are. *)
let qcheck_critical_arcs_exact =
  QCheck.Test.make
    ~name:"critical: critical_arcs = arcs on optimum cycles (oracle)"
    ~count:150
    (Helpers.arb_strongly_connected ~max_n:7 ~max_extra:9 ())
    (fun g ->
      let opt = Helpers.oracle_mean Oracle.Minimize g |> Option.get in
      let expected = Hashtbl.create 16 in
      ignore
        (Cycles.iter_cycles g (fun c ->
             let mean =
               Ratio.make (Digraph.cycle_weight g c) (List.length c)
             in
             if Ratio.equal mean opt then
               List.iter (fun a -> Hashtbl.replace expected a ()) c));
      let got = Critical.critical_arcs ~den:den1 g opt in
      List.sort compare got
      = List.sort compare (Hashtbl.fold (fun a () l -> a :: l) expected []))

let qcheck_locate_monotone =
  (* Below / Optimal / Above must be monotone in lambda *)
  QCheck.Test.make ~name:"critical: locate is monotone in lambda" ~count:150
    (Helpers.arb_strongly_connected ~max_n:7 ~max_extra:9 ())
    (fun g ->
      let opt = Helpers.oracle_mean Oracle.Minimize g |> Option.get in
      let below = Ratio.sub opt Ratio.one in
      let above = Ratio.add opt Ratio.one in
      (match Critical.locate ~den:den1 g below with
      | Critical.Below -> true
      | _ -> false)
      && (match Critical.locate ~den:den1 g opt with
         | Critical.Optimal _ -> true
         | _ -> false)
      &&
      match Critical.locate ~den:den1 g above with
      | Critical.Above _ -> true
      | _ -> false)

let suite =
  suite @ Helpers.qtests [ qcheck_critical_arcs_exact; qcheck_locate_monotone ]
