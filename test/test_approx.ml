(* The (1+ε)-approximation lane: certificate soundness against the
   exact solver, convergence to the width target, determinism across
   job counts, and the dyadic / value-iteration building blocks. *)

let check_ratio = Helpers.check_ratio
let r = Helpers.r

(* ------------------------------------------------------------------ *)
(* Dyadic grid                                                         *)
(* ------------------------------------------------------------------ *)

let test_dyadic () =
  Alcotest.(check int) "denom_for 1" 1 (Dyadic.denom_for 1.0);
  Alcotest.(check int) "denom_for 0.5" 2 (Dyadic.denom_for 0.5);
  Alcotest.(check int) "denom_for 0.3" 4 (Dyadic.denom_for 0.3);
  Alcotest.(check int) "denom_for huge" 1 (Dyadic.denom_for 1e30);
  Alcotest.(check int) "floor_pow2 1" 1 (Dyadic.floor_pow2 1);
  Alcotest.(check int) "floor_pow2 7" 4 (Dyadic.floor_pow2 7);
  Alcotest.(check int) "floor_pow2 8" 8 (Dyadic.floor_pow2 8);
  check_ratio "quantize half" (r 1 2) (Dyadic.quantize ~denom:2 0.5);
  check_ratio "quantize rounds" (r 3 4) (Dyadic.quantize ~denom:4 0.7);
  check_ratio "quantize negative" (r (-5) 8) (Dyadic.quantize ~denom:8 (-0.625))

(* ------------------------------------------------------------------ *)
(* Truncated value iteration                                           *)
(* ------------------------------------------------------------------ *)

let test_value_iter_verdicts () =
  (* a 3-ring: all-positive costs have no negative cycle; all-negative
     costs must produce one *)
  let g = Families.ring 3 in
  let pos = [| 1; 1; 1 |] and neg = [| -1; -1; -1 |] in
  (match Value_iter.run ~max_rounds:10 ~costs:pos g with
  | Value_iter.No_negative_cycle, _ -> ()
  | _ -> Alcotest.fail "positive ring: expected No_negative_cycle");
  (match Value_iter.run ~max_rounds:10 ~costs:neg g with
  | Value_iter.Negative_cycle c, _ ->
    Alcotest.(check bool) "witness is a cycle" true (Digraph.is_cycle g c);
    Alcotest.(check bool) "witness is negative" true
      (List.fold_left (fun acc a -> acc + neg.(a)) 0 c < 0)
  | _ -> Alcotest.fail "negative ring: expected Negative_cycle");
  (* truncation: one round cannot traverse the whole ring, and on an
     all-zero graph nothing improves after round 1, so a too-small
     budget on a slow-converging instance must stay inconclusive *)
  let g2 = Families.ring 40 in
  let costs = Array.make 40 1 in
  costs.(0) <- -39;
  (* total weight 0: values keep circulating for ~n rounds *)
  match Value_iter.run ~max_rounds:2 ~costs g2 with
  | Value_iter.Inconclusive, rounds ->
    Alcotest.(check bool) "stopped at the cap" true (rounds <= 2)
  | Value_iter.No_negative_cycle, _ -> Alcotest.fail "expected Inconclusive"
  | Value_iter.Negative_cycle _, _ ->
    Alcotest.fail "zero-weight ring has no negative cycle"

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let test_two_cycles_fixture () =
  let g = Families.two_cycles ~len1:3 ~w1:7 ~len2:4 ~w2:2 in
  let c = Option.get (Approx.solve ~eps:0.01 g) in
  (* λ* = 2; the interval must bracket it within eps·scale = 0.07 *)
  Alcotest.(check bool) "lo <= 2" true (Ratio.leq c.Approx.lo (r 2 1));
  Alcotest.(check bool) "2 <= hi" true (Ratio.leq (r 2 1) c.Approx.hi);
  Alcotest.(check bool) "converged" true c.Approx.converged;
  Alcotest.(check bool) "width" true
    (Ratio.to_float c.Approx.hi -. Ratio.to_float c.Approx.lo
    <= c.Approx.eps *. c.Approx.scale);
  Alcotest.(check (result unit string)) "recheck" (Ok ()) (Approx.recheck g c)

let test_acyclic_and_errors () =
  let dag = Digraph.of_arcs 3 [ (0, 1, 1, 1); (1, 2, 1, 1) ] in
  Alcotest.(check bool) "acyclic -> None" true
    (Approx.solve ~eps:0.1 dag = None);
  let g = Families.ring 4 in
  List.iter
    (fun eps ->
      Alcotest.(check bool)
        (Printf.sprintf "eps=%g rejected" eps)
        true
        (match Approx.solve ~eps g with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ 0.0; -0.5; Float.nan; Float.infinity ];
  Alcotest.(check bool) "jobs=0 rejected" true
    (match Approx.solve ~jobs:0 ~eps:0.1 g with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_budget_starvation () =
  (* a zero-iteration budget starves every λ-test, but the certificate
     stays sound: the a-priori lower bound and an exact witness ratio *)
  let g = Sprand.generate ~seed:11 ~weights:(-20, 20) ~n:40 ~m:160 () in
  let budget = Budget.create ~max_iterations:0 () in
  let c = Option.get (Approx.solve ~budget ~eps:0.001 g) in
  let exact = (Option.get (Solver.minimum_cycle_mean g)).Solver.lambda in
  Alcotest.(check bool) "lo <= exact" true (Ratio.leq c.Approx.lo exact);
  Alcotest.(check bool) "exact <= hi" true (Ratio.leq exact c.Approx.hi);
  Alcotest.(check (result unit string)) "recheck" (Ok ()) (Approx.recheck g c)

let test_lane_brackets () =
  let g = Families.ring ~weight:(fun i -> i) 5 in
  (* λ* = 10/5 = 2 *)
  let lr =
    Approx_lane.solve ~width:(0.01 *. Approx.scale g) ~max_rounds:16
      (Critical.mean_bracket ~name:"test" g)
      g
  in
  Alcotest.(check bool) "lane lo <= 2" true
    (Ratio.leq lr.Approx_lane.lo (r 2 1));
  Alcotest.(check bool) "lane 2 <= hi" true
    (Ratio.leq (r 2 1) lr.Approx_lane.hi);
  Alcotest.(check bool) "lane converged" true lr.Approx_lane.converged

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* every family graph, both problems and objectives, two tolerances:
   the certificate brackets the exact optimum with exact-rational
   comparisons, converges to the width target, and survives recheck *)
let qcheck_certificate_brackets_exact =
  QCheck.Test.make ~name:"approx: certificate brackets the exact optimum"
    ~count:60
    QCheck.(pair (Helpers.arb_family ()) (oneofl [ 0.1; 0.01 ]))
    (fun (g, eps) ->
      List.for_all
        (fun (problem, objective) ->
          let exact =
            Solver.solve ~problem ~objective ~algorithm:Registry.Howard g
          in
          let cert = Approx.solve ~problem ~objective ~eps g in
          match (exact, cert) with
          | None, None -> true
          | Some _, None | None, Some _ -> false
          | Some rep, Some c ->
            let lambda = rep.Solver.lambda in
            Ratio.leq c.Approx.lo lambda
            && Ratio.leq lambda c.Approx.hi
            && c.Approx.converged
            && Ratio.to_float c.Approx.hi -. Ratio.to_float c.Approx.lo
               <= (eps *. c.Approx.scale) +. 1e-9
            && Approx.recheck ~problem ~objective g c = Ok ())
        [
          (Solver.Cycle_mean, Solver.Minimize);
          (Solver.Cycle_mean, Solver.Maximize);
          (Solver.Cycle_ratio, Solver.Minimize);
          (Solver.Cycle_ratio, Solver.Maximize);
        ])

(* parallel component fan-out must not change the answer: the whole
   certificate is bit-identical for every job count *)
let qcheck_jobs_deterministic =
  QCheck.Test.make ~name:"approx: certificate identical across job counts"
    ~count:40
    (Helpers.arb_family ())
    (fun g ->
      let solve jobs = Approx.solve ~jobs ~eps:0.05 g in
      match solve 1 with
      | None -> List.for_all (fun j -> solve j = None) Helpers.jobs_sweep
      | Some base ->
        List.for_all
          (fun jobs ->
            match solve jobs with
            | None -> false
            | Some c ->
              Ratio.equal c.Approx.lo base.Approx.lo
              && Ratio.equal c.Approx.hi base.Approx.hi
              && c.Approx.witness = base.Approx.witness
              && c.Approx.components = base.Approx.components)
          Helpers.jobs_sweep)

let suite =
  [
    Alcotest.test_case "dyadic grid" `Quick test_dyadic;
    Alcotest.test_case "value iteration verdicts" `Quick
      test_value_iter_verdicts;
    Alcotest.test_case "two-cycles fixture" `Quick test_two_cycles_fixture;
    Alcotest.test_case "acyclic + validation" `Quick test_acyclic_and_errors;
    Alcotest.test_case "budget starvation stays sound" `Quick
      test_budget_starvation;
    Alcotest.test_case "lane brackets ring optimum" `Quick test_lane_brackets;
  ]
  @ Helpers.qtests
      [ qcheck_certificate_brackets_exact; qcheck_jobs_deterministic ]
