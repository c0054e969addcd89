(* Engine tests: fingerprint quality, LRU behavior, the budget /
   deadline machinery, Stats merging, and the headline property — the
   engine's results (including cache hits) are identical to a fresh
   [Solver.solve], at --jobs 1 and --jobs 4 alike. *)

let ring ?(w = 1) n =
  Digraph.of_arcs n (List.init n (fun i -> (i, (i + 1) mod n, w, 1)))

(* ------------------------------------------------------------------ *)
(* fingerprint                                                         *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_distinct () =
  (* a few hundred structurally different graphs must all hash apart *)
  let seen = Hashtbl.create 1024 in
  let remember g =
    let hex = Fingerprint.to_hex (Fingerprint.of_graph g) in
    if Hashtbl.mem seen hex then
      Alcotest.failf "fingerprint collision on %s" hex;
    Hashtbl.replace seen hex ()
  in
  for seed = 1 to 300 do
    let n = 4 + (seed mod 23) in
    let m = n + (seed mod 37) in
    remember (Sprand.generate ~seed ~n ~m ())
  done;
  for n = 1 to 50 do
    remember (ring n)
  done;
  Alcotest.(check int) "all distinct" 350 (Hashtbl.length seen)

let test_fingerprint_sensitivity () =
  let base = ring 5 in
  let bumped =
    Digraph.of_arcs 5
      ((0, 1, 2, 1) :: List.init 4 (fun i -> (i + 1, (i + 2) mod 5, 1, 1)))
  in
  let transit =
    Digraph.of_arcs 5
      ((0, 1, 1, 2) :: List.init 4 (fun i -> (i + 1, (i + 2) mod 5, 1, 1)))
  in
  let fp = Fingerprint.of_graph in
  Alcotest.(check bool) "weight change" false (Fingerprint.equal (fp base) (fp bumped));
  Alcotest.(check bool) "transit change" false (Fingerprint.equal (fp base) (fp transit));
  (* arc ids are part of the structure (witness cycles name them), so
     a permuted arc list is a different identity... *)
  let arcs = List.init 5 (fun i -> (i, (i + 1) mod 5, 1, 1)) in
  let permuted = Digraph.of_arcs 5 (List.rev arcs) in
  Alcotest.(check bool) "permuted arc list differs" false
    (Fingerprint.equal (fp base) (fp permuted));
  (* ...while rebuilding the same graph reproduces the fingerprint *)
  let same = Digraph.of_arcs 5 arcs in
  Alcotest.(check bool) "same construction equal" true
    (Fingerprint.equal (fp base) (fp same));
  Alcotest.(check int) "hash consistent" (Fingerprint.hash (fp base))
    (Fingerprint.hash (fp same))

(* digests recorded before [mix]/[absorb] were inlined: the
   fingerprint names cache entries, so its value must not drift *)
let test_fingerprint_pinned () =
  let hex g = Fingerprint.to_hex (Fingerprint.of_graph g) in
  Alcotest.(check string) "sprand 100/300" "3599338fb1a9184edc6dfa1fbcfc7e54"
    (hex (Sprand.generate ~seed:3 ~n:100 ~m:300 ()));
  Alcotest.(check string) "sprand 4096/12288" "5d6e25d243b1dfde8f34913b5ada40cf"
    (hex (Sprand.generate ~seed:11 ~n:4096 ~m:12288 ()));
  Alcotest.(check string) "three arcs" "617d324d39c3c528d012dc5e5de2ca71"
    (hex (Digraph.of_arcs 3 [ (0, 1, -5, 1); (1, 2, 10000, 7); (2, 0, 0, 2) ]))

(* the .mli's "no allocation beyond the result": the words allocated
   do not grow with the arc count *)
let test_fingerprint_no_alloc () =
  let words g =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Fingerprint.of_graph g));
    Gc.minor_words () -. before
  in
  let small = words (Sprand.generate ~seed:3 ~n:100 ~m:300 ()) in
  let large = words (Sprand.generate ~seed:11 ~n:4096 ~m:12288 ()) in
  Alcotest.(check (float 0.0)) "independent of m" small large;
  Alcotest.(check bool) "only the result" true (large <= 16.0)

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction_promotion () =
  let c = Lru.create ~capacity:2 in
  Lru.add c 1 "a";
  Lru.add c 2 "b";
  (* touching 1 promotes it, so adding 3 evicts 2 *)
  Alcotest.(check (option string)) "find 1" (Some "a") (Lru.find c 1);
  Lru.add c 3 "c";
  Alcotest.(check (option string)) "2 evicted" None (Lru.find c 2);
  Alcotest.(check (option string)) "1 kept" (Some "a") (Lru.find c 1);
  Alcotest.(check (option string)) "3 present" (Some "c") (Lru.find c 3);
  Alcotest.(check int) "length" 2 (Lru.length c);
  (* refresh of an existing key must not evict *)
  Lru.add c 1 "a'";
  Alcotest.(check (option string)) "refreshed" (Some "a'") (Lru.find c 1);
  Alcotest.(check int) "length stable" 2 (Lru.length c)

let test_lru_disabled () =
  let c = Lru.create ~capacity:0 in
  Lru.add c 1 "a";
  Alcotest.(check (option string)) "disabled cache stores nothing" None
    (Lru.find c 1);
  Alcotest.(check int) "empty" 0 (Lru.length c)

(* ------------------------------------------------------------------ *)
(* budget                                                              *)
(* ------------------------------------------------------------------ *)

let test_budget_iterations () =
  let b = Budget.create ~max_iterations:3 () in
  Budget.tick b;
  Budget.tick b;
  Budget.tick b;
  Alcotest.check_raises "4th tick" (Budget.Exceeded Budget.Iterations)
    (fun () -> Budget.tick b)

let test_budget_deadline () =
  let time = ref 0.0 in
  let b =
    Budget.create ~now:(fun () -> !time) ~deadline_at:5.0 ()
  in
  Budget.check b;
  Budget.tick b;
  time := 10.0;
  Alcotest.check_raises "past deadline" (Budget.Exceeded Budget.Deadline)
    (fun () -> Budget.check b);
  Alcotest.check_raises "tick sees the clock too"
    (Budget.Exceeded Budget.Deadline) (fun () -> Budget.tick b)

(* Two disjoint rings with different cycle means: sweeping the
   iteration allowance must pass through all three regimes — nothing
   solved, a partial bound over the completed component, and the full
   optimum. *)
let test_solver_deadline_partial () =
  let g =
    Digraph.of_arcs 6
      (List.init 3 (fun i -> (i, (i + 1) mod 3, 1, 1))
      @ List.init 3 (fun i -> (i + 3, 3 + ((i + 1) mod 3), 2, 1)))
  in
  let solve_with k =
    let budget = Budget.create ~max_iterations:k () in
    match Solver.solve ~algorithm:Registry.Howard ~budget g with
    | exception Solver.Deadline_exceeded { partial } -> `Cut partial
    | Some r -> `Done r
    | None -> Alcotest.fail "unexpectedly acyclic"
  in
  let saw_none = ref false and saw_partial = ref false and done_ = ref None in
  for k = 0 to 50 do
    if !done_ = None then
      match solve_with k with
      | `Cut None -> saw_none := true
      | `Cut (Some r) ->
        saw_partial := true;
        (* a partial minimum over completed components is an upper
           bound on the true optimum *)
        Alcotest.(check bool) "upper bound" true
          (Ratio.leq (Ratio.make 1 1) r.Solver.lambda)
      | `Done r -> done_ := Some r
  done;
  Alcotest.(check bool) "tiny budgets cut before any component" true !saw_none;
  Alcotest.(check bool) "some budget yields a partial bound" true !saw_partial;
  match !done_ with
  | None -> Alcotest.fail "never completed within 50 iterations"
  | Some r ->
    Helpers.check_ratio "full optimum" (Ratio.make 1 1) r.Solver.lambda;
    Alcotest.(check int) "both components" 2 r.Solver.components

let test_stats_merge () =
  let s1 = Stats.create () and s2 = Stats.create () in
  s1.Stats.iterations <- 3;
  s1.Stats.relaxations <- 5;
  s1.Stats.heap.Heap_stats.inserts <- 7;
  s2.Stats.iterations <- 4;
  s2.Stats.arcs_visited <- 11;
  s2.Stats.heap.Heap_stats.inserts <- 2;
  let m = Stats.merge s1 s2 in
  Alcotest.(check int) "iterations" 7 m.Stats.iterations;
  Alcotest.(check int) "relaxations" 5 m.Stats.relaxations;
  Alcotest.(check int) "arcs_visited" 11 m.Stats.arcs_visited;
  Alcotest.(check int) "heap inserts" 9 m.Stats.heap.Heap_stats.inserts;
  (* inputs untouched *)
  Alcotest.(check int) "s1 intact" 3 s1.Stats.iterations;
  Alcotest.(check int) "s2 intact" 4 s2.Stats.iterations

(* ------------------------------------------------------------------ *)
(* engine vs solver                                                    *)
(* ------------------------------------------------------------------ *)

let with_engine ~jobs ?(cache_size = 16) f =
  let eng = Engine.create ~jobs ~cache_size () in
  Fun.protect ~finally:(fun () -> Engine.shutdown eng) (fun () -> f eng)

let spec_of ~problem ~objective ~algorithm ~verify =
  {
    (Request.default_spec "mem") with
    Request.problem;
    objective;
    algorithm;
    verify;
  }

(* The headline property: for any graph, a batch containing the same
   request twice returns (1) a fresh result identical to Solver.solve —
   lambda, witness cycle, component count — and (2) a cached duplicate
   carrying the very same answer, certified against the request's
   graph. *)
let qcheck_engine_matches_solver jobs =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "engine --jobs %d = Solver.solve (incl. cache hits)" jobs)
    QCheck.(
      pair
        (Helpers.arb_any_graph ~max_n:8 ~max_m:16 ~tmax:3 ())
        (pair bool bool))
    (fun (g, (maximize, ratio)) ->
      let objective = if maximize then Solver.Maximize else Solver.Minimize in
      let problem = if ratio then Solver.Cycle_ratio else Solver.Cycle_mean in
      let spec =
        spec_of ~problem ~objective
          ~algorithm:(Request.Fixed Registry.Howard) ~verify:true
      in
      with_engine ~jobs (fun eng ->
          let reqs =
            [ Request.make ~id:1 ~graph:g spec;
              Request.make ~id:2 ~graph:g spec ]
          in
          let expect =
            Solver.solve ~objective ~problem ~algorithm:Registry.Howard g
          in
          match (Engine.run_batch eng reqs, expect) with
          | [ { Engine.outcome = Engine.Acyclic; _ };
              { Engine.outcome = Engine.Acyclic; _ } ], None ->
            true
          | [ { Engine.outcome = Engine.Solved s1; _ };
              { Engine.outcome = Engine.Solved s2; _ } ], Some r ->
            Ratio.equal s1.lambda r.Solver.lambda
            && s1.cycle = r.Solver.cycle
            && s1.components = r.Solver.components
            && (not s1.cached) && s1.certified
            && s2.cached && s2.certified
            && Ratio.equal s2.lambda s1.lambda
            && s2.cycle = s1.cycle
          | _ -> false))

(* Response lines — the entire observable batch output — are
   byte-identical across --jobs settings, with the Auto portfolio. *)
let qcheck_jobs_byte_identical =
  QCheck.Test.make ~count:40 ~name:"batch output identical at --jobs 1 and 4"
    (Helpers.arb_any_graph ~max_n:10 ~max_m:24 ~tmax:2 ())
    (fun g ->
      let spec =
        spec_of ~problem:Solver.Cycle_mean ~objective:Solver.Minimize
          ~algorithm:Request.Auto ~verify:false
      in
      let reqs =
        [ Request.make ~id:1 ~graph:g spec;
          Request.make ~id:2 ~graph:g spec;
          Request.make ~id:3 ~graph:g spec ]
      in
      let lines jobs =
        with_engine ~jobs (fun eng ->
            List.map
              (fun r -> Engine.response_line r)
              (Engine.run_batch eng reqs))
      in
      lines 1 = lines 4)

let test_serve_path_counters () =
  with_engine ~jobs:1 (fun eng ->
      let g = ring 7 in
      let spec =
        spec_of ~problem:Solver.Cycle_mean ~objective:Solver.Minimize
          ~algorithm:Request.Auto ~verify:true
      in
      let r1 = Engine.solve eng (Request.make ~id:1 ~graph:g spec) in
      let r2 = Engine.solve eng (Request.make ~id:2 ~graph:g spec) in
      (match (r1.Engine.outcome, r2.Engine.outcome) with
      | Engine.Solved s1, Engine.Solved s2 ->
        Alcotest.(check bool) "fresh then cached" true
          ((not s1.cached) && s2.cached);
        Alcotest.(check bool) "hit re-certified" true s2.certified
      | _ -> Alcotest.fail "expected two solved responses");
      let tel = Engine.telemetry eng in
      Alcotest.(check int) "requests" 2 tel.Telemetry.requests;
      Alcotest.(check int) "hits" 1 tel.Telemetry.cache_hits;
      Alcotest.(check int) "misses" 1 tel.Telemetry.cache_misses;
      Alcotest.(check int) "collisions" 0 tel.Telemetry.collisions)

let test_deadline_zero_times_out () =
  with_engine ~jobs:1 (fun eng ->
      let g = ring 9 in
      let spec =
        { (spec_of ~problem:Solver.Cycle_mean ~objective:Solver.Minimize
             ~algorithm:Request.Auto ~verify:false)
          with Request.deadline_ms = Some 0.0 }
      in
      match (Engine.solve eng (Request.make ~id:1 ~graph:g spec)).Engine.outcome with
      | Engine.Timeout { attempted; _ } ->
        Alcotest.(check bool) "tried at least one algorithm" true
          (attempted <> [])
      | _ -> Alcotest.fail "expected a timeout")

let suite =
  [
    Alcotest.test_case "fingerprint: 350 graphs, no collision" `Quick
      test_fingerprint_distinct;
    Alcotest.test_case "fingerprint: sensitive to every field" `Quick
      test_fingerprint_sensitivity;
    Alcotest.test_case "lru: eviction + promotion" `Quick
      test_lru_eviction_promotion;
    Alcotest.test_case "lru: capacity 0 disables" `Quick test_lru_disabled;
    Alcotest.test_case "budget: iteration allowance" `Quick
      test_budget_iterations;
    Alcotest.test_case "budget: deadline clock" `Quick test_budget_deadline;
    Alcotest.test_case "solver: deadline partial results" `Quick
      test_solver_deadline_partial;
    Alcotest.test_case "stats: merge" `Quick test_stats_merge;
    Alcotest.test_case "engine: serve-path cache counters" `Quick
      test_serve_path_counters;
    Alcotest.test_case "engine: deadline 0 times out" `Quick
      test_deadline_zero_times_out;
  ]
  @ Helpers.qtests
      [
        qcheck_engine_matches_solver 1;
        qcheck_engine_matches_solver 4;
        qcheck_jobs_byte_identical;
      ]
  (* appended after the property tests so earlier cases keep their indices *)
  @ [
      Alcotest.test_case "fingerprint: digests pinned" `Quick
        test_fingerprint_pinned;
      Alcotest.test_case "fingerprint: allocates only its result" `Quick
        test_fingerprint_no_alloc;
    ]
