(* The zero-allocation claims of the Howard kernel rewrite, checked
   directly with Gc counters, plus scratch-reuse correctness. *)

(* Two budget-capped runs of the same solve share an identical
   trajectory prefix, so the difference of their minor-heap usage is
   exactly (k2 - k1) times the steady-state per-iteration allocation —
   the per-solve constants (closures, the final exception) cancel. *)
let test_steady_state_allocation () =
  let g = Sprand.generate ~seed:3 ~n:2000 ~m:6000 () in
  let scratch = Howard.create_scratch () in
  let stats = Stats.create () in
  ignore (Howard.minimum_cycle_mean ~stats ~init:`First_arc ~scratch g);
  let total = stats.Stats.iterations in
  Alcotest.(check bool)
    (Printf.sprintf "enough iterations to measure (%d)" total)
    true (total >= 6);
  let run k =
    match
      Howard.minimum_cycle_mean ~init:`First_arc
        ~budget:(Budget.create ~max_iterations:k ())
        ~scratch g
    with
    | exception Budget.Exceeded _ -> ()
    | _ -> Alcotest.fail "the capped run should stop early"
  in
  let words k =
    run k;
    (* second run measures with the scratch warm *)
    let before = Gc.minor_words () in
    run k;
    Gc.minor_words () -. before
  in
  let k1 = 2 and k2 = total - 1 in
  let per_iter = (words k2 -. words k1) /. float_of_int (k2 - k1) in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state iteration allocates %.1f words (< 64)"
       per_iter)
    true (per_iter < 64.0)

(* One scratch across solves of different sizes: it grows monotonically
   and larger-than-n leftovers from earlier solves must not leak into
   later answers. *)
let test_scratch_reuse () =
  let scratch = Howard.create_scratch () in
  let check name g =
    let fresh_l, fresh_c = Howard.minimum_cycle_mean g in
    let l, c = Howard.minimum_cycle_mean ~scratch g in
    Helpers.check_ratio (name ^ ": lambda") fresh_l l;
    Alcotest.(check (list int)) (name ^ ": cycle") fresh_c c
  in
  check "large first" (Sprand.generate ~seed:11 ~n:300 ~m:900 ());
  check "then a tiny ring" (Families.ring 5);
  check "mid-size" (Sprand.generate ~seed:12 ~n:100 ~m:400 ())

(* One scratch from a large arc count to smaller ones, at equal and at
   larger node counts, alternating the mean and ratio forms: the arc
   gathers sized for the large graph must not leak stale arcs or
   denominators into the smaller solves. *)
let test_scratch_shrinking_m () =
  let scratch = Howard.create_scratch () in
  let check name g =
    let same form (fl, fc, fp) (l, c, p) =
      Helpers.check_ratio (name ^ ": " ^ form ^ " lambda") fl l;
      Alcotest.(check (list int)) (name ^ ": " ^ form ^ " cycle") fc c;
      Alcotest.(check (array int)) (name ^ ": " ^ form ^ " policy") fp p
    in
    let fresh_mean = Howard.minimum_cycle_mean_warm g
    and fresh_ratio = Howard.minimum_cycle_ratio_warm g in
    same "mean" fresh_mean (Howard.minimum_cycle_mean_warm ~scratch g);
    same "ratio" fresh_ratio (Howard.minimum_cycle_ratio_warm ~scratch g)
  in
  check "m = 10n" (Sprand.generate ~seed:21 ~n:300 ~m:3000 ~transits:(1, 50) ());
  check "same n, m = 1.5n"
    (Sprand.generate ~seed:22 ~n:300 ~m:450 ~transits:(1, 50) ());
  check "larger n, smaller m"
    (Sprand.generate ~seed:23 ~n:400 ~m:600 ~transits:(1, 50) ())

(* Two policy cycles of equal mean 3: {1,2} holds the smallest cycle
   node id, but the walk from node 0 (0 -> 5 -> 4 -> 5) reaches {4,5}
   first, entering it at node 5.  The kernel keeps the cycle found
   from the smallest node of its basin and starts the witness where
   that walk enters it: arc 5 (5->4), then arc 4 (4->5). *)
let test_equal_mean_tie_witness () =
  let g =
    Digraph.of_weighted_arcs 6
      [
        (0, 5, 1); (0, 1, 10); (1, 2, 3); (2, 1, 3); (4, 5, 3); (5, 4, 3);
        (3, 4, 1); (5, 3, 10); (2, 0, 10); (4, 0, 10);
      ]
  in
  let stats = Stats.create () in
  let l, c = Howard.minimum_cycle_mean ~stats g in
  Helpers.check_ratio "lambda" (Ratio.of_int 3) l;
  Alcotest.(check (list int)) "witness" [ 5; 4 ] c;
  Alcotest.(check int) "one iteration" 1 stats.Stats.iterations;
  Alcotest.(check int) "both cycles examined" 2 stats.Stats.cycles_examined

let test_warm_start_with_scratch () =
  let g = Sprand.generate ~seed:13 ~n:200 ~m:600 () in
  let scratch = Howard.create_scratch () in
  let l0, _, policy = Howard.minimum_cycle_mean_warm ~scratch g in
  let l1, c1, _ = Howard.minimum_cycle_mean_warm ~scratch ~policy g in
  Helpers.check_ratio "re-solve from the optimal policy" l0 l1;
  Alcotest.(check bool) "witness is a cycle" true (Digraph.is_cycle g c1)

(* ------------------------------------------------------------------ *)
(* Chunked improvement sweep: bit-identical to the serial kernel       *)
(* ------------------------------------------------------------------ *)

(* The full kernel trajectory, not just the answer: λ, witness, final
   policy, and every operation counter must match the serial run for
   any pool size.  Tie-heavy families are the interesting inputs — with
   all weights equal every arc into a node proposes the same candidate,
   so any deviation from the lowest-arc-id winner rule shows up as a
   different final policy. *)
let check_chunked_matches_serial ?(grain = 64) name g jobs =
  let st0 = Stats.create () in
  let l0, c0, p0 =
    Howard.minimum_cycle_mean_warm ~stats:st0 ~sweep_min_arcs:grain g
  in
  let pool = Executor.create ~jobs in
  Fun.protect
    ~finally:(fun () -> Executor.shutdown pool)
    (fun () ->
      let st = Stats.create () in
      let l, c, p =
        Howard.minimum_cycle_mean_warm ~stats:st ~pool ~sweep_min_arcs:grain g
      in
      Helpers.check_ratio (name ^ ": lambda") l0 l;
      Alcotest.(check (list int)) (name ^ ": cycle") c0 c;
      Alcotest.(check (array int)) (name ^ ": final policy") p0 p;
      Alcotest.(check bool)
        (name ^ ": stats bit-equal") true (st0 = st))

let test_chunked_sweep_tie_heavy () =
  List.iter
    (fun jobs ->
      (* every arc weighs 7: maximal ties, m = 96·95 = 9120 arcs *)
      check_chunked_matches_serial
        (Printf.sprintf "uniform complete, jobs=%d" jobs)
        (Families.complete ~weights:(7, 7) 96)
        jobs;
      check_chunked_matches_serial
        (Printf.sprintf "unit ring, jobs=%d" jobs)
        (Families.ring 8192) jobs;
      check_chunked_matches_serial
        (Printf.sprintf "sprand, jobs=%d" jobs)
        (Sprand.generate ~seed:7 ~n:2048 ~m:6144 ())
        jobs)
    [ 2; 3; Helpers.default_jobs ]

(* A hub carrying half the arcs: with a 2-arc grain the sweep splits
   into as many chunks as workers, and balancing them by arc mass
   leaves the chunks whose share falls inside the hub's arcs empty
   (three of eight at jobs = 8). *)
let test_chunked_sweep_hub () =
  let n = 64 in
  let arcs = ref [] in
  let add s d w = arcs := (s, d, w) :: !arcs in
  for u = 0 to n - 1 do
    add u ((u + 1) mod n) (((u * 37) + 11) mod 23)
  done;
  let hub = n / 2 in
  for v = 0 to n - 1 do
    if v <> hub then add hub v (((v * 53) + 5) mod 29)
  done;
  let g = Digraph.of_weighted_arcs n (List.rev !arcs) in
  Alcotest.(check bool) "hub holds half the arcs" true
    (2 * Digraph.out_degree g hub >= Digraph.m g - 2);
  List.iter
    (fun jobs ->
      check_chunked_matches_serial ~grain:2
        (Printf.sprintf "hub, jobs=%d" jobs)
        g jobs)
    [ 2; 8 ]

(* On arbitrary strongly connected graphs, with the chunking threshold
   forced all the way down so even ~10-arc instances split. *)
let qcheck_chunked_sweep_matches_serial =
  QCheck.Test.make
    ~name:"howard: chunked sweep bit-identical to serial (any graph)"
    ~count:60
    (Helpers.arb_strongly_connected ~max_n:10 ~max_extra:20 ~wlo:(-5) ~whi:5 ())
    (fun g ->
      let st0 = Stats.create () in
      let l0, c0, p0 =
        Howard.minimum_cycle_mean_warm ~stats:st0 ~sweep_min_arcs:2 g
      in
      List.for_all
        (fun jobs ->
          let pool = Executor.create ~jobs in
          Fun.protect
            ~finally:(fun () -> Executor.shutdown pool)
            (fun () ->
              let st = Stats.create () in
              let l, c, p =
                Howard.minimum_cycle_mean_warm ~stats:st ~pool
                  ~sweep_min_arcs:2 g
              in
              Ratio.equal l0 l && c0 = c && p0 = p && st0 = st))
        Helpers.jobs_sweep)

(* The parallel sweep's only steady-state allocation is the O(chunks)
   futures per iteration on the coordinating domain; the per-node
   winner table lives in the preallocated scratch.  Same differential
   technique as the serial test, with a bound that admits the futures
   but would catch any per-arc or per-node allocation. *)
let test_parallel_steady_state_allocation () =
  let g = Sprand.generate ~seed:3 ~n:2000 ~m:6000 () in
  let pool = Executor.create ~jobs:8 in
  Fun.protect
    ~finally:(fun () -> Executor.shutdown pool)
    (fun () ->
      let scratch = Howard.create_scratch () in
      let stats = Stats.create () in
      ignore
        (Howard.minimum_cycle_mean ~stats ~init:`First_arc ~scratch ~pool
           ~sweep_min_arcs:64 g);
      let total = stats.Stats.iterations in
      Alcotest.(check bool)
        (Printf.sprintf "enough iterations to measure (%d)" total)
        true (total >= 6);
      let run k =
        match
          Howard.minimum_cycle_mean ~init:`First_arc
            ~budget:(Budget.create ~max_iterations:k ())
            ~scratch ~pool ~sweep_min_arcs:64 g
        with
        | exception Budget.Exceeded _ -> ()
        | _ -> Alcotest.fail "the capped run should stop early"
      in
      let words k =
        run k;
        let before = Gc.minor_words () in
        run k;
        Gc.minor_words () -. before
      in
      let k1 = 2 and k2 = total - 1 in
      let per_iter = (words k2 -. words k1) /. float_of_int (k2 - k1) in
      Alcotest.(check bool)
        (Printf.sprintf
           "parallel steady-state iteration allocates %.1f words (< 512)"
           per_iter)
        true (per_iter < 512.0))

(* ------------------------------------------------------------------ *)
(* Observability: free when off, invisible when on                     *)
(* ------------------------------------------------------------------ *)

(* The kernel is now instrumented with spans and counters; with the
   global switch off every record call must compile down to a taken
   branch, so the steady-state per-iteration allocation stays exactly
   zero.  Same differential technique as above, but with the strict
   bound the instrumentation must preserve. *)
let test_disabled_tracing_zero_allocation () =
  Alcotest.(check bool) "tracing is off" false (Obs.enabled ());
  let g = Sprand.generate ~seed:3 ~n:2000 ~m:6000 () in
  let scratch = Howard.create_scratch () in
  let stats = Stats.create () in
  ignore (Howard.minimum_cycle_mean ~stats ~init:`First_arc ~scratch g);
  let total = stats.Stats.iterations in
  Alcotest.(check bool)
    (Printf.sprintf "enough iterations to measure (%d)" total)
    true (total >= 6);
  let run k =
    match
      Howard.minimum_cycle_mean ~init:`First_arc
        ~budget:(Budget.create ~max_iterations:k ())
        ~scratch g
    with
    | exception Budget.Exceeded _ -> ()
    | _ -> Alcotest.fail "the capped run should stop early"
  in
  let words k =
    run k;
    let before = Gc.minor_words () in
    run k;
    Gc.minor_words () -. before
  in
  let k1 = 2 and k2 = total - 1 in
  let per_iter = (words k2 -. words k1) /. float_of_int (k2 - k1) in
  Alcotest.(check bool)
    (Printf.sprintf
       "instrumented kernel, tracing off: %.2f words/iteration (= 0)"
       per_iter)
    true (per_iter = 0.0)

(* Enabling tracing must not perturb any observable output: λ, witness,
   final policy and every Stats counter bit-equal with recording on and
   off, serial and parallel.  (Ring capacity is tiny on purpose — wrap
   -around drops records, never correctness.) *)
let qcheck_tracing_invisible =
  QCheck.Test.make
    ~name:"howard: enabling tracing changes no report (jobs 1 and 8)"
    ~count:40
    (Helpers.arb_strongly_connected ~max_n:10 ~max_extra:20 ~wlo:(-5) ~whi:5 ())
    (fun g ->
      let solve pool =
        let st = Stats.create () in
        let l, c, p =
          Howard.minimum_cycle_mean_warm ~stats:st ?pool ~sweep_min_arcs:2 g
        in
        (l, c, p, st)
      in
      let with_pool jobs f =
        if jobs = 1 then f None
        else begin
          let pool = Executor.create ~jobs in
          Fun.protect
            ~finally:(fun () -> Executor.shutdown pool)
            (fun () -> f (Some pool))
        end
      in
      List.for_all
        (fun jobs ->
          with_pool jobs (fun pool ->
              let l0, c0, p0, st0 = solve pool in
              Trace.configure ~capacity:1024 ();
              Obs.enable ();
              let result =
                Fun.protect ~finally:Obs.disable (fun () -> solve pool)
              in
              let l, c, p, st = result in
              Trace.configure ();
              Ratio.equal l0 l && c0 = c && p0 = p && st0 = st))
        [ 1; 8 ])

let qcheck_random_init_agrees =
  QCheck.Test.make ~name:"howard: random init reaches the same optimum"
    ~count:60
    (Helpers.arb_strongly_connected ~max_n:8 ~max_extra:16 ())
    (fun g ->
      let expect, _ = Howard.minimum_cycle_mean g in
      List.for_all
        (fun seed ->
          let l, c = Howard.minimum_cycle_mean ~init:(`Random seed) g in
          Ratio.equal l expect && Digraph.is_cycle g c)
        [ 0; 1; 42 ])

let suite =
  [
    Alcotest.test_case "steady state allocates O(1) words" `Quick
      test_steady_state_allocation;
    Alcotest.test_case "scratch reuse across graphs" `Quick test_scratch_reuse;
    Alcotest.test_case "warm start threads scratch" `Quick
      test_warm_start_with_scratch;
    Alcotest.test_case "chunked sweep bit-identical on tie-heavy graphs"
      `Quick test_chunked_sweep_tie_heavy;
    Alcotest.test_case "parallel steady state allocates O(chunks) words"
      `Quick test_parallel_steady_state_allocation;
    Alcotest.test_case "instrumented kernel allocates 0 words with tracing off"
      `Quick test_disabled_tracing_zero_allocation;
  ]
  @ Helpers.qtests
      [
        qcheck_random_init_agrees; qcheck_chunked_sweep_matches_serial;
        qcheck_tracing_invisible;
      ]
  @ [
      Alcotest.test_case "scratch reuse from large to small m" `Quick
        test_scratch_shrinking_m;
      Alcotest.test_case "equal-mean tie keeps the first basin's cycle" `Quick
        test_equal_mean_tie_witness;
      Alcotest.test_case "chunked sweep bit-identical with a hub node" `Quick
        test_chunked_sweep_hub;
    ]
