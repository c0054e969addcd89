type certificate = {
  lo : Ratio.t;
  hi : Ratio.t;
  witness : int list;
  eps : float;
  scale : float;
  components : int;
  tests : int;
  rounds : int;
  converged : bool;
}

let default_eps = 0.01

let scale g =
  if Digraph.m g = 0 then 1.0
  else
    Float.max 1.0
      (float_of_int
         (max (abs (Digraph.min_weight g)) (abs (Digraph.max_weight g))))

let validate_eps eps =
  if Float.is_finite eps && eps > 0.0 then Ok ()
  else Error "eps must be a positive finite float"

let sp_solve = Obs.intern "approx.solve"
let sp_component = Obs.intern "approx.component"

let name = "Approx.solve"

let bracket = function
  | Solver.Cycle_mean -> Critical.mean_bracket ~name
  | Solver.Cycle_ratio -> Critical.ratio_bracket ~name

(* the Altschuler–Parrilo-style truncation: ~1/ε rounds of value
   iteration per test, never more than n (after n rounds the exact
   FIFO engine is the better spend) *)
let truncation ~eps n = min (max 1 n) (max 16 (int_of_float (Float.ceil (2.0 /. eps))))

let solve ?stats ?budget ?(jobs = 1) ?pool ?(problem = Solver.Cycle_mean)
    ?(objective = Solver.Minimize) ~eps g =
  (match validate_eps eps with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Approx.solve: " ^ msg));
  if jobs < 1 then invalid_arg "Approx.solve: jobs must be >= 1";
  Solver.preflight ~problem g;
  let sc = scale g in
  let width = eps *. sc in
  let g_min =
    match objective with
    | Solver.Minimize -> g
    | Solver.Maximize -> Digraph.negate_weights g
  in
  let tr = !Obs.enabled_flag in
  if tr then Trace.begin_span sp_solve;
  let subs = Solver.cyclic_components g_min in
  let result =
    if Array.length subs = 0 then None
    else begin
      let solve_sub ?pool (sp : Scc.subproblem) =
        (match budget with Some b -> Budget.check b | None -> ());
        let tr = !Obs.enabled_flag in
        if tr then Trace.begin_span sp_component;
        let sub = sp.Scc.sub in
        let sub_stats = Stats.create () in
        let r =
          Approx_lane.solve ~stats:sub_stats ?budget ?pool ~width
            ~max_rounds:(truncation ~eps (Digraph.n sub))
            (bracket problem sub) sub
        in
        if tr then Trace.end_span sp_component;
        let witness = List.map (fun a -> sp.Scc.arc_of_sub.(a)) r.Approx_lane.witness in
        ({ r with Approx_lane.witness }, witness, sub_stats)
      in
      let results =
        Solver.fan_out ~jobs ?pool ~size:(fun sp -> Digraph.m sp.Scc.sub) subs
          solve_sub
      in
      let merged_stats = ref (Stats.create ()) in
      let lo = ref None in
      let upper = ref None in
      let components = ref 0 in
      let tests = ref 0 in
      let rounds = ref 0 in
      let all_converged = ref true in
      let skipped = ref false in
      Array.iter
        (function
          | Error _ -> skipped := true
          | Ok ((r : Approx_lane.t), witness, sub_stats) ->
            incr components;
            merged_stats := Stats.merge !merged_stats sub_stats;
            tests := !tests + r.Approx_lane.tests;
            rounds := !rounds + r.Approx_lane.rounds;
            if not r.Approx_lane.converged then all_converged := false;
            lo := Solver.best_in_order !lo r.Approx_lane.lo ();
            upper := Solver.best_in_order !upper r.Approx_lane.hi witness)
        results;
      (match stats with
      | Some s -> Stats.add s !merged_stats
      | None -> ());
      let b = bracket problem g_min in
      (* components the budget never reached only widen the interval:
         their λ* is still above the graph-wide a-priori lower bound,
         and any completed component's hi keeps bounding the global
         minimum from above *)
      let lo =
        match !lo with
        | Some (l, ()) when not !skipped -> l
        | _ -> Ratio.of_int b.Critical.lo
      in
      let hi, witness =
        match !upper with
        | Some hw -> hw
        | None ->
          (* every component was budget-skipped: fall back to an exact
             O(n+m) witness so even a fully starved solve certifies *)
          let c = Critical.start_cycle ~name g_min in
          (Critical.ratio_of_cycle g_min ~den:b.Critical.den c, c)
      in
      let converged =
        (not !skipped) && !all_converged
        && Ratio.to_float hi -. Ratio.to_float lo <= width
      in
      let lo, hi =
        match objective with
        | Solver.Minimize -> (lo, hi)
        | Solver.Maximize -> (Ratio.neg hi, Ratio.neg lo)
      in
      Some
        {
          lo;
          hi;
          witness;
          eps;
          scale = sc;
          components = !components;
          tests = !tests;
          rounds = !rounds;
          converged;
        }
    end
  in
  if tr then Trace.end_span sp_solve;
  result

let recheck ?(problem = Solver.Cycle_mean) ?(objective = Solver.Minimize) g
    cert =
  let den =
    match problem with
    | Solver.Cycle_mean -> fun _ -> 1
    | Solver.Cycle_ratio -> Digraph.transit g
  in
  try
    if cert.witness = [] then Error "approx certificate: empty witness"
    else if not (Digraph.is_cycle g cert.witness) then
      Error "approx certificate: witness is not a cycle of this graph"
    else if not (Ratio.leq cert.lo cert.hi) then
      Error "approx certificate: empty interval"
    else
      let r = Critical.ratio_of_cycle g ~den cert.witness in
      let attained =
        match objective with
        | Solver.Minimize -> cert.hi
        | Solver.Maximize -> cert.lo
      in
      if Ratio.equal r attained then Ok ()
      else Error "approx certificate: witness does not attain its bound"
  with _ -> Error "approx certificate: witness refers outside this graph"
