type objective = Minimize | Maximize

type problem = Cycle_mean | Cycle_ratio

type report = {
  lambda : Ratio.t;
  cycle : int list;
  components : int;
  stats : Stats.t;
}

(* A zero-transit cycle makes the ratio problem ill-posed; such a cycle
   exists iff the subgraph of zero-transit arcs is cyclic. *)
let check_ratio_well_posed g =
  match Critical.cycle_in g (fun a -> Digraph.transit g a = 0) with
  | Some _ ->
    invalid_arg "Solver: cycle with zero total transit time \
                 (cost-to-time ratio undefined)"
  | None -> ()

(* Exact arithmetic safety: every cross-multiplication in the library
   is bounded by (2·D·W)·D where W = max |weight| and D = the largest
   possible denominator (n for means, total transit for ratios); keep
   that product far from max_int. *)
let check_arithmetic_range ~w ~d =
  let w = max 1 w in
  if d > 0 && w > max_int / 8 / d / d then
    invalid_arg
      (Printf.sprintf
         "Solver: weights up to %d on an instance with denominator range \
          %d would overflow exact native-int arithmetic" w d)

let preflight ~problem g =
  if Digraph.m g > 0 then
    check_arithmetic_range
      ~w:(max (abs (Digraph.min_weight g)) (abs (Digraph.max_weight g)))
      ~d:
        (match problem with
        | Cycle_mean -> max 1 (Digraph.n g)
        | Cycle_ratio -> max (Digraph.n g) (Digraph.total_transit g));
  match problem with
  | Cycle_ratio -> check_ratio_well_posed g
  | Cycle_mean -> ()

(* ------------------------------------------------------------------ *)
(* The per-SCC fan-out: the one component loop every front-end runs   *)
(* ------------------------------------------------------------------ *)

let fan_out ?(jobs = 1) ?pool ~size items f =
  if jobs < 1 then invalid_arg "Solver.fan_out: jobs must be >= 1";
  let n = Array.length items in
  let run pool =
    match pool with
    | Some p when n > 1 && Executor.jobs p > 1 ->
      (* Arbitration between the two levels of parallelism.  The pool
         can serve both: items fan out here, and a Howard solve can
         re-use it to chunk its improvement sweep (help-first waiting
         makes the nesting deadlock-free).  But when the fan-out
         already saturates the workers, nested sweep chunks only add
         queueing and merge overhead — so an item gets the inner pool
         only if the fan-out leaves workers idle (fewer items than
         jobs) or the item dominates the total size (≥ half; one giant
         SCC among crumbs is exactly where the intra-solve sweep is the
         only win).  Purely a placement decision: results are
         bit-identical either way. *)
      let total = Array.fold_left (fun acc x -> acc + size x) 0 items in
      let saturated = n >= Executor.jobs p in
      items
      |> Array.map (fun x ->
             let inner =
               if (not saturated) || 2 * size x >= total then pool else None
             in
             Executor.async p (fun () -> f ?pool:inner x))
      |> Array.map (fun fut ->
             match Executor.await p fut with
             | v -> Ok v
             | exception Budget.Exceeded c -> Error c)
    | _ ->
      (* serial: stop at the first exhausted budget; the items after it
         fail with the same cause *)
      let stopped = ref None in
      Array.init n (fun i ->
          match !stopped with
          | Some c -> Error c
          | None -> (
            match f ?pool items.(i) with
            | v -> Ok v
            | exception Budget.Exceeded c ->
              stopped := Some c;
              Error c))
  in
  match pool with
  | None when jobs > 1 && n > 0 ->
    let p = Executor.create ~jobs in
    Fun.protect ~finally:(fun () -> Executor.shutdown p) (fun () -> run (Some p))
  | _ -> run pool

let best_in_order best lambda w =
  match best with
  | Some (bl, _) when Ratio.leq bl lambda -> best
  | _ -> Some (lambda, w)

exception Deadline_exceeded of { partial : report option }

let sp_partition = Obs.intern "solver.partition"
let sp_scc = Obs.intern "scc.compute"
let sp_scc_partition = Obs.intern "scc.partition"
let sp_component = Obs.intern "solver.component"
let sp_reduce = Obs.intern "solver.reduce"
let sp_comp_arcs = Obs.intern "solver.component_arcs"

let cyclic_components g =
  let tr = !Obs.enabled_flag in
  if tr then begin
    Trace.begin_span sp_partition;
    Trace.begin_span sp_scc
  end;
  let scc = Scc.compute g in
  if tr then begin
    Trace.end_span sp_scc;
    Trace.begin_span sp_scc_partition
  end;
  let subs =
    if scc.Scc.count = 1 && Digraph.m g > 0 then
      (* one cyclic SCC covers every node: its copy would renumber no
         node and keep every arc in place, so solve [g] itself *)
      [|
        {
          Scc.comp = 0;
          sub = g;
          node_of_sub = Array.init (Digraph.n g) Fun.id;
          arc_of_sub = Array.init (Digraph.m g) Fun.id;
        };
      |]
    else
      (* one O(n+m) sweep builds every cyclic-SCC subproblem *)
      Scc.partition g scc
  in
  if tr then begin
    Trace.end_span sp_scc_partition;
    Trace.end_span sp_partition
  end;
  subs

let solve ?(objective = Minimize) ?(problem = Cycle_mean) ?budget ?(jobs = 1)
    ?pool ~algorithm g =
  if jobs < 1 then invalid_arg "Solver.solve: jobs must be >= 1";
  preflight ~problem g;
  let g_min =
    match objective with Minimize -> g | Maximize -> Digraph.negate_weights g
  in
  let run =
    match problem with
    | Cycle_mean -> Registry.minimum_cycle_mean algorithm
    | Cycle_ratio -> Registry.minimum_cycle_ratio algorithm
  in
  let tr = !Obs.enabled_flag in
  let subs = cyclic_components g_min in
  let solve_sub ?pool (sp : Scc.subproblem) =
    (match budget with Some b -> Budget.check b | None -> ());
    let tr = !Obs.enabled_flag in
    if tr then begin
      Trace.begin_span sp_component;
      Trace.counter_int sp_comp_arcs (Digraph.m sp.Scc.sub)
    end;
    let sub_stats = Stats.create () in
    let lambda, cycle = run ~stats:sub_stats ?budget ?pool sp.Scc.sub in
    if tr then Trace.end_span sp_component;
    (lambda, List.map (fun a -> sp.Scc.arc_of_sub.(a)) cycle, sub_stats)
  in
  let results =
    fan_out ~jobs ?pool ~size:(fun sp -> Digraph.m sp.Scc.sub) subs solve_sub
  in
  (* deterministic reduction: fold completed components in component
     order, whatever order the domains finished in *)
  if tr then Trace.begin_span sp_reduce;
  let stats = ref (Stats.create ()) in
  let best = ref None in
  let components = ref 0 in
  let exceeded = ref false in
  Array.iter
    (function
      | Error _ -> exceeded := true
      | Ok (lambda, cycle, sub_stats) ->
        incr components;
        stats := Stats.merge !stats sub_stats;
        best := best_in_order !best lambda cycle)
    results;
  if tr then Trace.end_span sp_reduce;
  (* best-so-far as a full report, with the objective sign restored —
     this is both the happy-path return value and the partial result
     carried by Deadline_exceeded *)
  let current_report () =
    match !best with
    | None -> None
    | Some (lambda, cycle) ->
      let lambda =
        match objective with Minimize -> lambda | Maximize -> Ratio.neg lambda
      in
      Some { lambda; cycle; components = !components; stats = !stats }
  in
  if !exceeded then raise (Deadline_exceeded { partial = current_report () })
  else current_report ()

let minimum_cycle_mean ?(algorithm = Registry.Howard) ?jobs g =
  solve ~objective:Minimize ~problem:Cycle_mean ?jobs ~algorithm g

let maximum_cycle_mean ?(algorithm = Registry.Howard) ?jobs g =
  solve ~objective:Maximize ~problem:Cycle_mean ?jobs ~algorithm g

let minimum_cycle_ratio ?(algorithm = Registry.Howard) ?jobs g =
  solve ~objective:Minimize ~problem:Cycle_ratio ?jobs ~algorithm g

let maximum_cycle_ratio ?(algorithm = Registry.Howard) ?jobs g =
  solve ~objective:Maximize ~problem:Cycle_ratio ?jobs ~algorithm g
