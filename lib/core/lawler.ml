let name = "Lawler"

let default_eps (b : Critical.bracket) =
  (* distinct ratios with denominators at most dmax differ by at least
     1/dmax², so this width already pins the optimum to a unique value *)
  let d = float_of_int (max 2 b.Critical.dmax) in
  1.0 /. (2.0 *. d *. d)

let oracle ?stats (b : Critical.bracket) g mid =
  (match stats with
  | Some s -> s.Stats.oracle_calls <- s.Stats.oracle_calls + 1
  | None -> ());
  let on_relax =
    Option.map (fun s () -> s.Stats.relaxations <- s.Stats.relaxations + 1) stats
  in
  let den = b.Critical.den in
  let cost a =
    float_of_int (Digraph.weight g a) -. (mid *. float_of_int (den a))
  in
  Bellman_ford.run_float ?on_relax ~cost g

let search ?stats ~name ~improved ~exact_finish ~eps ~probe
    (b : Critical.bracket) g =
  let den = b.Critical.den in
  let lo = ref (float_of_int b.Critical.lo)
  and hi = ref (float_of_int b.Critical.hi) in
  let candidate = ref None in
  let running = ref true in
  while !running do
    let mid = 0.5 *. (!lo +. !hi) in
    if !hi -. !lo <= eps || not (!lo < mid && mid < !hi) then
      (* width reached, or no float left strictly inside the interval:
         further probes could not move either end *)
      running := false
    else begin
      (match stats with
      | Some s -> s.Stats.iterations <- s.Stats.iterations + 1
      | None -> ());
      match probe mid with
      | Some cycle ->
        (* a cycle with ratio < mid exists: λ* < mid.  The improved
           variant uses the witness itself as the new upper bound — the
           cycle's exact ratio is at most mid but usually far below it,
           so the interval shrinks by much more than half. *)
        candidate := Some cycle;
        hi :=
          if improved then
            Float.min mid (Ratio.to_float (Critical.ratio_of_cycle g ~den cycle))
          else mid
      | None ->
        (* no cycle below mid: λ* >= mid *)
        lo := mid
    end
  done;
  let cycle =
    match !candidate with Some c -> c | None -> Critical.start_cycle ~name g
  in
  if exact_finish then Critical.improve_to_optimal ?stats ~den g cycle
  else (Critical.ratio_of_cycle g ~den cycle, cycle)

let solve ?stats ?epsilon ~exact_finish ~improved b g =
  let probe mid =
    match oracle ?stats b g mid with Error cycle -> Some cycle | Ok _ -> None
  in
  let eps = Option.value epsilon ~default:(default_eps b) in
  search ?stats ~name ~improved ~exact_finish ~eps ~probe b g

let minimum_cycle_mean ?stats ?epsilon ?(exact_finish = true)
    ?(improved = false) g =
  solve ?stats ?epsilon ~exact_finish ~improved
    (Critical.mean_bracket ~name g)
    g

let minimum_cycle_ratio ?stats ?epsilon ?(exact_finish = true)
    ?(improved = false) g =
  Critical.assert_ratio_well_posed g;
  solve ?stats ?epsilon ~exact_finish ~improved
    (Critical.ratio_bracket ~name g)
    g
