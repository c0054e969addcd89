let name = "Oa"

(* Scaling search: Lawler's bisection over λ in which node prices
   survive from phase to phase.  At each probe λ=mid we first look for
   a cycle in the admissible graph (arcs whose reduced cost under the
   prices is non-positive) — a sound "λ* <= mid" certificate obtained
   in O(m) — and only run the full Bellman-Ford oracle when the quick
   test is inconclusive. *)
let solve ?stats ?epsilon ~exact_finish (b : Critical.bracket) g =
  let n = Digraph.n g in
  let den = b.Critical.den in
  let prices = Array.make n 0.0 in
  let probe mid =
    let reduced a =
      float_of_int (Digraph.weight g a)
      -. (mid *. float_of_int (den a))
      +. prices.(Digraph.src g a)
      -. prices.(Digraph.dst g a)
    in
    match Critical.cycle_in g (fun a -> reduced a <= 0.0) with
    | Some _ as cycle ->
      (* all reduced costs on the cycle are <= 0 and prices telescope,
         so the cycle's ratio is <= mid *)
      cycle
    | None -> (
      match Lawler.oracle ?stats b g mid with
      | Error cycle -> Some cycle
      | Ok pot ->
        (* refresh the prices with the feasible potentials *)
        Array.blit pot 0 prices 0 n;
        None)
  in
  let eps = Option.value epsilon ~default:(Lawler.default_eps b) in
  Lawler.search ?stats ~name ~improved:false ~exact_finish ~eps ~probe b g

let oa1_minimum_cycle_mean ?stats ?epsilon g =
  solve ?stats ?epsilon ~exact_finish:false (Critical.mean_bracket ~name g) g

let oa2_minimum_cycle_mean ?stats ?epsilon g =
  solve ?stats ?epsilon ~exact_finish:true (Critical.mean_bracket ~name g) g

let oa1_minimum_cycle_ratio ?stats ?epsilon g =
  Critical.assert_ratio_well_posed g;
  solve ?stats ?epsilon ~exact_finish:false (Critical.ratio_bracket ~name g) g

let oa2_minimum_cycle_ratio ?stats ?epsilon g =
  Critical.assert_ratio_well_posed g;
  solve ?stats ?epsilon ~exact_finish:true (Critical.ratio_bracket ~name g) g
