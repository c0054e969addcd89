(** OA1/OA2: scaling algorithms in the style of Orlin & Ahuja
    (Mathematical Programming, 1992).

    The published algorithms combine an {e approximate binary search}
    with an auction/assignment relaxation and (for OA2) the successive
    shortest path algorithm, giving O(√n·m·log(nW)) bounds for integer
    weights bounded by W.  The full auction machinery is replaced here
    by a behaviourally equivalent scaling search (the substitution is
    recorded in DESIGN.md):

    {ul
    {- node prices are maintained {e across} scaling phases and each
       phase first attempts a cheap admissible-graph test — a DFS for a
       cycle that is non-positive under the current prices — before
       falling back to a full Bellman–Ford oracle (whose potentials
       refresh the prices);}
    {- the phases are the probes of {!Lawler.search}, the one float
       bisection, so OA shares Lawler's bracket, stop rule and default
       precision ({!Lawler.default_eps});}
    {- OA1 stops at precision [epsilon], exactly as the paper's
       "approximate" classification;}
    {- OA2 additionally runs the exact finisher
       ({!Critical.improve_to_optimal}) on the final candidate cycle,
       playing the role of the successive-shortest-path clean-up
       phase.}}

    Preconditions: strongly connected input with at least one arc; for
    the ratio form every cycle must have positive total transit time. *)

val oa1_minimum_cycle_mean :
  ?stats:Stats.t -> ?epsilon:float -> Digraph.t -> Ratio.t * int list
(** Approximate: the returned value is the exact ratio of the best
    cycle found, which lies within [epsilon] of λ*. *)

val oa2_minimum_cycle_mean :
  ?stats:Stats.t -> ?epsilon:float -> Digraph.t -> Ratio.t * int list
(** Exact (finisher applied). *)

val oa1_minimum_cycle_ratio :
  ?stats:Stats.t -> ?epsilon:float -> Digraph.t -> Ratio.t * int list

val oa2_minimum_cycle_ratio :
  ?stats:Stats.t -> ?epsilon:float -> Digraph.t -> Ratio.t * int list
