(** Lawler's algorithm (Combinatorial Optimization, 1976): binary
    search over λ with a Bellman–Ford negative-cycle oracle on [G_λ]
    (§2.4 of the paper).

    The search runs in floating point down to a width of [epsilon]
    (the "precision" of the paper's Table 1); that alone yields an
    approximate value.  This implementation then hands the last
    negative cycle found to {!Critical.improve_to_optimal}, so the
    returned value is exact — set [exact_finish:false] to measure the
    algorithm exactly as published.

    Preconditions: strongly connected input with at least one arc; for
    the ratio form every cycle must have positive total transit time. *)

val minimum_cycle_mean :
  ?stats:Stats.t -> ?epsilon:float -> ?exact_finish:bool -> ?improved:bool ->
  Digraph.t -> Ratio.t * int list
(** [epsilon] defaults to {!default_eps}.  With [exact_finish:false]
    the result is the ratio of the best cycle found by the bisection,
    whose mean lies within [epsilon] of λ*.
    [improved] (default false) enables the variant announced in §5 of
    the paper: the upper bound drops to the exact ratio of the witness
    cycle instead of the probe value, so each positive oracle answer
    shrinks the interval by more than half (ablated in bench E9). *)

val minimum_cycle_ratio :
  ?stats:Stats.t -> ?epsilon:float -> ?exact_finish:bool -> ?improved:bool ->
  Digraph.t -> Ratio.t * int list

(** {1 The bisection core}

    The one float λ-bisection of the repository: Lawler runs it with
    {!oracle} as its probe, OA ({!Oa}) with an admissible-graph test in
    front of it. *)

val default_eps : Critical.bracket -> float
(** [1/(2·max(2, dmax)²)]: distinct cycle ratios with denominators at
    most [dmax] differ by at least [1/dmax²], so a bisection stopped at
    this width has isolated λ*. *)

val oracle :
  ?stats:Stats.t -> Critical.bracket -> Digraph.t -> float ->
  (float array, int list) result
(** [oracle b g λ]: Bellman–Ford over the float costs [w(a) − λ·den(a)].
    [Ok potentials] proves λ* ≥ λ; [Error cycle] returns a cycle of
    ratio below λ.  Counts one [oracle_calls] and every relaxation. *)

val search :
  ?stats:Stats.t -> name:string -> improved:bool -> exact_finish:bool ->
  eps:float -> probe:(float -> int list option) -> Critical.bracket ->
  Digraph.t -> Ratio.t * int list
(** Bisection of [\[b.lo, b.hi\]].  [probe mid] returns [Some cycle]
    for a cycle of ratio at most [mid] (the upper end drops to [mid],
    or with [improved] to the cycle's ratio if lower) and [None] when
    λ* ≥ [mid] (the lower end rises to [mid]).  The loop stops when
    [hi − lo <= eps] or when the float midpoint is no longer strictly
    inside [(lo, hi)]; it counts one [iterations] per probe.  The last
    cycle found — or {!Critical.start_cycle} if none was — is returned
    with its exact ratio, or handed to {!Critical.improve_to_optimal}
    when [exact_finish].
    @raise Invalid_argument ["<name>: input graph is acyclic"]. *)
