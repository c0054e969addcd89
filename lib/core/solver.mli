(** The safe front-end for arbitrary graphs.

    Following §2 of the paper: the input is decomposed into strongly
    connected components, the chosen algorithm runs on every component
    that contains a cycle, and the best component optimum is returned
    ("this is the way we implemented all of the algorithms").
    Maximization is handled by weight negation. *)

type objective = Minimize | Maximize

type problem =
  | Cycle_mean  (** optimize [w(C)/|C|] *)
  | Cycle_ratio  (** optimize [w(C)/t(C)] — the cost-to-time ratio *)

type report = {
  lambda : Ratio.t;  (** exact optimum over the whole graph *)
  cycle : int list;  (** witness cycle, arc ids of the input graph *)
  components : int;  (** number of cyclic SCCs solved *)
  stats : Stats.t;   (** operation counts accumulated over components *)
}

val preflight : problem:problem -> Digraph.t -> unit
(** The well-posedness checks of {!solve}, exposed for front-ends
    (such as the batch engine) that run their own per-component
    solves through {!fan_out}.
    @raise Invalid_argument under the conditions documented on
    {!solve}. *)

val check_arithmetic_range : w:int -> d:int -> unit
(** The overflow bound inside {!preflight}: weights of magnitude up to
    [w] with denominators up to [d] (node count for means, total
    transit time for ratios) must keep [|w| · d²] well below
    [max_int / 8].  Exposed so that sessions maintaining [w] and [d]
    incrementally ({!Dyn}) apply the same bound with the same message.
    @raise Invalid_argument when the bound is violated. *)

val fan_out :
  ?jobs:int ->
  ?pool:Executor.t ->
  size:('a -> int) ->
  'a array ->
  (?pool:Executor.t -> 'a -> 'b) ->
  ('b, Budget.cause) result array
(** [fan_out ~size items f] is the per-component loop of §2 — run [f]
    on every item (normally a cyclic SCC subproblem) — shared by
    {!solve}, the engine, the approximation lane and dynamic sessions.
    Results come back in item order whatever order they finished in,
    so a reduction over them is identical for every job count.

    Placement: the items run serially on the calling domain unless a
    pool with more than one worker and more than one item exist; with
    [jobs > 1] and no [pool], a private pool is created and shut down
    around the call.  [f] receives the inner pool it may use for
    intra-item parallelism (Howard's chunked sweep): a lone item, or
    every item of a serial run, gets the whole pool; under a fan-out an
    item gets it only if the fan-out leaves workers idle (fewer items
    than jobs) or [size item] is at least half of the total.

    Budgets: an item whose [f] raises {!Budget.Exceeded} yields
    [Error cause].  The serial path stops at the first such item and
    marks every item after it [Error] with the same cause; under a
    fan-out every item runs to its own outcome.  Any other exception
    propagates.
    @raise Invalid_argument if [jobs < 1]. *)

val cyclic_components : Digraph.t -> Scc.subproblem array
(** The cyclic strongly connected components of a graph as
    subproblems, in increasing component id: the items {!solve}, the
    engine and the approximation lane hand to {!fan_out}.  When one cyclic SCC covers every node,
    the single subproblem is the graph itself with identity id maps:
    {!Scc.partition} would copy it with no node renumbered and every arc
    in place, so answers are unchanged.  Solvers only read the subgraph;
    a caller that rewrites labels in place ({!Dyn}) must use
    {!Scc.partition} and own its copy.  Traced as [solver.partition],
    with [scc.compute] and [scc.partition] nested inside. *)

val best_in_order :
  (Ratio.t * 'w) option -> Ratio.t -> 'w -> (Ratio.t * 'w) option
(** One step of the deterministic reduction over {!fan_out} results:
    [best_in_order best lambda w] keeps [best] unless [lambda] is
    strictly smaller, so folding components in order keeps the
    lower-id witness on ties. *)

exception Deadline_exceeded of { partial : report option }
(** Raised by {!solve} when the supplied budget runs out: [partial] is
    the best optimum over the components that completed (an upper bound
    on the true optimum for minimization, lower for maximization), or
    [None] if no component completed.  Under [~jobs]/[~pool] the
    completed set may include components beyond the first failure —
    every finished component contributes to the bound. *)

val solve :
  ?objective:objective ->
  ?problem:problem ->
  ?budget:Budget.t ->
  ?jobs:int ->
  ?pool:Executor.t ->
  algorithm:Registry.algorithm ->
  Digraph.t ->
  report option
(** [None] iff the graph is acyclic (no cycle to optimize).

    The graph is split into its cyclic strongly connected components by
    {!cyclic_components}: one O(n+m) partition sweep, or no copy at all
    when the whole graph is one SCC; with [jobs > 1] (a
    private pool of [jobs-1] domains plus the calling thread) or an
    externally managed [pool], independent components solve
    concurrently.  The same pool is handed down into each component
    solve, so with [algorithm = Howard] the per-arc improvement sweep
    inside a large component is also chunked across the workers
    ({!Howard.minimum_cycle_mean}) — this is what makes [jobs] pay off
    on a single giant SCC, where the component fan-out alone has
    nothing to parallelize.  The reduction is deterministic: each
    sweep chunk owns a node range and keeps every node's winner by
    (candidate, lowest arc id), and per-component results are folded
    in component order with the serial loop's exact tie-breaking, so
    the report — λ, witness cycle, merged stats — is bit-identical for
    every job count.  Default [jobs = 1]
    runs inline with no domain spawned.

    [budget] bounds the work: the clock is checked before every
    component and budget-supporting algorithms
    ({!Registry.supports_budget}) tick it mid-solve (the iteration
    counter is atomic, so one budget governs the whole pool);
    exhaustion raises {!Deadline_exceeded} carrying the partial result.

    @raise Invalid_argument for [Cycle_ratio] if some cycle has zero
    total transit time (the ratio is then ill-defined), when the
    weight magnitudes are so large that the exact native-int rational
    arithmetic could overflow (roughly [|w| · D² < 2⁵⁹] is required,
    with [D] = node count for means and total transit time for
    ratios — far beyond the paper's [1..10000] weights at any
    realistic size), or if [jobs < 1]. *)

(** {1 Convenience wrappers} — default algorithm {!Registry.Howard},
    the study's overall winner. *)

val minimum_cycle_mean :
  ?algorithm:Registry.algorithm -> ?jobs:int -> Digraph.t -> report option

val maximum_cycle_mean :
  ?algorithm:Registry.algorithm -> ?jobs:int -> Digraph.t -> report option

val minimum_cycle_ratio :
  ?algorithm:Registry.algorithm -> ?jobs:int -> Digraph.t -> report option

val maximum_cycle_ratio :
  ?algorithm:Registry.algorithm -> ?jobs:int -> Digraph.t -> report option
