(** The certified (1+ε)-approximation lane: near-linear solves with an
    exact interval certificate.

    For graphs (or deadlines) where the exact portfolio cannot finish,
    this lane answers with a {e certified interval} [lo <= λ* <= hi]
    of width at most [eps · scale g], plus a witness cycle attaining
    the bound on the achievable side.  Both sides are exact rational
    arithmetic — the approximation is only in how tightly the interval
    pins λ*, never in the soundness of its endpoints.  See
    [docs/APPROX.md] for the algorithm and the certificate semantics. *)

type certificate = {
  lo : Ratio.t;  (** certified lower bound: [lo <= λ*] *)
  hi : Ratio.t;  (** certified upper bound: [λ* <= hi] *)
  witness : int list;
      (** a genuine cycle of the input graph (arc ids, path order)
          whose exact value equals the attained endpoint: [hi] when
          minimizing, [lo] when maximizing *)
  eps : float;   (** the requested relative tolerance *)
  scale : float;  (** [max 1 (max |w|)]; the width target is [eps·scale] *)
  components : int;  (** cyclic SCCs solved *)
  tests : int;   (** λ-tests across all components *)
  rounds : int;  (** value-iteration rounds across all tests *)
  converged : bool;
      (** [hi - lo <= eps·scale] was reached; [false] after a budget
          interruption (the interval is still sound, just wider) *)
}

val default_eps : float
(** [0.01]. *)

val scale : Digraph.t -> float
(** [max 1 (max |w|)] — the natural scale of the instance; [1.0] on
    arcless graphs.  Monotone under subgraphs, which is what lets
    per-component searches share one absolute width target. *)

val validate_eps : float -> (unit, string) result
(** [Error msg] unless [eps] is positive and finite. *)

val solve :
  ?stats:Stats.t -> ?budget:Budget.t -> ?jobs:int -> ?pool:Executor.t ->
  ?problem:Solver.problem -> ?objective:Solver.objective -> eps:float ->
  Digraph.t -> certificate option
(** [None] iff the graph has no cycle.  Components run through
    {!Solver.fan_out}, exactly like {!Solver.solve} (bit-identical
    certificates for every job count); a budget interruption degrades
    to a wider but still sound certificate instead of raising.  [stats] accumulates the
    merged per-component counters.
    @raise Invalid_argument on invalid [eps]/[jobs], and from
    {!Solver.preflight} on instances outside exact-arithmetic range. *)

val recheck :
  ?problem:Solver.problem -> ?objective:Solver.objective -> Digraph.t ->
  certificate -> (unit, string) result
(** Witness-side audit, O(n + |witness|): the witness is a genuine
    cycle of this graph, its exact value equals the attained
    certificate endpoint, and the interval is non-empty.  (The other
    endpoint is sound by construction — every binary-search test is
    exact integer arithmetic — and can only be re-derived by an exact
    solve.)  Used by the engine as the cache-collision guard and by
    [--verify]. *)
