(** Strongly connected components (iterative Tarjan). *)

type t = {
  count : int;             (** number of components *)
  component : int array;   (** node -> component id *)
}

val compute : Digraph.t -> t
(** Component ids are numbered in {e reverse topological} order of the
    condensation: every arc between distinct components goes from a
    higher id to a lower id. *)

val cyclic : Digraph.t -> t -> bool array
(** Component id -> whether the component contains a cycle: it has at
    least two nodes or a self-loop.  One O(n + m) sweep. *)

type subproblem = {
  comp : int;              (** component id in the decomposition *)
  sub : Digraph.t;         (** induced subgraph, nodes renumbered *)
  node_of_sub : int array; (** sub node -> original node *)
  arc_of_sub : int array;  (** sub arc -> original arc *)
}

val partition : ?nontrivial_only:bool -> Digraph.t -> t -> subproblem array
(** All component subgraphs in one O(n + m) sweep, in increasing
    component id (= reverse topological) order.  Each entry is
    structurally identical to [Digraph.induced g members], with
    [members] the component's nodes in increasing order — the same
    renumbering and arc order the per-component solvers have always
    seen — without the O(m · count) repeated arc scans.  With
    [nontrivial_only] (the default) components without a cycle are
    skipped, as {!cyclic} decides. *)

val condensation : Digraph.t -> t -> Digraph.t
(** The component DAG: one node per component (same ids as
    [component]), one arc per original arc joining distinct components
    (weights and transit times preserved; parallel arcs kept).  The
    result is acyclic, with arcs flowing from higher component ids to
    lower ones. *)
