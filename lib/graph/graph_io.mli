(** Plain-text graph exchange format (DIMACS-flavoured) and DOT export.

    Format, one record per line, [#]-comments allowed:
    {v
    p ocr <n> <m>
    a <src> <dst> <weight> [<transit>]
    v}
    Nodes are 1-indexed in files (DIMACS convention) and 0-indexed in
    the API.  A missing transit field means transit 1.

    Both formats are read by one pass over the bytes, straight into
    the graph's label arrays (an [io.parse] trace span).  Each line is
    trimmed as by [String.trim] and split on spaces; a field is read
    as by [int_of_string_opt], so [+5], [0x1f] and [1_000] are
    numbers and an out-of-range value is a malformed line. *)

val max_nodes : int
(** [2{^26}]: the largest node count a problem line may declare, 64×
    the largest graph the benchmarks load.  The node arrays are
    allocated from the declared count, so a larger one is rejected
    (with the problem line's number) instead of exhausting memory.
    The declared arc count only sizes the first arc buffer, never
    beyond what the rest of the text can hold, and is otherwise not
    checked. *)

val to_string : Digraph.t -> string
val of_string : string -> Digraph.t
(** @raise Failure with a line-numbered message on malformed input. *)

val write_file : string -> Digraph.t -> unit
(** Writes {!to_string}'s text, streamed through the channel in
    64 KiB pieces. *)

val read_file : string -> Digraph.t

val load : string -> Digraph.t
(** {!read_file}, except that a [.gr] suffix selects {!of_dimacs} —
    the one format-dispatch rule every front-end (solve, batch, serve,
    stream, cluster workers) shares. *)

val to_dot : ?name:string -> ?highlight:int list -> Digraph.t -> string
(** GraphViz export; [highlight] arcs are drawn bold red (used for
    critical cycles). *)

(** {1 DIMACS shortest-path format}

    The 9th DIMACS challenge [.gr] format that the original SPRAND
    emits: a [p sp <n> <m>] problem line and [a <src> <dst> <weight>]
    arc lines (1-indexed, no transit times — they default to 1 here).
    [c]-comment lines are skipped. *)

val of_dimacs : string -> Digraph.t
(** @raise Failure with a line-numbered message on malformed input. *)

val to_dimacs : Digraph.t -> string
(** Transit times are not representable in [.gr] and are dropped; use
    {!to_string} to keep them. *)
