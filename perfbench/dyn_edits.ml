(* dyn-edits: one `ocr stream` session (Dyn_serve.handle on NDJSON
   lines) over a many_scc graph of 2^16 nodes.  Each request is a group
   of one to four updates followed by a query: the time from a user's
   edit to the fresh answer.  There is no file load per request, and
   label edits run one hint pass on a single component instead of a
   cold SCC pass, so this workload writes beside reads. *)

let components = 64
let size = 1024

let sp_update = Obs.intern "bench.dyn.update"
let sp_query = Obs.intern "bench.dyn.query"
let sp_parse = Obs.intern "bench.dyn_protocol.parse"
let sp_scc = Obs.intern "bench.scc.compute"
let sp_scc_alloc = Obs.intern "bench.alloc.scc.compute"
let sp_partition = Obs.intern "bench.scc.partition"

type op =
  | Set_weight of int * int  (** arc, weight *)
  | Add of int * int * int * int  (** session id it will get, src, dst, weight *)
  | Remove of int

let line_of = function
  | Set_weight (arc, w) -> Printf.sprintf {|{"op":"set_weight","arc":%d,"weight":%d}|} arc w
  | Add (_, u, v, w) ->
    Printf.sprintf {|{"op":"add_arc","src":%d,"dst":%d,"weight":%d,"transit":1}|} u v w
  | Remove arc -> Printf.sprintf {|{"op":"remove_arc","arc":%d}|} arc

(* The generator's own model of the session: arc weights, and the arcs
   it added that are still live. *)
type model = {
  rng : Rng.t;
  intra : int array array;  (** component -> its base arcs (never removed) *)
  weights : (int, int) Hashtbl.t;  (** session arc -> weight, where changed *)
  base_weight : int -> int;
  mutable next_id : int;
  mutable added : int list;  (** live added arcs *)
  mutable undo : op list option;
      (** label edits that restore the graph before the last group *)
}

let weight md arc = Option.value (Hashtbl.find_opt md.weights arc) ~default:(md.base_weight arc)

let apply md = function
  | Set_weight (arc, w) -> Hashtbl.replace md.weights arc w
  | Add (id, _, _, w) ->
    Hashtbl.replace md.weights id w;
    md.next_id <- id + 1;
    md.added <- id :: md.added
  | Remove arc -> md.added <- List.filter (( <> ) arc) md.added

let new_weight md = Rng.in_range md.rng 1 10000

(* [k] label edits inside component [c], with the edits that undo them *)
let label_edits md c k =
  let arcs = md.intra.(c) in
  List.init k (fun _ ->
      let arc = arcs.(Rng.int md.rng (Array.length arcs)) in
      let old = weight md arc in
      let op = Set_weight (arc, new_weight md) in
      apply md op;
      (op, Set_weight (arc, old)))

(* Group kinds in a fixed rotation of ten: six label groups (1-4 label
   edits in one component), two structural groups (an arc added inside
   a component, or a previously added arc removed, then label edits in
   the same component), and two undo groups, each right after a label
   group, which restore the graph as it was before that group and so
   meet a graph the fingerprint cache has seen.  The fixed rotation
   gives every run the same mix. *)
let rotation =
  [| `Label; `Label; `Undo; `Label; `Structural; `Label; `Undo; `Label; `Structural; `Label |]

let next_group md i =
  let c = Rng.int md.rng components in
  let k = 1 + (i mod 4) in
  let label () =
    let edits = label_edits md c k in
    md.undo <- Some (List.rev_map snd edits);
    (List.map fst edits, "label")
  in
  match (rotation.(i mod Array.length rotation), md.undo) with
  | `Label, _ | `Undo, None -> label ()
  | `Undo, Some inverse ->
    (* undoing an undo redoes the original edits *)
    let redo =
      List.rev_map
        (function Set_weight (a, _) -> Set_weight (a, weight md a) | op -> op)
        inverse
    in
    List.iter (apply md) inverse;
    md.undo <- Some redo;
    (inverse, "undo")
  | `Structural, _ ->
    let op =
      match md.added with
      | _ :: _ when i / Array.length rotation mod 2 = 1 ->
        let victims = Array.of_list md.added in
        Remove victims.(Rng.int md.rng (Array.length victims))
      | _ ->
        let node () = (c * size) + Rng.int md.rng size in
        Add (md.next_id, node (), node (), new_weight md)
    in
    apply md op;
    let edits = label_edits md c (k - 1) in
    md.undo <- None;
    (op :: List.map fst edits, "structural")

let reply_ok reply =
  match Trace_read.parse_json reply with
  | Ok doc -> Harness.field "ok" doc = Some (Trace_read.Bool true)
  | Error _ -> false

let make ~seed : Harness.workload =
  let path = Filename.concat (Inputs.work_dir "dyn-edits") "many_scc-n65536.ocr" in
  let srv = ref None and md = ref None in
  let groups = ref [||] and made = ref 0 in
  let replies = ref [] and query_reply = ref "" in
  let session () = Dyn_serve.session (Option.get !srv) in
  let setup () =
    let g = Families.many_scc ~seed:(Inputs.sub_seed seed 1) ~components ~size () in
    Graph_io.write_file path g;
    let g = Graph_io.load path in
    let s = Dyn_serve.create (Dyn.create g) in
    (match Dyn_serve.handle s {|{"op":"query"}|} with
    | `Reply r when reply_ok r -> ()
    | _ -> failwith "dyn-edits: warm-up query failed");
    srv := Some s;
    let intra = Array.make components [] in
    for a = Digraph.m g - 1 downto 0 do
      let c = Digraph.src g a / size in
      if Digraph.dst g a / size = c then intra.(c) <- a :: intra.(c)
    done;
    md :=
      Some
        {
          rng = Rng.create (Inputs.sub_seed seed 2);
          intra = Array.map Array.of_list intra;
          weights = Hashtbl.create 1024;
          base_weight = Digraph.weight g;
          next_id = Digraph.m g;
          added = [];
          undo = None;
        };
    groups := [||];
    made := 0
  in
  let ready i =
    if i >= !made then begin
      if i >= Array.length !groups then
        groups := Array.append !groups (Array.make (max 1024 (Array.length !groups)) ([], ""));
      let ops, kind = next_group (Option.get !md) i in
      !groups.(i) <- (List.map line_of ops, kind);
      made := i + 1
    end
  in
  let request i =
    let s = Option.get !srv in
    let handle line = match Dyn_serve.handle s line with `Reply r -> r | `Quit -> "" in
    replies :=
      List.map (fun line -> Harness.span sp_update (fun () -> handle line)) (fst !groups.(i));
    query_reply := Harness.span sp_query (fun () -> handle {|{"op":"query"}|})
  in
  let layers i =
    let lines, kind = !groups.(i) in
    List.iter
      (fun line -> ignore (Harness.span sp_parse (fun () -> Dyn_protocol.parse line)))
      ({|{"op":"query"}|} :: lines);
    if kind = "structural" then begin
      let g = Dyn.graph (session ()) in
      let scc = Harness.span_alloc sp_scc sp_scc_alloc (fun () -> Scc.compute g) in
      ignore (Harness.span sp_partition (fun () -> Scc.partition g scc))
    end
  in
  (* every query's witness is checked, and every 100th query against a
     cold solve of the session's current graph *)
  let check i =
    let kind = snd !groups.(i) in
    let sess = session () in
    let answer = Result.to_option (Trace_read.parse_json !query_reply) in
    let get k = Option.bind answer (Harness.field k) in
    let num k = match get k with Some (Trace_read.Num x) -> Some x | _ -> None in
    let lambda = match get "lambda" with Some (Trace_read.Str l) -> Some l | _ -> None in
    (* the witness is a cycle of live session arcs whose mean is the
       answer *)
    let witness_attains () =
      match (get "cycle", Option.bind lambda Harness.ratio_of_string) with
      | Some (Trace_read.Arr (_ :: _ as arcs)), Some l ->
        let arcs =
          Array.of_list
            (List.map (function Trace_read.Num a -> Float.to_int a | _ -> -1) arcs)
        in
        let k = Array.length arcs in
        let live a = a >= 0 && a < Dyn.arc_count sess && Dyn.arc_alive sess a in
        Array.for_all live arcs
        && Array.for_all Fun.id
             (Array.mapi
                (fun j a -> Dyn.arc_dst sess a = Dyn.arc_src sess arcs.((j + 1) mod k))
                arcs)
        && Ratio.equal l
             (Ratio.make (Array.fold_left (fun s a -> s + Dyn.arc_weight sess a) 0 arcs) k)
      | _ -> false
    in
    let cold_agrees () =
      match Solver.solve ~algorithm:Registry.Howard (Dyn.graph sess) with
      | Some r ->
        Some (Ratio.to_string r.Solver.lambda) = lambda
        && Some (float_of_int r.Solver.components) = num "components"
      | None -> false
    in
    let ok =
      List.for_all reply_ok !replies
      && get "ok" = Some (Trace_read.Bool true)
      && witness_attains ()
      && (i mod 100 <> 0 || cold_agrees ())
    in
    if not ok then
      prerr_endline (Printf.sprintf "dyn-edits: request %d answered %s" i !query_reply);
    let facts =
      List.filter_map Fun.id
        [
          Option.map (fun r -> ("resolved", r)) (num "resolved");
          Option.map
            (fun c -> ("cached", if c = Trace_read.Bool true then 1.0 else 0.0))
            (get "cached");
        ]
    in
    {
      Harness.ok;
      kind;
      n = Dyn.n sess;
      m = Dyn.live_arcs sess;
      bytes = 0;
      facts;
    }
  in
  let info () =
    [
      Printf.sprintf
        "session: many_scc %d components x %d nodes, Dyn_serve with its default cache"
        components size;
      "groups of 1-4 updates then a query, in a rotation of ten: 6 label, 2 structural, 2 undo";
      "checked: every reply and witness; every 100th query against a cold Solver.solve";
    ]
  in
  { Harness.setup; ready; request; layers; check; count_prefix = 64; tail = Some 0.90; info }
