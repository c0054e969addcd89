type t = {
  count : int;
  component : int array;
}

(* Iterative Tarjan.  For each node we keep the classic index/lowlink
   pair; the explicit stack stores (node, next-out-arc-position) frames. *)
let compute g =
  let n = Digraph.n g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let component = Array.make n (-1) in
  let tarjan_stack = Vec.create () in
  let next_index = ref 0 in
  let comp_count = ref 0 in
  (* Materialized successor arrays give O(1) cursor access per frame. *)
  let out_adj = Array.make n [||] in
  for u = 0 to n - 1 do
    let acc = Vec.create () in
    Digraph.iter_out g u (fun a -> Vec.push acc (Digraph.dst g a));
    out_adj.(u) <- Vec.to_array acc
  done;
  let frames = Vec.create () in
  let start root =
    Vec.push frames (root, ref 0);
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    Vec.push tarjan_stack root;
    on_stack.(root) <- true;
    while not (Vec.is_empty frames) do
      let u, cursor = Vec.get frames (Vec.length frames - 1) in
      let succs = out_adj.(u) in
      if !cursor < Array.length succs then begin
        let v = succs.(!cursor) in
        incr cursor;
        if index.(v) < 0 then begin
          index.(v) <- !next_index;
          lowlink.(v) <- !next_index;
          incr next_index;
          Vec.push tarjan_stack v;
          on_stack.(v) <- true;
          Vec.push frames (v, ref 0)
        end
        else if on_stack.(v) then
          lowlink.(u) <- min lowlink.(u) index.(v)
      end
      else begin
        ignore (Vec.pop frames);
        if lowlink.(u) = index.(u) then begin
          (* u is the root of a component: pop it off the Tarjan stack *)
          let continue = ref true in
          while !continue do
            let w = Vec.pop tarjan_stack in
            on_stack.(w) <- false;
            component.(w) <- !comp_count;
            if w = u then continue := false
          done;
          incr comp_count
        end;
        if not (Vec.is_empty frames) then begin
          let p, _ = Vec.get frames (Vec.length frames - 1) in
          lowlink.(p) <- min lowlink.(p) lowlink.(u)
        end
      end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then start v
  done;
  { count = !comp_count; component }

(* a component is cyclic iff it has >= 2 nodes (strong connectivity
   forces a cycle) or a self-loop; both facts fall out of one O(n + m)
   sweep, with no per-component arc scans *)
let cyclic g t =
  let size = Array.make t.count 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) t.component;
  let cyclic = Array.map (fun s -> s >= 2) size in
  Digraph.iter_arcs g (fun a ->
      let u = Digraph.src g a in
      if u = Digraph.dst g a then cyclic.(t.component.(u)) <- true);
  cyclic

type subproblem = {
  comp : int;
  sub : Digraph.t;
  node_of_sub : int array;
  arc_of_sub : int array;
}

let partition ?(nontrivial_only = true) g t =
  let keep =
    if nontrivial_only then Array.get (cyclic g t) else fun _ -> true
  in
  let kept_ids = ref [] in
  for c = t.count - 1 downto 0 do
    if keep c then kept_ids := c :: !kept_ids
  done;
  let kept_ids = Array.of_list !kept_ids in
  let triples =
    Digraph.partition g ~count:t.count ~component:t.component ~keep
  in
  Array.mapi
    (fun i (sub, node_of_sub, arc_of_sub) ->
      { comp = kept_ids.(i); sub; node_of_sub; arc_of_sub })
    triples

let condensation g t =
  let b = Digraph.create_builder t.count in
  Digraph.iter_arcs g (fun a ->
      let cu = t.component.(Digraph.src g a)
      and cv = t.component.(Digraph.dst g a) in
      if cu <> cv then
        ignore
          (Digraph.add_arc b ~src:cu ~dst:cv ~weight:(Digraph.weight g a)
             ~transit:(Digraph.transit g a) ()));
  Digraph.build b
