let ring ?(weight = fun _ -> 1) n =
  if n < 1 then invalid_arg "Families.ring: empty";
  let b = Digraph.create_builder n in
  for i = 0 to n - 1 do
    ignore
      (Digraph.add_arc b ~src:i ~dst:((i + 1) mod n) ~weight:(weight i) ())
  done;
  Digraph.build b

let complete ?(seed = 1) ?(weights = (1, 10000)) n =
  if n < 2 then invalid_arg "Families.complete: need at least 2 nodes";
  let rng = Rng.create seed in
  let wlo, whi = weights in
  let b = Digraph.create_builder n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then
        ignore
          (Digraph.add_arc b ~src:u ~dst:v ~weight:(Rng.in_range rng wlo whi)
             ())
    done
  done;
  Digraph.build b

let grid_torus ?(seed = 1) ?(weights = (1, 10000)) rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Families.grid_torus: empty";
  let rng = Rng.create seed in
  let wlo, whi = weights in
  let id r c = (r * cols) + c in
  let b = Digraph.create_builder (rows * cols) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let add v =
        ignore
          (Digraph.add_arc b ~src:(id r c) ~dst:v
             ~weight:(Rng.in_range rng wlo whi) ())
      in
      add (id r ((c + 1) mod cols));
      add (id ((r + 1) mod rows) c)
    done
  done;
  Digraph.build b

let layered_dataflow ?(seed = 1) ?(weights = (1, 100)) ~layers ~width () =
  if layers < 2 || width < 1 then
    invalid_arg "Families.layered_dataflow: need >= 2 layers, >= 1 width";
  let rng = Rng.create seed in
  let wlo, whi = weights in
  let id l k = (l * width) + k in
  let b = Digraph.create_builder (layers * width) in
  let add u v =
    ignore
      (Digraph.add_arc b ~src:u ~dst:v ~weight:(Rng.in_range rng wlo whi) ())
  in
  for l = 0 to layers - 2 do
    for k = 0 to width - 1 do
      let fanout = 1 + Rng.int rng 3 in
      (* always connect to the same lane to keep every node reachable *)
      add (id l k) (id (l + 1) k);
      for _ = 2 to fanout do
        add (id l k) (id (l + 1) (Rng.int rng width))
      done
    done
  done;
  (* feedback: last layer back to the first, same lane *)
  for k = 0 to width - 1 do
    add (id (layers - 1) k) (id 0 k)
  done;
  Digraph.build b

let long_critical ?(chord_weight = 1000) n =
  if n < 3 then invalid_arg "Families.long_critical: need at least 3 nodes";
  let b = Digraph.create_builder n in
  for i = 0 to n - 1 do
    ignore (Digraph.add_arc b ~src:i ~dst:((i + 1) mod n) ~weight:1 ());
    ignore (Digraph.add_arc b ~src:i ~dst:((i + 2) mod n) ~weight:chord_weight ())
  done;
  Digraph.build b

let many_scc ?(seed = 1) ?(weights = (1, 10000)) ~components ~size () =
  if components < 1 || size < 1 then
    invalid_arg "Families.many_scc: need >= 1 components of >= 1 nodes";
  let rng = Rng.create seed in
  let wlo, whi = weights in
  let b = Digraph.create_builder (components * size) in
  let add u v =
    ignore (Digraph.add_arc b ~src:u ~dst:v ~weight:(Rng.in_range rng wlo whi) ())
  in
  for k = 0 to components - 1 do
    let base = k * size in
    (* strongly connected block: a ring plus [size] random chords *)
    for i = 0 to size - 1 do
      add (base + i) (base + ((i + 1) mod size))
    done;
    for _ = 1 to size do
      add (base + Rng.int rng size) (base + Rng.int rng size)
    done;
    (* a one-way bridge from the previous block keeps the graph weakly
       connected without merging components *)
    if k > 0 then add (base - 1) base
  done;
  Digraph.build b

let low_diameter ?(seed = 1) ?(weights = (1, 10000)) ~diameter n =
  if n < 2 then invalid_arg "Families.low_diameter: need at least 2 nodes";
  if diameter < 1 then invalid_arg "Families.low_diameter: diameter must be >= 1";
  let rng = Rng.create seed in
  let wlo, whi = weights in
  (* out-degree d with d^diameter >= n, so random chords alone give
     every node an expected hop-radius of about [diameter] *)
  let degree =
    max 2
      (int_of_float
         (Float.ceil (Float.pow (float_of_int n) (1.0 /. float_of_int diameter))))
  in
  let b = Digraph.create_builder n in
  let add u v =
    ignore (Digraph.add_arc b ~src:u ~dst:v ~weight:(Rng.in_range rng wlo whi) ())
  in
  for i = 0 to n - 1 do
    (* a ring arc guarantees strong connectivity... *)
    add i ((i + 1) mod n);
    (* ...and degree-1 uniform chords shrink the diameter *)
    for _ = 2 to degree do
      add i (Rng.int rng n)
    done
  done;
  Digraph.build b

let two_cycles ~len1 ~w1 ~len2 ~w2 =
  if len1 < 1 || len2 < 1 then invalid_arg "Families.two_cycles: empty cycle";
  (* node 0 is shared; cycle 1 uses nodes 1..len1-1, cycle 2 the rest *)
  let n = len1 + len2 - 1 in
  let b = Digraph.create_builder (max n 1) in
  let add u v w = ignore (Digraph.add_arc b ~src:u ~dst:v ~weight:w ()) in
  (* cycle 1: 0 -> 1 -> ... -> len1-1 -> 0 (or a self-loop if len1=1) *)
  if len1 = 1 then add 0 0 w1
  else begin
    for i = 0 to len1 - 2 do
      add i (i + 1) w1
    done;
    add (len1 - 1) 0 w1
  end;
  (* cycle 2 over 0 and nodes len1..n-1 *)
  if len2 = 1 then add 0 0 w2
  else begin
    add 0 len1 w2;
    for i = len1 to n - 2 do
      add i (i + 1) w2
    done;
    add (n - 1) 0 w2
  end;
  Digraph.build b
