let generate ?(seed = 1) ?(weights = (1, 10000)) ?(transits = (1, 1)) ~n ~m () =
  if n < 1 then invalid_arg "Sprand.generate: n must be positive";
  if m < n then invalid_arg "Sprand.generate: m must be at least n";
  let rng = Rng.create seed in
  let wlo, whi = weights and tlo, thi = transits in
  let b = Digraph.create_builder n in
  let add u v =
    ignore
      (Digraph.add_arc b ~src:u ~dst:v ~weight:(Rng.in_range rng wlo whi)
         ~transit:(Rng.in_range rng tlo thi) ())
  in
  (* Hamiltonian cycle over a random node permutation *)
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  for i = 0 to n - 1 do
    add perm.(i) perm.((i + 1) mod n)
  done;
  (* remaining arcs uniformly at random (parallel arcs allowed, as in
     the original generator; self-loops excluded) *)
  for _ = n + 1 to m do
    let u = Rng.int rng n in
    let v = ref (Rng.int rng n) in
    while !v = u && n > 1 do
      v := Rng.int rng n
    done;
    add u !v
  done;
  Digraph.build b
