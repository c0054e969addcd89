let generate ?(seed = 1) ?(density = 1.8) ?(locality = 8)
    ?(delays = (1, 100)) ~registers () =
  if registers < 2 then invalid_arg "Circuit.generate: need at least 2 registers";
  if density < 1.0 then invalid_arg "Circuit.generate: density below 1.0";
  let n = registers in
  let rng = Rng.create seed in
  let dlo, dhi = delays in
  let m = int_of_float (ceil (density *. float_of_int n)) in
  let b = Digraph.create_builder n in
  let add u v =
    ignore
      (Digraph.add_arc b ~src:u ~dst:v ~weight:(Rng.in_range rng dlo dhi) ())
  in
  (* global feedback ring over a random placement order *)
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  for i = 0 to n - 1 do
    add perm.(i) perm.((i + 1) mod n)
  done;
  (* local combinational paths: geometric span, random direction *)
  let geometric rng mean =
    (* number of failures before success, p = 1/mean *)
    let p = 1.0 /. float_of_int (max 1 mean) in
    let u = Rng.float rng in
    1 + int_of_float (Float.log1p (-.u) /. Float.log1p (-.p))
  in
  for _ = n + 1 to m do
    let i = Rng.int rng n in
    let span = geometric rng locality in
    (* the geometric tail is unbounded, so reduce with a true positive
       modulo — a fixed [+ k*n] offset underflows for span > k*n *)
    let j =
      if Rng.bool rng then (i + span) mod n
      else (((i - span) mod n) + n) mod n
    in
    if i <> j then add perm.(i) perm.(j)
  done;
  Digraph.build b

(* Register counts of the ISCAS'89 / LGSynth'91 sequential circuits the
   study drew from (flip-flop counts of the published netlists). *)
let benchmark_suite =
  [
    ("s27", 3); ("s208", 8); ("s298", 14); ("s344", 15); ("s349", 15);
    ("s382", 21); ("s386", 6); ("s400", 21); ("s420", 16); ("s444", 21);
    ("s510", 6); ("s526", 21); ("s641", 19); ("s713", 19); ("s820", 5);
    ("s832", 5); ("s838", 32); ("s953", 29); ("s1196", 18); ("s1238", 18);
    ("s1423", 74); ("s1488", 6); ("s1494", 6); ("s5378", 179);
    ("s9234", 211); ("s13207", 638); ("s15850", 534); ("s35932", 1728);
    ("s38417", 1636); ("s38584", 1426);
  ]

let benchmark ?(seed = 1) name =
  match List.assoc_opt name benchmark_suite with
  | None -> raise Not_found
  | Some registers ->
    (* derive a per-circuit seed so different circuits differ even with
       the same user seed *)
    let h = Hashtbl.hash name in
    generate ~seed:(seed + (h * 7919)) ~registers ()
