type t = { lo : int64; hi : int64 }

let golden = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer (Steele, Lea & Flood) — same mixer as Rng.
   [mix] and [absorb] are inlined so their Int64s stay unboxed in
   [of_graph]'s loop; as calls, each would return a boxed result. *)
let[@inline] mix z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] absorb st x = mix (Int64.add (Int64.add st golden) (Int64.of_int x))

let of_graph g =
  let n = Digraph.n g and m = Digraph.m g in
  (* two independently seeded lanes absorbing the same structural
     stream give a 128-bit state *)
  let lo = ref (absorb (absorb 0L n) m) in
  let hi = ref (absorb (absorb 0x6A09E667F3BCC909L m) n) in
  let srcs = Digraph.Unsafe.srcs g and dsts = Digraph.Unsafe.dsts g in
  let weights = Digraph.Unsafe.weights g and transits = Digraph.Unsafe.transits g in
  for a = 0 to m - 1 do
    let s = srcs.{a} and d = dsts.{a} in
    let w = weights.{a} and t = transits.{a} in
    lo := absorb (absorb (absorb (absorb !lo s) d) w) t;
    hi := absorb (absorb (absorb (absorb !hi t) w) d) s
  done;
  { lo = !lo; hi = !hi }

let equal a b = Int64.equal a.lo b.lo && Int64.equal a.hi b.hi

let hash t = Int64.to_int t.lo land max_int

let to_hex t = Printf.sprintf "%016Lx%016Lx" t.hi t.lo
