type init = [ `Cheapest_arc | `First_arc | `Random of int ]

(* Tracing span names, interned once at module initialization.  Every
   recording below sits behind one [tr] check sampled at solve entry,
   so the disabled path costs a handful of branches per iteration and
   allocates nothing — the kernel's Gc tests run with the
   instrumentation compiled in. *)
let sp_solve = Obs.intern "howard.solve"
let sp_iter = Obs.intern "howard.iteration"
let sp_eval = Obs.intern "howard.eval"
let sp_sweep = Obs.intern "howard.sweep"
let sp_improved = Obs.intern "howard.improved"

type int_array1 = Digraph.int_array1
type float_array1 = Digraph.float_array1

let ia len = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len
let fa len = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len

(* Reusable workspace: every array the steady-state policy iteration
   touches is preallocated here, so iterations allocate nothing on the
   minor heap (verified by the kernel's Gc.minor_words test).  The hot
   state lives in unboxed Bigarrays: off the OCaml heap (the GC never
   scans or moves it) and therefore shareable across domains without
   copying, which is what lets sweep chunks on worker domains read [d]
   and the arc gathers and write their winners in place.  Every
   per-iteration pass is a loop over node or arc indices whose loads do
   not depend on each other, so the CPU overlaps the cache misses of
   consecutive steps instead of chasing one pointer at a time.  One
   record serves repeated solves — Incremental keeps a single scratch
   across warm-start re-solves — growing monotonically to the largest
   instance seen. *)
type scratch = {
  mutable cap : int; (* node arrays valid for n <= cap *)
  mutable d : float_array1;
  mutable pi : int array;
  (* the policy arc seen from its node: succ.{u} = dst(pi u), pw.{u} its
     float weight, pden.{u} its float denominator; rewritten only where
     the sweep changes pi *)
  mutable succ : int_array1;
  mutable pw : float_array1;
  mutable pden : float_array1;
  (* evaluation by peeling the in-forest of u -> succ.{u} *)
  mutable indeg : int_array1;      (* 0 peeled, > 0 cycle, -1 scanned cycle *)
  mutable order : int_array1;      (* peeled nodes, leaves first *)
  mutable basin : int_array1;      (* smallest node id of the in-tree, then
                                      the basin's cycle label *)
  mutable cycle_arcs : int array;  (* n: best policy cycle, path order *)
  (* out-arcs gathered in CSR order, so the sweep reads each node's arcs
     as one contiguous run: head, float weight, float denominator (1.0
     for the mean problem) *)
  mutable arc_cap : int;
  mutable cdst : int_array1;
  mutable cw : float_array1;
  mutable cden : float_array1;
  (* sweep winners, one per node: best candidate and its CSR index *)
  mutable win_cand : float_array1;
  mutable win_k : int_array1;
  sweep_lambda : float array;        (* current λ, read by chunk tasks;
                                        a 1-cell float array so the
                                        per-iteration store stays
                                        unboxed (a mutable float field
                                        of this mixed record would box
                                        on every write) *)
  sweep_eps : float array;           (* convergence threshold ε·scale;
                                        same 1-cell trick — passing it
                                        as a float argument would box
                                        at every apply_winners call *)
  mutable chunk_relax : int array;   (* chunk -> improving-arc count *)
}

let create_scratch () =
  {
    cap = 0;
    d = fa 0;
    pi = [||];
    succ = ia 0;
    pw = fa 0;
    pden = fa 0;
    indeg = ia 0;
    order = ia 0;
    basin = ia 0;
    cycle_arcs = [||];
    arc_cap = 0;
    cdst = ia 0;
    cw = fa 0;
    cden = fa 0;
    win_cand = fa 0;
    win_k = ia 0;
    sweep_lambda = Array.make 1 0.0;
    sweep_eps = Array.make 1 0.0;
    chunk_relax = [||];
  }

let ensure_scratch s ~n ~m ~chunks =
  if n > s.cap then begin
    s.cap <- n;
    s.d <- fa n;
    s.pi <- Array.make n (-1);
    s.succ <- ia n;
    s.pw <- fa n;
    s.pden <- fa n;
    s.indeg <- ia n;
    s.order <- ia n;
    s.basin <- ia n;
    s.cycle_arcs <- Array.make n (-1);
    s.win_cand <- fa n;
    s.win_k <- ia n
  end;
  if m > s.arc_cap then begin
    s.arc_cap <- m;
    s.cdst <- ia m;
    s.cw <- fa m;
    s.cden <- fa m
  end;
  if chunks > Array.length s.chunk_relax then s.chunk_relax <- Array.make chunks 0

(* One chunk of the improvement sweep (Figure 1, lines 13-18) over the
   node range [lo, hi).  Candidates are evaluated against the node
   distances FROZEN at the start of the sweep — [d] is only read here,
   so chunks race-freely share it across domains (it is a Bigarray:
   plain memory no domain's GC ever moves) — and each node's winner is
   the smallest candidate with the lowest arc id on ties: a node's
   out-arcs sit in ascending id order in the CSR, so a strict
   comparison keeps the first minimum.  The float arithmetic is that of
   the per-arc form: [cden] is exact, and multiplying by an exact 1.0 is
   bit-identical to the mean form's plain [-. lambda].  Chunks write
   disjoint nodes, so the winner table needs no merge.  Allocation-free:
   the running minimum lives in locals. *)
let sweep_chunk s ~ostart lo hi ci =
  let d = s.d and cdst = s.cdst and cw = s.cw and cden = s.cden in
  let lambda = s.sweep_lambda.(0) in
  let relax = ref 0 in
  for u = lo to hi - 1 do
    let du = d.{u} in
    let k0 = (ostart : int_array1).{u} in
    let best = ref infinity and best_k = ref k0 in
    for k = k0 to ostart.{u + 1} - 1 do
      let cand = d.{cdst.{k}} +. cw.{k} -. (lambda *. cden.{k}) in
      if cand < du then incr relax;
      if cand < !best then begin
        best := cand;
        best_k := k
      end
    done;
    s.win_cand.{u} <- !best;
    s.win_k.{u} <- !best_k
  done;
  s.chunk_relax.(ci) <- !relax

(* Apply the winners to [d], [pi] and the policy view.  Returns whether
   any node improved by more than [eps].  The chunking is invisible
   here: the winners, the relaxation total, and the improvement verdict
   are identical for every chunk count, which is what makes reports
   bit-identical across job counts. *)
let apply_winners s ~n ~ocsr ~chunks st =
  let eps = s.sweep_eps.(0) in
  let d = s.d and pi = s.pi in
  let improved = ref false in
  for u = 0 to n - 1 do
    let cand = s.win_cand.{u} in
    let delta = d.{u} -. cand in
    if delta > 0.0 then begin
      let k = s.win_k.{u} in
      d.{u} <- cand;
      pi.(u) <- (ocsr : int_array1).{k};
      s.succ.{u} <- s.cdst.{k};
      s.pw.{u} <- s.cw.{k};
      s.pden.{u} <- s.cden.{k};
      if delta > eps then improved := true
    end
  done;
  for ci = 0 to chunks - 1 do
    st.Stats.relaxations <- st.Stats.relaxations + s.chunk_relax.(ci)
  done;
  !improved

(* Arcs-per-chunk grain for the sweep: a chunk below this many arcs is
   not worth a task spawn, so the chunk count is [min jobs (m / grain)]
   — small components and small sweeps stay serial, big ones split into
   node ranges of about [m / chunks] arcs each.  The default comes from
   [Executor.chunk_arcs ()] (4096, overridable via OCR_CHUNK_ARCS);
   [sweep_min_arcs] overrides it per solve — bench E14 and the chunking
   property tests force chunking on small instances with it.  The grain
   never affects results, only where the arcs are swept. *)

(* the first node whose out-arcs start at or after arc [target] *)
let node_at (ostart : int_array1) n target =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ostart.{mid} >= target then hi := mid else lo := mid + 1
  done;
  !lo

let solve ?stats ?budget ?(init = `Cheapest_arc) ?policy ?potentials ?scratch
    ?pool ?sweep_min_arcs ~ratio ~epsilon g =
  if Digraph.m g = 0 then invalid_arg "Howard: graph has no arcs";
  let tr = !Obs.enabled_flag in
  if tr then Trace.begin_span sp_solve;
  let n = Digraph.n g and m = Digraph.m g in
  (* chunk count for the improvement sweep, by the arcs-per-chunk cost
     model above: 1 (the serial path) without a multi-worker pool or
     on a sweep too small to amortize the fan-out *)
  let grain =
    match sweep_min_arcs with Some v -> v | None -> Executor.chunk_arcs ()
  in
  let chunks =
    match pool with
    | Some p -> Executor.chunks_for p ~work:m ~grain
    | None -> 1
  in
  let s = match scratch with Some s -> s | None -> create_scratch () in
  ensure_scratch s ~n ~m ~chunks;
  (* the graph's unboxed arrays: endpoints, the float64 weight mirror,
     the denominator mirror (exact by construction; see Digraph), and
     the out-arc CSR *)
  let srcs = Digraph.Unsafe.srcs g
  and dsts = Digraph.Unsafe.dsts g
  and wf = Digraph.Unsafe.weights_float g
  and tf = Digraph.Unsafe.transits_float g in
  let ostart, ocsr = Digraph.Unsafe.out_csr g in
  let den = if ratio then Digraph.transit g else fun _ -> 1 in
  for k = 0 to m - 1 do
    let a = ocsr.{k} in
    s.cdst.{k} <- dsts.{a};
    s.cw.{k} <- wf.{a};
    s.cden.{k} <- (if ratio then tf.{a} else 1.0)
  done;
  (* chunk [ci] sweeps the nodes [chunk_lo ci, chunk_lo (ci+1)), about
     m / chunks arcs; per-solve task closures, reused every iteration,
     read the current λ from the scratch, so the steady state only
     allocates the futures of the fan-out (O(chunks) words/iteration) *)
  let chunk_lo ci = node_at ostart n (ci * m / chunks) in
  let tasks =
    if chunks <= 1 then [||]
    else
      Array.init (chunks - 1) (fun i ->
          let ci = i + 1 in
          let lo = chunk_lo ci and hi = chunk_lo (ci + 1) in
          fun () -> sweep_chunk s ~ostart lo hi ci)
  in
  (* unconditional counter updates beat an option match in the hot
     loop; the dummy costs one allocation per un-instrumented solve *)
  let st = match stats with Some st -> st | None -> Stats.create () in
  let d = s.d and pi = s.pi in
  let succ = s.succ and pw = s.pw and pden = s.pden in
  (* initial policy: cheapest out-arc (Figure 1, lines 1-4) by
     default; a caller-supplied warm-start policy overrides [init]
     (the incremental re-solve path); the alternatives ablate how much
     the improved initialization buys (bench E9) *)
  for u = 0 to n - 1 do
    d.{u} <- infinity;
    pi.(u) <- -1
  done;
  (match policy with
  | Some p ->
    if Array.length p <> n then invalid_arg "Howard: wrong policy length";
    Array.iteri
      (fun u a ->
        if a < 0 || a >= m || Digraph.src g a <> u then
          invalid_arg "Howard: invalid warm-start policy";
        pi.(u) <- a;
        d.{u} <- wf.{a})
      p
  | None -> ());
  (* warm-started distances: the weight init above only seeds nodes the
     first evaluation will not reach (those feeding other policy
     cycles), and stale-but-nearly-feasible potentials from the last
     solve beat raw arc weights there by orders of magnitude — with
     them an unchanged graph reconverges in one sweep *)
  (match potentials with
  | Some pot ->
    if Array.length pot <> n then
      invalid_arg "Howard: wrong potentials length";
    if policy <> None then
      for u = 0 to n - 1 do
        d.{u} <- pot.(u)
      done
  | None -> ());
  (match (policy, init) with
  | Some _, _ -> ()
  | None, `Cheapest_arc ->
    for a = 0 to m - 1 do
      let u = srcs.{a} in
      let w = wf.{a} in
      if w < d.{u} then begin
        d.{u} <- w;
        pi.(u) <- a
      end
    done
  | None, `First_arc ->
    for a = 0 to m - 1 do
      let u = srcs.{a} in
      if pi.(u) < 0 then begin
        pi.(u) <- a;
        d.{u} <- wf.{a}
      end
    done
  | None, `Random seed ->
    (* xorshift-mixed reservoir choice among each node's out-arcs *)
    let state = ref (seed lxor 0x2545F4914F6CDD1D) in
    let next () =
      let x = !state in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      state := x;
      x land max_int
    in
    (* rejection sampling keeps the draw unbiased: a plain [next () mod
       deg] overweights small residues whenever deg does not divide
       max_int + 1 *)
    let draw deg =
      let lim = max_int - (max_int mod deg) in
      let rec go () =
        let x = next () in
        if x >= lim then go () else x mod deg
      in
      go ()
    in
    for u = 0 to n - 1 do
      let deg = Digraph.out_degree g u in
      if deg > 0 then begin
        let pick = draw deg in
        let i = ref 0 in
        Digraph.iter_out g u (fun a ->
            if !i = pick then begin
              pi.(u) <- a;
              d.{u} <- wf.{a}
            end;
            incr i)
      end
    done);
  for u = 0 to n - 1 do
    let a = pi.(u) in
    if a < 0 then invalid_arg "Howard: node without out-arc";
    succ.{u} <- dsts.{a};
    pw.{u} <- wf.{a};
    pden.{u} <- (if ratio then tf.{a} else 1.0)
  done;
  let scale =
    let acc = ref 1 in
    for a = 0 to m - 1 do
      let w = abs (Digraph.weight g a) in
      if w > !acc then acc := w
    done;
    float_of_int !acc
  in
  s.sweep_eps.(0) <- epsilon *. scale;
  (* Policy evaluation (zero-allocation), in independent passes over
     node arrays.  Kahn-peel the in-forest of the functional graph
     u -> succ.{u} into [order], pushing each node's basin minimum (the
     smallest node id of its in-tree) to its successor; the nodes that
     survive are the policy cycles.  Each cycle is scanned once for its
     exact ratio and basin minimum.  The best cycle has the smallest
     ratio, and on ties the smallest basin minimum — the cycle a walk
     from every start node in increasing order discovers first.  Its
     arcs go into [cycle_arcs] from [start], where the walk from that
     basin minimum enters the cycle; they become a list only on
     return. *)
  let indeg = s.indeg and order = s.order and basin = s.basin in
  let best_num = ref 0 in
  let best_den = ref 0 (* 0 = none found yet; real denominators are > 0 *) in
  let best_label = ref (-1) in
  let cycle_len = ref 0 in
  let peeled = ref 0 in
  let eval_policy () =
    for u = 0 to n - 1 do
      indeg.{u} <- 0;
      basin.{u} <- u
    done;
    for u = 0 to n - 1 do
      let v = succ.{u} in
      indeg.{v} <- indeg.{v} + 1
    done;
    let tail = ref 0 in
    for u = 0 to n - 1 do
      if indeg.{u} = 0 then begin
        order.{!tail} <- u;
        incr tail
      end
    done;
    let head = ref 0 in
    while !head < !tail do
      let u = order.{!head} in
      incr head;
      let v = succ.{u} in
      if basin.{u} < basin.{v} then basin.{v} <- basin.{u};
      indeg.{v} <- indeg.{v} - 1;
      if indeg.{v} = 0 then begin
        order.{!tail} <- v;
        incr tail
      end
    done;
    peeled := !tail;
    best_den := 0;
    let best_min = ref n in
    for u = 0 to n - 1 do
      if indeg.{u} > 0 then begin
        (* a new cycle, labelled by its smallest node [u] *)
        st.Stats.cycles_examined <- st.Stats.cycles_examined + 1;
        let num = ref 0 and dn = ref 0 and bmin = ref n in
        let x = ref u in
        while indeg.{!x} > 0 do
          indeg.{!x} <- -1;
          let a = pi.(!x) in
          num := !num + Digraph.weight g a;
          dn := !dn + den a;
          if basin.{!x} < !bmin then bmin := basin.{!x};
          basin.{!x} <- u;
          x := succ.{!x}
        done;
        if !dn <= 0 then
          invalid_arg "Howard: policy cycle with non-positive denominator \
                       (zero-transit cycle in the ratio problem?)";
        let lhs = !num * !best_den and rhs = !best_num * !dn in
        if !best_den = 0 || lhs < rhs || (lhs = rhs && !bmin < !best_min)
        then begin
          best_num := !num;
          best_den := !dn;
          best_min := !bmin;
          best_label := u
        end
      end
    done;
    assert (!best_den > 0) (* every functional graph has a cycle *);
    let start = ref !best_min in
    while indeg.{!start} = 0 do
      start := succ.{!start}
    done;
    let len = ref 0 and x = ref !start in
    while !len = 0 || !x <> !start do
      s.cycle_arcs.(!len) <- pi.(!x);
      incr len;
      x := succ.{!x}
    done;
    cycle_len := !len
  in
  let cap = (8 * n) + 64 in
  let iter = ref 0 in
  let converged = ref false in
  while (not !converged) && !iter < cap do
    incr iter;
    (match budget with Some b -> Budget.tick b | None -> ());
    st.Stats.iterations <- st.Stats.iterations + 1;
    if tr then begin
      Trace.begin_span sp_iter;
      Trace.begin_span sp_eval
    end;
    eval_policy ();
    let lambda = float_of_int !best_num /. float_of_int !best_den in
    (* node distances (Figure 1, lines 10-12): backwards round the best
       cycle to its start, whose distance stays, then over the peel
       order in reverse, so every node follows its successor.  Each
       peeled node takes its successor's basin label; only the nodes of
       the best basin get a new distance, the others keep theirs. *)
    for i = !cycle_len - 1 downto 1 do
      let u = srcs.{s.cycle_arcs.(i)} in
      d.{u} <- d.{succ.{u}} +. pw.{u} -. (lambda *. pden.{u})
    done;
    let best = !best_label in
    for i = !peeled - 1 downto 0 do
      let u = order.{i} in
      let v = succ.{u} in
      let b = basin.{v} in
      basin.{u} <- b;
      if b = best then d.{u} <- d.{v} +. pw.{u} -. (lambda *. pden.{u})
    done;
    (* improvement sweep (Figure 1, lines 13-18): each chunk records
       per-node winners against the distances frozen above; then they
       are applied.  With one chunk this is the serial kernel; with a
       pool, chunk 0 runs here while chunks 1.. run on the executor. *)
    if tr then begin
      Trace.end_span sp_eval;
      Trace.begin_span sp_sweep
    end;
    let relax_before = st.Stats.relaxations in
    s.sweep_lambda.(0) <- lambda;
    (match pool with
    | Some p when chunks > 1 ->
      let futs = Array.map (Executor.async p) tasks in
      sweep_chunk s ~ostart 0 (chunk_lo 1) 0;
      Array.iter (fun fut -> Executor.await p fut) futs
    | _ -> sweep_chunk s ~ostart 0 n 0);
    if not (apply_winners s ~n ~ocsr ~chunks st) then converged := true;
    if tr then begin
      Trace.counter_int sp_improved (st.Stats.relaxations - relax_before);
      Trace.end_span sp_sweep;
      Trace.end_span sp_iter
    end
  done;
  (* iteration cap hit: the best policy cycle of the current policy is
     still a sound candidate; the exact finisher corrects any gap.
     On convergence [cycle_arcs] already holds the cycle evaluated
     BEFORE the final sweep's sub-epsilon updates, as Figure 1 wants. *)
  if not !converged then eval_policy ();
  let cycle = ref [] in
  for i = !cycle_len - 1 downto 0 do
    cycle := s.cycle_arcs.(i) :: !cycle
  done;
  (match potentials with
  | Some pot ->
    for u = 0 to n - 1 do
      pot.(u) <- d.{u}
    done
  | None -> ());
  let lambda, witness = Critical.improve_to_optimal ?stats ~den g !cycle in
  if tr then Trace.end_span sp_solve;
  (lambda, witness, Array.sub pi 0 n)

let minimum_cycle_mean ?stats ?budget ?(epsilon = 1e-9) ?init ?scratch ?pool
    ?sweep_min_arcs g =
  let lambda, cycle, _ =
    solve ?stats ?budget ?init ?scratch ?pool ?sweep_min_arcs
      ~ratio:false ~epsilon g
  in
  (lambda, cycle)

let minimum_cycle_ratio ?stats ?budget ?(epsilon = 1e-9) ?init ?scratch ?pool
    ?sweep_min_arcs g =
  Critical.assert_ratio_well_posed g;
  let lambda, cycle, _ =
    solve ?stats ?budget ?init ?scratch ?pool ?sweep_min_arcs
      ~ratio:true ~epsilon g
  in
  (lambda, cycle)

let minimum_cycle_mean_warm ?stats ?(epsilon = 1e-9) ?policy ?potentials
    ?scratch ?pool ?sweep_min_arcs g =
  solve ?stats ?policy ?potentials ?scratch ?pool ?sweep_min_arcs
    ~ratio:false ~epsilon g

let minimum_cycle_ratio_warm ?stats ?(epsilon = 1e-9) ?policy ?potentials
    ?scratch ?pool ?sweep_min_arcs g =
  Critical.assert_ratio_well_posed g;
  solve ?stats ?policy ?potentials ?scratch ?pool ?sweep_min_arcs
    ~ratio:true ~epsilon g
