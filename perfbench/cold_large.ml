(* cold-large: each request loads one large graph from its file, solves
   it with Howard and certifies the answer, the way `ocr solve --verify`
   serves a user.  At this size Graph_io, Scc/partition and Howard's
   eval/sweep are memory-bound and take nearly all the time; the engine
   cache, the parametric lanes and Dyn are not on the path.

   The instance is one fixed SPRAND graph, not one drawn from --seed:
   Howard's iteration count on SPRAND varies from 13 to 128 across
   generator seeds at n = 2^16, and still from 31 to 78 across node
   relabellings of this instance, so a seeded instance would spread the
   run-to-run latency far beyond any bound this benchmark may set.  The
   answer is therefore known: lambda = 70877/55. *)

let n = 1 lsl 18
let instance_seed = 1
let expected_lambda = "70877/55"

let sp_load = Obs.intern "bench.graph_io.load"
let sp_load_alloc = Obs.intern "bench.alloc.graph_io.load"
let sp_solve = Obs.intern "bench.solver.solve"
let sp_verify = Obs.intern "bench.verify.certify"
let sp_scc = Obs.intern "bench.scc.compute"
let sp_scc_alloc = Obs.intern "bench.alloc.scc.compute"
let sp_partition = Obs.intern "bench.scc.partition"

type answer = {
  graph : Digraph.t;
  report : Solver.report option;
  certificate : (unit, string) result;
}

let make () : Harness.workload =
  let path = Filename.concat (Inputs.work_dir "cold-large") "sprand-n262144.ocr" in
  let bytes = ref 0 in
  let last = ref None in
  let witness = ref None in
  let setup () =
    Graph_io.write_file path (Sprand.generate ~seed:instance_seed ~n ~m:(3 * n) ());
    bytes := Inputs.file_bytes path
  in
  let request _ =
    let graph = Harness.span_alloc sp_load sp_load_alloc (fun () -> Graph_io.load path) in
    let report =
      Harness.span sp_solve (fun () -> Solver.solve ~algorithm:Registry.Howard graph)
    in
    let certificate =
      match report with
      | None -> Error "acyclic"
      | Some r -> Harness.span sp_verify (fun () -> Verify.certify_report graph r)
    in
    last := Some { graph; report; certificate }
  in
  let layers _ =
    match !last with
    | None -> ()
    | Some a ->
      let scc = Harness.span_alloc sp_scc sp_scc_alloc (fun () -> Scc.compute a.graph) in
      ignore (Harness.span sp_partition (fun () -> Scc.partition a.graph scc))
  in
  let check _ =
    let a = Option.get !last in
    last := None;
    let ok =
      match (a.report, a.certificate) with
      | Some r, Ok () ->
        (* the same witness on every request of the run *)
        if !witness = None then witness := Some r.Solver.cycle;
        Ratio.to_string r.Solver.lambda = expected_lambda
        && !witness = Some r.Solver.cycle
      | _ -> false
    in
    {
      Harness.ok;
      kind = "";
      n = Digraph.n a.graph;
      m = Digraph.m a.graph;
      bytes = !bytes;
      facts = [];
    }
  in
  let info () =
    [
      Printf.sprintf "instance: SPRAND n=%d m=%d generator seed %d (fixed), %d bytes" n
        (3 * n) instance_seed !bytes;
      Printf.sprintf "answer: lambda %s, certified by Verify on every request" expected_lambda;
    ]
  in
  {
    Harness.setup;
    ready = ignore;
    request;
    layers;
    check;
    count_prefix = 1;
    tail = None;
    info;
  }
