(* serve-mix and parametric: one client sends `ocr serve` request lines
   through the engine, over a pool of graph files written at set-up.

   The untraced run drives [Serve_loop.handle_request], the serve
   protocol's per-line entry.  The traced run drives the same four
   public calls that entry is made of (Request.parse_spec,
   Graph_io.load, Engine.solve, Engine.response_line), each under a
   span of its own, so that their shares are measured inside the
   request. *)

type graph = { path : string; n : int; m : int; bytes : int; ratio : bool }

type req = {
  gi : int;  (** index into the graph pool *)
  objective : Solver.objective;
  algorithm : string;  (** auto | exact | approx | lawler | oa1 *)
  eps : string option;  (** approx-eps, for algorithm=approx *)
  exact_mode : bool;  (** mode=exact *)
  verify : bool;
}

let placeholder =
  {
    gi = 0;
    objective = Solver.Minimize;
    algorithm = "auto";
    eps = None;
    exact_mode = false;
    verify = false;
  }

let problem_of g = if g.ratio then Solver.Cycle_ratio else Solver.Cycle_mean

let line_of graphs r =
  let g = graphs.(r.gi) in
  String.concat " "
    (List.filter
       (fun s -> s <> "")
       [
         g.path;
         (if g.ratio then "problem=ratio" else "");
         (match r.objective with Solver.Maximize -> "objective=max" | Solver.Minimize -> "");
         (if r.algorithm = "auto" then "" else "algorithm=" ^ r.algorithm);
         (match r.eps with Some e -> "approx-eps=" ^ e | None -> "");
         (if r.exact_mode then "mode=exact" else "");
         (if r.verify then "verify=true" else "");
       ])

(* ------------------------------------------------------------------ *)
(* reference answers, by a different route than the engine            *)
(* ------------------------------------------------------------------ *)

(* Howard through Solver.solve, certified by Verify; on mean instances
   of at most 2^10 nodes Karp2 must agree as well.  [None] marks a key
   whose routes disagree: every request on it then counts as failed. *)
let reference graphs (gi, objective) =
  let meta = graphs.(gi) in
  let problem = problem_of meta in
  let g = Graph_io.load meta.path in
  match Solver.solve ~objective ~problem ~algorithm:Registry.Howard g with
  | None -> None
  | Some r -> (
    match Verify.certify_report ~objective ~problem g r with
    | Error _ -> None
    | Ok () ->
      let agrees =
        meta.n > 1024 || meta.ratio
        ||
        match Solver.solve ~objective ~problem ~algorithm:Registry.Karp2 g with
        | Some k -> Ratio.equal k.Solver.lambda r.Solver.lambda
        | None -> false
      in
      if agrees then Some r.Solver.lambda else None)

let fields line =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> None)
    (String.split_on_char ' ' line)

(* The response line answers request [r] correctly given the reference
   optimum [lambda]. *)
let correct r lambda line =
  let f = fields line in
  let get k = List.assoc_opt k f in
  let certified = (not r.verify) || get "certificate" = Some "ok" in
  let equal s = Option.map (Ratio.equal lambda) (Harness.ratio_of_string s) = Some true in
  match get "status" with
  | Some "ok" ->
    certified
    && Option.map equal (get "lambda") = Some true
    && (r.algorithm = "auto" || get "alg" = Some r.algorithm)
    && ((not r.exact_mode)
       ||
       match (get "lambda_num", get "lambda_den") with
       | Some p, Some q -> equal (p ^ "/" ^ q)
       | _ -> false)
  | Some "approx" when r.algorithm = "approx" -> (
    certified
    &&
    let bound k = Option.bind (get k) Harness.ratio_of_string in
    match (bound "lambda_lo", bound "lambda_hi") with
    | Some lo, Some hi -> Ratio.leq lo lambda && Ratio.leq lambda hi
    | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* the workload                                                        *)
(* ------------------------------------------------------------------ *)

let sp_parse = Obs.intern "bench.request.parse"
let sp_load = Obs.intern "bench.graph_io.load"
let sp_load_alloc = Obs.intern "bench.alloc.graph_io.load"
let sp_serialize = Obs.intern "bench.engine.response_line"
let sp_fingerprint = Obs.intern "bench.fingerprint.of_graph"
let sp_verify = Obs.intern "bench.verify.certify"

(* Serve_loop.handle_request, call by call, each under its span. *)
let handle_traced eng ~id line =
  match Harness.span sp_parse (fun () -> Request.parse_spec line) with
  | Error msg -> (Printf.sprintf "req=%d status=error msg=%S" id msg, None)
  | Ok spec -> (
    match
      Harness.span_alloc sp_load sp_load_alloc (fun () -> Graph_io.load spec.Request.path)
    with
    | exception (Sys_error e | Failure e) ->
      (Printf.sprintf "req=%d file=%s status=error msg=%S" id spec.Request.path e, None)
    | g ->
      let req = Request.make ~id ~graph:g spec in
      let resp = Engine.solve eng req in
      (Harness.span sp_serialize (fun () -> Engine.response_line resp), Some (req, resp)))

(* [build ()] writes the graph pool and returns it with the request
   stream: a function called with 0, 1, 2, ... in turn. *)
let make ~name ~(build : unit -> graph array * (int -> req)) ~count_prefix ~tail ~describe :
    Harness.workload =
  let graphs = ref [||] in
  let next = ref (fun _ -> assert false) in
  let reqs = ref [||] and lines = ref [||] and made = ref 0 in
  let eng = ref (Engine.create ()) in
  let refs = Hashtbl.create 512 in
  let response = ref "" and traced_answer = ref None in
  let setup () =
    let g, nx = build () in
    graphs := g;
    next := nx;
    made := 0;
    reqs := [||];
    lines := [||];
    Hashtbl.reset refs;
    eng := Engine.create ();
    (* warm-up: eight requests on a scratch engine, so that the measured
       one starts empty *)
    let scratch = Engine.create () in
    Array.iteri
      (fun i meta ->
        if i < 8 then ignore (Serve_loop.handle_request scratch ~id:(i + 1) meta.path))
      g
  in
  let ready i =
    if i >= !made then begin
      if i >= Array.length !reqs then begin
        let grow a fill = Array.append a (Array.make (max 1024 (Array.length a)) fill) in
        reqs := grow !reqs placeholder;
        lines := grow !lines ""
      end;
      let r = !next i in
      !reqs.(i) <- r;
      !lines.(i) <- line_of !graphs r;
      made := i + 1
    end
  in
  let request i =
    if !Obs.enabled_flag then begin
      let line, answer = handle_traced !eng ~id:(i + 1) !lines.(i) in
      response := line;
      traced_answer := answer
    end
    else response := Serve_loop.handle_request !eng ~id:(i + 1) !lines.(i)
  in
  let layers _ =
    match !traced_answer with
    | None -> ()
    | Some (req, resp) -> (
      let g = req.Request.graph and spec = req.Request.spec in
      ignore (Harness.span sp_fingerprint (fun () -> Fingerprint.of_graph g));
      match resp.Engine.outcome with
      | Engine.Solved { lambda; cycle; _ } when spec.Request.verify ->
        ignore
          (Harness.span sp_verify (fun () ->
               Verify.certify ~objective:spec.Request.objective ~problem:spec.Request.problem g
                 lambda cycle))
      | _ -> ())
  in
  let check i =
    let r = !reqs.(i) and line = !response in
    traced_answer := None;
    let meta = !graphs.(r.gi) in
    let key = (r.gi, r.objective) in
    if not (Hashtbl.mem refs key) then Hashtbl.replace refs key (reference !graphs key);
    let ok =
      match Hashtbl.find refs key with Some lambda -> correct r lambda line | None -> false
    in
    let facts =
      match Option.bind (List.assoc_opt "fallbacks" (fields line)) float_of_string_opt with
      | Some x -> [ ("fallbacks", x) ]
      | None -> []
    in
    if not ok then prerr_endline (Printf.sprintf "%s: wrong answer to %S: %s" name !lines.(i) line);
    { Harness.ok; kind = r.algorithm; n = meta.n; m = meta.m; bytes = meta.bytes; facts }
  in
  let info () =
    let total = Array.fold_left (fun a g -> a + g.bytes) 0 !graphs in
    describe !graphs
    @ [ Printf.sprintf "pool: %d graph files, %d bytes" (Array.length !graphs) total ]
  in
  { Harness.setup; ready; request; layers; check; count_prefix; tail; info }

(* Writes graph [gi] of a pool and returns its metadata. *)
let write dir ~seed gi family ~n ~transits =
  let g = Inputs.generate family ~seed:(Inputs.sub_seed seed gi) ~n in
  let g =
    if transits then Inputs.with_transits ~seed:(Inputs.sub_seed seed (gi + 100_000)) g else g
  in
  let path = Filename.concat dir (Printf.sprintf "g%03d-%s.ocr" gi (Inputs.family_name family)) in
  Graph_io.write_file path g;
  { path; n = Digraph.n g; m = Digraph.m g; bytes = Inputs.file_bytes path; ratio = transits }

(* ------------------------------------------------------------------ *)
(* serve-mix                                                           *)
(* ------------------------------------------------------------------ *)

let families = [| Inputs.Sprand; Inputs.Circuit; Inputs.Many_scc; Inputs.Low_diameter |]
let exponents = [| 8; 9; 10; 11; 12 |]
let copies = 8

(* A fresh request names a (graph, objective) key not seen for 319
   fresh requests, more than the engine's 256-entry cache holds, so it
   misses; a repeat re-sends one of the last 8 fresh requests and hits.
   Fresh keys come in rounds that visit every (family, size) cell once,
   so any prefix of the stream has the same mix of families and sizes. *)
let serve_mix ~seed =
  let dir = Inputs.work_dir "serve-mix" in
  let cells = Array.length families * Array.length exponents in
  let build () =
    let graphs =
      Array.init (cells * copies) (fun gi ->
          let cell = gi mod cells and copy = gi / cells in
          let family = families.(cell mod Array.length families) in
          let n = 1 lsl exponents.(cell / Array.length families) in
          write dir ~seed gi family ~n ~transits:(copy mod 2 = 1))
    in
    let rng = Rng.create (Inputs.sub_seed seed 7) in
    let order = Array.init cells Fun.id in
    let fresh =
      Array.concat
        (List.init (2 * copies) (fun round ->
             Rng.shuffle rng order;
             Array.map
               (fun cell ->
                 let objective = if round mod 2 = 0 then Solver.Minimize else Solver.Maximize in
                 (cell + (cells * (round / 2)), objective))
               order))
    in
    (* even positions are fresh, odd ones repeat; verify=true on one
       fresh and one repeat request in every eight *)
    let recent = Array.make 8 placeholder and fresh_i = ref 0 in
    let next i =
      let verify = i mod 8 = 0 || i mod 8 = 5 in
      if i mod 2 = 1 then { (recent.(Rng.int rng 8)) with verify }
      else begin
        let k = !fresh_i mod Array.length fresh in
        incr fresh_i;
        let gi, objective = fresh.(k) in
        let r = { placeholder with gi; objective; exact_mode = k mod 5 = 0; verify } in
        if i = 0 then Array.fill recent 0 8 r;
        Array.blit recent 0 recent 1 7;
        recent.(0) <- r;
        r
      end
    in
    (graphs, next)
  in
  let describe graphs =
    [
      Printf.sprintf
        "families: sprand circuit many_scc low_diameter, n = 2^8..2^12, %d copies each; \
         odd copies carry transits (problem=ratio)"
        copies;
      Printf.sprintf
        "stream: %d fresh keys in rotation alternate with repeats of the last 8; \
         1/4 verify=true; 1/5 of fresh keys mode=exact"
        (2 * Array.length graphs);
    ]
  in
  make ~name:"serve-mix" ~build ~count_prefix:64 ~tail:(Some 0.99) ~describe

(* ------------------------------------------------------------------ *)
(* parametric                                                          *)
(* ------------------------------------------------------------------ *)

(* lane, graphs in the pool, node range, family: the approx lane gets
   the low-diameter graphs its value iteration is built for *)
let lanes =
  [|
    ("exact", 40, (512, 1024), Inputs.Sprand);
    ("approx", 40, (1024, 2048), Inputs.Low_diameter);
    ("lawler", 40, (128, 256), Inputs.Sprand);
    ("oa1", 40, (128, 256), Inputs.Sprand);
  |]

(* The pool holds 160 graphs, each asked under both objectives: 320
   distinct keys, more than the engine's cache holds, so no request is
   ever a cache hit.  Lanes take turns in a fixed order, so any prefix
   of the stream has the same lane mix. *)
let bit_reverse k =
  let rec go k acc bits =
    if bits = 0 then acc else go (k lsr 1) ((acc lsl 1) lor (k land 1)) (bits - 1)
  in
  go k 0 16

let parametric ~seed =
  let dir = Inputs.work_dir "parametric" in
  let build () =
    let rng = Rng.create (Inputs.sub_seed seed 11) in
    let pool = ref [] and gi = ref 0 in
    let by_lane =
      Array.map
        (fun (lane, count, (lo, hi), family) ->
          let graphs =
            Array.init count (fun k ->
                (* log-uniform sizes over the lane's range *)
                let f = Float.of_int in
                let n = Float.to_int (f lo *. ((f hi /. f lo) ** (f k /. f count))) in
                pool := write dir ~seed !gi family ~n ~transits:false :: !pool;
                incr gi;
                !gi - 1)
          in
          (* visit sizes in bit-reversed order, all minimizations first,
             so that any prefix spreads evenly over the size range *)
          let order = Array.init count Fun.id in
          Array.sort (fun a b -> compare (bit_reverse a) (bit_reverse b)) order;
          Array.concat
            (List.map
               (fun objective ->
                 Array.map
                   (fun k ->
                     let eps =
                       if lane <> "approx" then None
                       else Some (if k mod 2 = 0 then "0.1" else "0.01")
                     in
                     { placeholder with gi = graphs.(k); objective; algorithm = lane; eps })
                   order)
               [ Solver.Minimize; Solver.Maximize ]))
        lanes
    in
    let turns = Array.init (Array.length lanes) Fun.id in
    Rng.shuffle rng turns;
    let next i =
      let l = turns.(i mod Array.length turns) in
      let reqs = by_lane.(l) in
      reqs.(i / Array.length turns mod Array.length reqs)
    in
    (Array.of_list (List.rev !pool), next)
  in
  let describe _ =
    Array.to_list
      (Array.map
         (fun (lane, count, (lo, hi), family) ->
           Printf.sprintf "lane %s: %d %s graphs x {min,max}, n = %d..%d" lane count
             (Inputs.family_name family) lo hi)
         lanes)
  in
  make ~name:"parametric" ~build ~count_prefix:32 ~tail:(Some 0.90) ~describe
