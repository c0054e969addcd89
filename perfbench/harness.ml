(* The measurement loop shared by every workload: repeated set-up, a
   closed loop of requests from one client, correctness checks outside
   the timed region, the traced run's per-layer metrics, and the result
   line. *)

(* ------------------------------------------------------------------ *)
(* the workload interface                                              *)
(* ------------------------------------------------------------------ *)

type verdict = {
  ok : bool;  (** the answer passed the benchmark's correctness check *)
  kind : string;  (** lane or edit-group kind; "" on a single-kind workload *)
  n : int;  (** nodes of the request's graph *)
  m : int;  (** arcs of the request's graph *)
  bytes : int;  (** bytes of graph file the request loaded *)
  facts : (string * float) list;
      (** counts read off the program's answer ("resolved", "cached",
          "fallbacks") *)
}

type workload = {
  setup : unit -> unit;
      (** generate the inputs, write the files, create the engine or
          session, warm up; run several times, the last one is kept *)
  ready : int -> unit;  (** untimed: make request [i]'s input *)
  request : int -> unit;  (** timed: issue request [i] and keep its answer *)
  layers : int -> unit;
      (** traced run only, untimed: call the layers that run only inside
          another public call once more on request [i]'s input *)
  check : int -> verdict;  (** untimed: check request [i]'s answer *)
  count_prefix : int;
      (** exact counts are taken over this many traced requests, which
          the traced run always completes *)
  tail : float option;
      (** the percentile latency_ms_tail reports, fixed per workload so
          that it means the same in every run: the highest of p99 and
          p90 that leaves at least ten samples beyond it at the
          benchmark's run length; [None] is the maximum, for a workload
          with too few requests for either *)
  info : unit -> string list;  (** provenance lines for the report *)
}

(* ------------------------------------------------------------------ *)
(* spans and counters recorded by the benchmark itself                 *)
(* ------------------------------------------------------------------ *)

(* Every benchmark span is named "bench.<layer>" so that it can never
   merge with a span the program records under the layer's own name. *)
let span id f =
  Trace.begin_span id;
  match f () with
  | v ->
    Trace.end_span id;
    v
  | exception e ->
    Trace.end_span id;
    raise e

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [span] plus a counter sample of the words the call allocated. *)
let span_alloc id alloc_id f =
  if !Obs.enabled_flag then begin
    let w0 = allocated_words () in
    let v = span id f in
    Trace.counter alloc_id (allocated_words () -. w0);
    v
  end
  else f ()

let sp_gc_minor = Obs.intern "bench.gc.minor_words"
let sp_gc_major = Obs.intern "bench.gc.major_collections"

(* ------------------------------------------------------------------ *)
(* trace segments                                                      *)
(* ------------------------------------------------------------------ *)

type segment = {
  rows : (string, int * float) Hashtbl.t;  (** span -> count, total us *)
  counters : (string, float) Hashtbl.t;  (** counter track -> sum of samples *)
  instants : (string, int) Hashtbl.t;  (** instant -> count *)
  durations : (string, float list) Hashtbl.t;
      (** "bench.*" span -> each duration in us *)
}

(* A rational as the program prints it: "p/q", or "p" when q = 1. *)
let ratio_of_string s =
  match List.map int_of_string_opt (String.split_on_char '/' s) with
  | [ Some p ] -> Some (Ratio.of_int p)
  | [ Some p; Some q ] when q <> 0 -> Some (Ratio.make p q)
  | _ -> None

let field name = function
  | Trace_read.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

(* Export the ring, read it back through the trace reader, and clear
   it.  Span totals come from [Trace_read.summarize]; counters, instants
   and single durations from the same document via
   [Trace_read.parse_json]. *)
let take_segment () =
  let json = Trace.to_chrome_json () in
  Trace.reset ();
  let seg =
    {
      rows = Hashtbl.create 16;
      counters = Hashtbl.create 8;
      instants = Hashtbl.create 4;
      durations = Hashtbl.create 4;
    }
  in
  (match Trace_read.summarize json with
  | Error e -> failwith ("trace summary: " ^ e)
  | Ok rows ->
    List.iter
      (fun r ->
        Hashtbl.replace seg.rows r.Trace_read.sr_name
          (r.Trace_read.sr_count, r.Trace_read.sr_total_us))
      rows);
  let events =
    match Trace_read.parse_json json with
    | Error e -> failwith ("trace parse: " ^ e)
    | Ok doc -> (
      match field "traceEvents" doc with
      | Some (Trace_read.Arr evs) -> evs
      | _ -> failwith "trace parse: no traceEvents")
  in
  List.iter
    (fun ev ->
      match (field "ph" ev, field "name" ev) with
      | Some (Trace_read.Str "C"), Some (Trace_read.Str name) -> (
        match Option.bind (field "args" ev) (field "value") with
        | Some (Trace_read.Num v) ->
          let old = Option.value (Hashtbl.find_opt seg.counters name) ~default:0.0 in
          Hashtbl.replace seg.counters name (old +. v)
        | _ -> ())
      | Some (Trace_read.Str "i"), Some (Trace_read.Str name) ->
        let old = Option.value (Hashtbl.find_opt seg.instants name) ~default:0 in
        Hashtbl.replace seg.instants name (old + 1)
      | Some (Trace_read.Str "X"), Some (Trace_read.Str name)
        when String.starts_with ~prefix:"bench." name -> (
        match field "dur" ev with
        | Some (Trace_read.Num d) ->
          let old = Option.value (Hashtbl.find_opt seg.durations name) ~default:[] in
          Hashtbl.replace seg.durations name (d :: old)
        | _ -> ())
      | _ -> ())
    events;
  seg

(* ------------------------------------------------------------------ *)
(* statistics                                                          *)
(* ------------------------------------------------------------------ *)

let percentile xs q = Trace_read.percentile xs q
let median xs = percentile xs 0.5
let ratio a b = if b > 0.0 then a /. b else 0.0

(* The workload's tail percentile, and a note of how many samples lie
   beyond it. *)
let tail q xs =
  let n = List.length xs in
  match q with
  | None -> (List.fold_left Float.max 0.0 xs, Printf.sprintf "max of %d samples" n)
  | Some q ->
    let v = percentile xs q in
    let beyond = List.length (List.filter (fun x -> x > v) xs) in
    ( v,
      Printf.sprintf "p%.0f of %d samples, %d beyond it%s" (q *. 100.0) n beyond
        (if beyond < 10 then " (fewer than 10: too few requests for this percentile)" else "") )

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

type sample = {
  v : verdict;
  latency_us : float;
  inside : segment;  (** spans recorded during the request *)
  dup : segment;  (** spans of the repeated layer calls after it *)
}

(* name, unit, description: the traced run reports every one on every
   workload; a layer the workload never reaches reads 0. *)
let layer_metrics =
  [
    ("graph_io.load_ns_per_byte", "ns/B", "Graph_io.load time per file byte");
    ("graph_io.load_share", "ratio", "Graph_io.load share of request time");
    ("graph_io.alloc_words_per_arc", "words/arc", "words Graph_io.load allocates per arc");
    ("scc.compute_ns_per_arc", "ns/arc", "Scc.compute time per arc");
    ("scc.partition_ns_per_arc", "ns/arc", "Scc.partition time per arc");
    ("scc.alloc_words_per_arc", "words/arc", "words Scc.compute allocates per arc");
    ("scc.share", "ratio", "Scc.compute + Scc.partition share of request time");
    ("solver.components", "count", "solver.component spans per request (exact)");
    ("solver.partition_ms", "ms", "solver.partition span, mean");
    ("howard.iterations", "count", "howard.iteration spans per request (exact)");
    ("howard.eval_ns_per_node_iter", "ns", "howard.eval time per node per iteration");
    ("howard.sweep_ns_per_arc_iter", "ns", "howard.sweep time per arc per iteration");
    ("howard.eval_share", "ratio", "howard.eval share of request time");
    ("howard.sweep_share", "ratio", "howard.sweep share of request time");
    ("verify.certify_ns_per_arc", "ns/arc", "Verify.certify time per arc");
    ("verify.share", "ratio", "Verify.certify share of request time");
    ("fingerprint.ns_per_arc", "ns/arc", "Fingerprint.of_graph time per arc");
    ("request.parse_us", "us", "Request.parse_spec time, mean");
    ("engine.cache_hit_ratio", "ratio", "engine.cache_hit / (hit + miss) instants");
    ("engine.hit_ms_p50", "ms", "engine.request span on cache hits, median");
    ("engine.miss_ms_p50", "ms", "engine.request span on cache misses, median");
    ("engine.fallbacks", "count", "portfolio fallbacks per request (exact)");
    ("engine.serialize_us", "us", "Engine.response_line time, mean");
    ("exact.ms_per_req", "ms", "algorithm=exact request time, mean");
    ("approx.ms_per_req", "ms", "algorithm=approx request time, mean");
    ("lawler.ms_per_req", "ms", "algorithm=lawler request time, mean");
    ("oa.ms_per_req", "ms", "algorithm=oa1 request time, mean");
    ("oracle.calls", "count", "bf.run + bf.run_float + approx.vi spans per request (exact)");
    ("bf.run_ns_per_arc", "ns/arc", "bf.run time per arc scanned");
    ("approx.vi_rounds", "count", "value-iteration rounds per request (exact)");
    ("oracle.share", "ratio", "negative-cycle oracle share of request time");
    ("dyn_protocol.parse_us", "us", "Dyn_protocol.parse time, mean");
    ("dyn.update_us_p50", "us", "one update line through Dyn_serve.handle, median");
    ("dyn.query_ms_label_p50", "ms", "query line after label edits, median");
    ("dyn.query_ms_structural_p50", "ms", "query line after a structural edit, median");
    ("dyn.resolved_per_query", "count", "components re-solved per query (exact)");
    ("warm.hint_confirm_ratio", "ratio", "hint passes that needed no Howard, label edits");
    ("dyn_serve.cache_hit_ratio", "ratio", "queries answered from the fingerprint cache");
    ("gc.minor_words_per_req", "words", "minor-heap words allocated per request");
    ("gc.major_collections_per_req", "count", "major collections per request");
    ("trace.overhead_ratio", "ratio", "traced over untraced latency_ms_p50 in the traced run");
  ]

let find tbl name ~default = Option.value (Hashtbl.find_opt tbl name) ~default
let count seg name = float_of_int (fst (find seg.rows name ~default:(0, 0.0)))
let total seg name = snd (find seg.rows name ~default:(0, 0.0))
let counter seg name = find seg.counters name ~default:0.0
let instant seg name = float_of_int (find seg.instants name ~default:0)
let fact s name = List.assoc_opt name s.v.facts

let oracle_spans = [ "bf.run"; "bf.run_float"; "approx.vi" ]

let derive ~prefix ~overhead samples =
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 samples in
  let where p f s = if p s then f s else 0.0 in
  let fi = float_of_int in
  let exact_count f =
    let first = List.filteri (fun i _ -> i < prefix) samples in
    ratio (List.fold_left (fun acc s -> acc +. f s) 0.0 first) (fi (List.length first))
  in
  let mean_of p f =
    let xs = List.filter p samples in
    ratio (List.fold_left (fun acc s -> acc +. f s) 0.0 xs) (fi (List.length xs))
  in
  let median_of p f = median (List.map f (List.filter p samples)) in
  let latency = sum (fun s -> s.latency_us) in
  let both name s = total s.inside name +. total s.dup name in
  let has_dup name s = count s.dup name > 0.0 in
  let load = "bench.graph_io.load" in
  let loaded s = count s.inside load > 0.0 in
  let verify = "bench.verify.certify" in
  let verified s = count s.inside verify +. count s.dup verify > 0.0 in
  let lane k s = s.v.kind = k in
  let hit s = instant s.inside "engine.cache_hit" > 0.0 in
  let miss s = instant s.inside "engine.cache_miss" > 0.0 in
  let oracle s = List.fold_left (fun a n -> a +. total s.inside n) 0.0 oracle_spans in
  let per_span name s = ratio (total s.inside name) (count s.inside name) in
  let locates = sum (where (lane "label") (fun s -> count s.inside "warm.locate")) in
  let howards = sum (where (lane "label") (fun s -> count s.inside "warm.howard")) in
  let queried s = fact s "cached" <> None in
  let value = function
    | "graph_io.load_ns_per_byte" ->
      ratio (1e3 *. sum (fun s -> total s.inside load)) (sum (where loaded (fun s -> fi s.v.bytes)))
    | "graph_io.load_share" -> ratio (sum (fun s -> total s.inside load)) latency
    | "graph_io.alloc_words_per_arc" ->
      ratio (sum (fun s -> counter s.inside "bench.alloc.graph_io.load"))
        (sum (where loaded (fun s -> fi s.v.m)))
    | "scc.compute_ns_per_arc" ->
      ratio (1e3 *. sum (fun s -> total s.dup "bench.scc.compute"))
        (sum (where (has_dup "bench.scc.compute") (fun s -> fi s.v.m)))
    | "scc.partition_ns_per_arc" ->
      ratio (1e3 *. sum (fun s -> total s.dup "bench.scc.partition"))
        (sum (where (has_dup "bench.scc.partition") (fun s -> fi s.v.m)))
    | "scc.alloc_words_per_arc" ->
      ratio (sum (fun s -> counter s.dup "bench.alloc.scc.compute"))
        (sum (where (has_dup "bench.scc.compute") (fun s -> fi s.v.m)))
    | "scc.share" ->
      ratio
        (sum (fun s -> total s.dup "bench.scc.compute" +. total s.dup "bench.scc.partition"))
        (sum (where (has_dup "bench.scc.compute") (fun s -> s.latency_us)))
    | "solver.components" -> exact_count (fun s -> count s.inside "solver.component")
    | "solver.partition_ms" ->
      1e-3 *. ratio (sum (fun s -> total s.inside "solver.partition"))
        (sum (fun s -> count s.inside "solver.partition"))
    | "howard.iterations" -> exact_count (fun s -> count s.inside "howard.iteration")
    | "howard.eval_ns_per_node_iter" ->
      ratio (1e3 *. sum (fun s -> total s.inside "howard.eval"))
        (sum (fun s -> count s.inside "howard.eval" *. fi s.v.n))
    | "howard.sweep_ns_per_arc_iter" ->
      ratio (1e3 *. sum (fun s -> total s.inside "howard.sweep"))
        (sum (fun s -> count s.inside "howard.sweep" *. fi s.v.m))
    | "howard.eval_share" -> ratio (sum (fun s -> total s.inside "howard.eval")) latency
    | "howard.sweep_share" -> ratio (sum (fun s -> total s.inside "howard.sweep")) latency
    | "verify.certify_ns_per_arc" ->
      ratio (1e3 *. sum (both verify)) (sum (where verified (fun s -> fi s.v.m)))
    | "verify.share" -> ratio (sum (both verify)) latency
    | "fingerprint.ns_per_arc" ->
      ratio (1e3 *. sum (fun s -> total s.dup "bench.fingerprint.of_graph"))
        (sum (where (has_dup "bench.fingerprint.of_graph") (fun s -> fi s.v.m)))
    | "request.parse_us" ->
      ratio (sum (fun s -> total s.inside "bench.request.parse"))
        (sum (fun s -> count s.inside "bench.request.parse"))
    | "engine.cache_hit_ratio" ->
      let h = sum (fun s -> instant s.inside "engine.cache_hit") in
      ratio h (h +. sum (fun s -> instant s.inside "engine.cache_miss"))
    | "engine.hit_ms_p50" -> 1e-3 *. median_of hit (per_span "engine.request")
    | "engine.miss_ms_p50" -> 1e-3 *. median_of miss (per_span "engine.request")
    | "engine.fallbacks" ->
      exact_count (fun s -> Option.value (fact s "fallbacks") ~default:0.0)
    | "engine.serialize_us" ->
      ratio (sum (fun s -> total s.inside "bench.engine.response_line"))
        (sum (fun s -> count s.inside "bench.engine.response_line"))
    | "exact.ms_per_req" -> 1e-3 *. mean_of (lane "exact") (fun s -> s.latency_us)
    | "approx.ms_per_req" -> 1e-3 *. mean_of (lane "approx") (fun s -> s.latency_us)
    | "lawler.ms_per_req" -> 1e-3 *. mean_of (lane "lawler") (fun s -> s.latency_us)
    | "oa.ms_per_req" -> 1e-3 *. mean_of (lane "oa1") (fun s -> s.latency_us)
    | "oracle.calls" ->
      exact_count (fun s -> List.fold_left (fun a n -> a +. count s.inside n) 0.0 oracle_spans)
    | "bf.run_ns_per_arc" ->
      (* arcs scanned: the nodes each bf.run reports times the graph's
         arcs per node (exact on strongly connected graphs) *)
      ratio (1e3 *. sum (fun s -> total s.inside "bf.run"))
        (sum (fun s -> counter s.inside "bf.nodes" *. ratio (fi s.v.m) (fi s.v.n)))
    | "approx.vi_rounds" -> exact_count (fun s -> counter s.inside "approx.vi_rounds")
    | "oracle.share" -> ratio (sum oracle) latency
    | "dyn_protocol.parse_us" ->
      ratio (sum (fun s -> total s.dup "bench.dyn_protocol.parse"))
        (sum (fun s -> count s.dup "bench.dyn_protocol.parse"))
    | "dyn.update_us_p50" ->
      median
        (List.concat_map
           (fun s -> find s.inside.durations "bench.dyn.update" ~default:[])
           samples)
    | "dyn.query_ms_label_p50" ->
      1e-3 *. median_of (lane "label") (fun s -> total s.inside "bench.dyn.query")
    | "dyn.query_ms_structural_p50" ->
      1e-3 *. median_of (lane "structural") (fun s -> total s.inside "bench.dyn.query")
    | "dyn.resolved_per_query" ->
      exact_count (fun s -> Option.value (fact s "resolved") ~default:0.0)
    | "warm.hint_confirm_ratio" -> ratio (locates -. howards) locates
    | "dyn_serve.cache_hit_ratio" ->
      mean_of queried (fun s -> Option.value (fact s "cached") ~default:0.0)
    | "gc.minor_words_per_req" ->
      mean_of (fun _ -> true) (fun s -> counter s.inside "bench.gc.minor_words")
    | "gc.major_collections_per_req" ->
      mean_of (fun _ -> true) (fun s -> counter s.inside "bench.gc.major_collections")
    | "trace.overhead_ratio" -> overhead
    | name -> invalid_arg ("unknown layer metric " ^ name)
  in
  List.map (fun (name, unit, _) -> (name, value name, unit)) layer_metrics

(* ------------------------------------------------------------------ *)
(* the run                                                             *)
(* ------------------------------------------------------------------ *)

let setup_reps = 5

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  notes : string list;
}

let number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else invalid_arg "non-finite metric value"

let result_line r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Obs.json_string name)
              (number v) (Obs.json_string unit))
          r.metrics))

let run ~seed ~seconds ~traced (w : workload) =
  let setups =
    List.init setup_reps (fun _ ->
        let t0 = Obs.now_ns () in
        w.setup ();
        float_of_int (Obs.now_ns () - t0) *. 1e-9)
  in
  if traced then Trace.configure ~capacity:(1 lsl 20) ();
  Gc.full_major ();
  (* which requests the traced run traces: a coin of its own, so the
     traced and untraced halves see the same mix of requests *)
  let coin = Rng.create (seed lxor 0x7ace) in
  let budget = seconds *. 1e9 in
  let busy = ref 0 in
  let plain = ref [] and traced_lat = ref [] and samples = ref [] in
  let attempted = ref 0 and failed = ref 0 and n_traced = ref 0 in
  let i = ref 0 in
  (* the traced run also completes its count prefix, and at least one
     untraced request for the overhead ratio *)
  while
    float_of_int !busy < budget
    || (traced && (!n_traced < w.count_prefix || !plain = []))
  do
    let i' = !i in
    w.ready i';
    let on = traced && Rng.bool coin in
    if on then begin
      Trace.reset ();
      Obs.enable ()
    end;
    let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
    let t0 = Obs.now_ns () in
    let raised = match w.request i' with () -> None | exception e -> Some e in
    let dt = Obs.now_ns () - t0 in
    busy := !busy + dt;
    let latency_us = float_of_int dt *. 1e-3 in
    let sample =
      if on then begin
        Trace.counter sp_gc_minor (Gc.minor_words () -. minor0);
        Trace.counter_int sp_gc_major ((Gc.quick_stat ()).Gc.major_collections - major0);
        let inside = take_segment () in
        if raised = None then w.layers i';
        let dup = take_segment () in
        Obs.disable ();
        Some (inside, dup)
      end
      else None
    in
    let v =
      match raised with
      | Some e ->
        prerr_endline (Printf.sprintf "request %d raised %s" i' (Printexc.to_string e));
        { ok = false; kind = ""; n = 0; m = 0; bytes = 0; facts = [] }
      | None -> w.check i'
    in
    incr attempted;
    if not v.ok then incr failed;
    (match sample with
    | Some (inside, dup) ->
      incr n_traced;
      traced_lat := latency_us :: !traced_lat;
      samples := { v; latency_us; inside; dup } :: !samples
    | None -> plain := latency_us :: !plain);
    incr i
  done;
  if traced && Trace.dropped () > 0 then failwith "trace ring overflowed";
  let ms xs = List.map (fun us -> us *. 1e-3) xs in
  let lat = ms !plain in
  let tail_ms, tail_note = tail w.tail lat in
  let notes =
    [
      Printf.sprintf "setup_s runs: %s"
        (String.concat " " (List.map (Printf.sprintf "%.3f") setups));
      Printf.sprintf "requests: %d attempted, %d failed, failed_ratio %g" !attempted !failed
        (ratio (float_of_int !failed) (float_of_int !attempted));
      Printf.sprintf "latency samples: %d untraced, %d traced" (List.length !plain) !n_traced;
      Printf.sprintf "latency_ms_tail: %s" tail_note;
    ]
  in
  let metrics =
    if traced then
      let overhead = ratio (median (ms !traced_lat)) (median lat) in
      derive ~prefix:w.count_prefix ~overhead (List.rev !samples)
    else
      [
        ("setup_s", median setups, "s");
        ("req_per_s", ratio (float_of_int !attempted) (float_of_int !busy *. 1e-9), "1/s");
        ("latency_ms_p50", median lat, "ms");
        ("latency_ms_tail", tail_ms, "ms");
        ("peak_rss_mb", peak_rss_mb (), "MB");
      ]
  in
  { attempted = !attempted; failed = !failed; metrics; notes = w.info () @ notes }
