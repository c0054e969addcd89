let sample () =
  Digraph.of_arcs 3 [ (0, 1, -5, 1); (1, 2, 10000, 7); (2, 0, 0, 2) ]

let test_roundtrip () =
  let g = sample () in
  let g' = Graph_io.of_string (Graph_io.to_string g) in
  Alcotest.(check bool) "identical" true (Digraph.equal_structure g g')

let test_format_details () =
  let s = Graph_io.to_string (sample ()) in
  Alcotest.(check bool) "problem line" true
    (String.length s > 0 && String.sub s 0 9 = "p ocr 3 3")

let test_parse_defaults_and_comments () =
  let g =
    Graph_io.of_string
      "# a comment\np ocr 2 2\na 1 2 5\n\na 2 1 -3 4\n# trailing comment\n"
  in
  Alcotest.(check int) "m" 2 (Digraph.m g);
  Alcotest.(check int) "default transit" 1 (Digraph.transit g 0);
  Alcotest.(check int) "explicit transit" 4 (Digraph.transit g 1);
  Alcotest.(check int) "1-indexed in file, 0-indexed in API" 0 (Digraph.src g 0)

(* a parse outcome, printed: the node count and every arc in id order,
   or the Failure message *)
let outcome parse input =
  match parse input with
  | exception Failure msg -> "error: " ^ msg
  | g ->
    let b = Buffer.create 64 in
    Printf.bprintf b "n=%d" (Digraph.n g);
    Digraph.iter_arcs g (fun a ->
        Printf.bprintf b " %d>%d:%d/%d" (Digraph.src g a) (Digraph.dst g a)
          (Digraph.weight g a) (Digraph.transit g a));
    Buffer.contents b

(* every (parser, input, message) triple must be rejected with exactly
   that Failure message *)
let expect_parse_error name cases =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun ((parse, input), msg) ->
          Alcotest.(check string) (Printf.sprintf "%S" input) ("error: " ^ msg)
            (outcome parse input))
        cases)

let native input = (Graph_io.of_string, input)
let dimacs input = (Graph_io.of_dimacs, input)

(* Outcomes pinned from the line-splitting parser Graph_io had before
   its byte scanner: the edge cases of the tokenizer (what String.trim
   drops, what a space-split keeps inside a token, what
   int_of_string_opt accepts beyond plain decimals) and every
   message. *)
let pinned_outcomes =
  [
    (native "p ocr 2 1\na 1 9 3 1\n",
     "error: Graph_io: line 2: Digraph.add_arc: endpoint out of range");
    (native "p ocr 2 1\na 0 1 3\n",
     "error: Graph_io: line 2: Digraph.add_arc: endpoint out of range");
    (native "p ocr 2 1\na -0 1 3\n",
     "error: Graph_io: line 2: Digraph.add_arc: endpoint out of range");
    (native "p ocr 2 1\na 1 2 3 -1\n",
     "error: Graph_io: line 2: Digraph.add_arc: negative transit time");
    (native "p ocr 2 1\na 1 3 3 -1\n",
     "error: Graph_io: line 2: Digraph.add_arc: endpoint out of range");
    (native "p ocr -1 0\n", "error: Graph_io: line 1: malformed problem line");
    (native "p ocr 2 x\n", "error: Graph_io: line 1: malformed problem line");
    (native "p ocr 2\n", "error: Graph_io: line 1: unknown record \"p\"");
    (native "p sp 2 1\n", "error: Graph_io: line 1: unknown record \"p\"");
    (native "p ocr 2 1 0\n", "error: Graph_io: line 1: unknown record \"p\"");
    (native "p ocr 2 1\na 1 2\n", "error: Graph_io: line 2: malformed arc line");
    (native "p ocr 2 1\na\n", "error: Graph_io: line 2: malformed arc line");
    (native "p ocr 2 1\na 1 2 3 4 5\n",
     "error: Graph_io: line 2: malformed arc line");
    (native "p ocr 2 1\na 1 2 -\n", "error: Graph_io: line 2: malformed arc line");
    (native "p ocr 2 1\na 1 2 --3\n", "error: Graph_io: line 2: malformed arc line");
    (native "p ocr 2 1\na 1 2 99999999999999999999\n",
     "error: Graph_io: line 2: malformed arc line");
    (native "p ocr 2 1\na 1 2 4611686018427387904\n",
     "error: Graph_io: line 2: malformed arc line");
    (native "p ocr 2 1\na 1 2 9999999999999999999\n",
     "error: Graph_io: line 2: malformed arc line");
    (native "p ocr 2 1\na 1 2 -4611686018427387905\n",
     "error: Graph_io: line 2: malformed arc line");
    (native "p ocr 2 1\na 1 2 4611686018427387903\n",
     "n=2 0>1:4611686018427387903/1");
    (native "p ocr 2 1\na 1 2 -4611686018427387904\n",
     "n=2 0>1:-4611686018427387904/1");
    (native "p ocr 2 1\na +1 2 0x1f 0b1\n", "n=2 0>1:31/1");
    (native "p ocr 2 1\na 1 2 1_000 0o7\n", "n=2 0>1:1000/7");
    (native "p ocr 2 1\na 1 2 007\na 2 1 -007\n", "n=2 0>1:7/1 1>0:-7/1");
    (native "p ocr 0x2 0x10\na 2 1 3\n", "n=2 1>0:3/1");
    (native "p ocr 2 1\r\na 1 2 3\r\n", "n=2 0>1:3/1");
    (native "p  ocr   2 1\n  a  1   2 3   \n", "n=2 0>1:3/1");
    (native "\t p ocr 2 1 \t\na\t1 2 3\n",
     "error: Graph_io: line 2: unknown record \"a\\t1\"");
    (native "p ocr 2 1\na 1 2\t3\n", "error: Graph_io: line 2: malformed arc line");
    (native "p ocr 2 1\na 1 2 3\012\n", "n=2 0>1:3/1");
    (native "p ocr 2 1\na 1 2 3\t\n", "n=2 0>1:3/1");
    (native "p ocr 2 1\na 1 2 3\x0b\n", "error: Graph_io: line 2: malformed arc line");
    (native "p ocr 2 1\n#a 1 2 3\n", "n=2");
    (native "p ocr 2 1\nc 1 2 3\n", "error: Graph_io: line 2: unknown record \"c\"");
    (native "p ocr 2 1\nab 1 2 3\n", "error: Graph_io: line 2: unknown record \"ab\"");
    (native "p ocr 2 1\na 1 2 3\np ocr 2 1\n",
     "error: Graph_io: line 3: duplicate problem line");
    (native "p ocr 2 1\na 1 2 3\np ocr x 1\n",
     "error: Graph_io: line 3: duplicate problem line");
    (native "p ocr 0 0\n", "n=0");
    (native "p ocr 1 5\n", "n=1");
    (native "p ocr 2 1\na 1 2 3\na 2 1 4\na 1 1 5 0\n", "n=2 0>1:3/1 1>0:4/1 0>0:5/0");
    (native "p ocr 2 1\na 1 2 3", "n=2 0>1:3/1");
    (native "", "error: Graph_io: missing problem line");
    (native "\n\n  \n", "error: Graph_io: missing problem line");
    (dimacs "c hi\np sp 2 1\n# x\n", "error: Graph_io: line 3: unknown record \"#\"");
    (dimacs "c hi\np sp 2 1\na 1 2 -3\nc a 2 1 3\n", "n=2 0>1:-3/1");
    (dimacs "p sp 2 1\na 2 1\n", "error: Graph_io: line 2: malformed arc line");
  ]

let test_pinned_outcomes () =
  List.iter
    (fun ((parse, input), expected) ->
      Alcotest.(check string) (Printf.sprintf "%S" input) expected
        (outcome parse input))
    pinned_outcomes

let test_file_io () =
  let path = Filename.temp_file "ocr_test" ".ocr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let g = sample () in
      Graph_io.write_file path g;
      Alcotest.(check bool) "file roundtrip" true
        (Digraph.equal_structure g (Graph_io.read_file path));
      (* past the writer's 64 KiB drain: the file is to_string's text *)
      let big = Sprand.generate ~seed:4 ~n:2000 ~m:8000 () in
      Graph_io.write_file path big;
      let text = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check bool) "more than one drain" true (String.length text > 65536);
      Alcotest.(check string) "streamed = to_string" (Graph_io.to_string big) text)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_dot () =
  let dot = Graph_io.to_dot ~highlight:[ 0 ] (sample ()) in
  Alcotest.(check bool) "mentions digraph" true
    (String.length dot > 8 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "has highlight colour" true
    (contains ~needle:"color=red" dot);
  Alcotest.(check bool) "only one highlighted arc" true
    (not (contains ~needle:"color=red" (Graph_io.to_dot (sample ()))))

let qcheck_roundtrip =
  QCheck.Test.make ~name:"io: to_string/of_string roundtrip" ~count:200
    (Helpers.arb_any_graph ~max_n:10 ~max_m:25 ~tmax:5 ())
    (fun g -> Digraph.equal_structure g (Graph_io.of_string (Graph_io.to_string g)))

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "format details" `Quick test_format_details;
    Alcotest.test_case "defaults and comments" `Quick
      test_parse_defaults_and_comments;
    expect_parse_error "arc before problem line"
      [ (native "a 1 2 3\n", "Graph_io: line 1: arc before problem line") ];
    expect_parse_error "duplicate problem line"
      [ (native "p ocr 1 0\np ocr 1 0\n", "Graph_io: line 2: duplicate problem line") ];
    expect_parse_error "bad record"
      [
        (native "p ocr 1 0\nx 1 2\n", "Graph_io: line 2: unknown record \"x\"");
        (dimacs "p ocr 1 0\n", "Graph_io: line 1: unknown record \"p\"");
      ];
    expect_parse_error "malformed arc"
      [
        (native "p ocr 2 1\na 1 two 3\n", "Graph_io: line 2: malformed arc line");
        (dimacs "p sp 2 1\na 1 2 3 4\n", "Graph_io: line 2: malformed arc line");
      ];
    expect_parse_error "missing problem line"
      [ (native "# nothing\n", "Graph_io: missing problem line") ];
    Alcotest.test_case "pinned parse outcomes" `Quick test_pinned_outcomes;
    Alcotest.test_case "file io" `Quick test_file_io;
    Alcotest.test_case "dot export" `Quick test_dot;
  ]
  @ Helpers.qtests [ qcheck_roundtrip ]

(* the parser must fail cleanly (Failure), never crash, on junk input *)
let qcheck_parser_never_crashes =
  QCheck.Test.make ~name:"io: parser raises Failure, never crashes" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun s ->
      match Graph_io.of_string s with
      | _ -> true
      | exception Failure _ -> true
      | exception _ -> false)

let suite = suite @ Helpers.qtests [ qcheck_parser_never_crashes ]

let test_dimacs_roundtrip () =
  let g = Digraph.of_weighted_arcs 3 [ (0, 1, 5); (1, 2, -2); (2, 0, 7) ] in
  let g' = Graph_io.of_dimacs (Graph_io.to_dimacs g) in
  Alcotest.(check bool) "same structure" true (Digraph.equal_structure g g')

let test_dimacs_parse () =
  let g =
    Graph_io.of_dimacs
      "c SPRAND output\np sp 2 2\na 1 2 10\nc middle comment\na 2 1 3\n"
  in
  Alcotest.(check int) "n" 2 (Digraph.n g);
  Alcotest.(check int) "weight" 10 (Digraph.weight g 0);
  Alcotest.(check int) "transit defaults to 1" 1 (Digraph.transit g 0);
  Alcotest.(check bool) "bad format rejected" true
    (match Graph_io.of_dimacs "p ocr 1 0\n" with
    | exception Failure _ -> true
    | _ -> false)

let suite =
  suite
  @ [
      Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
      Alcotest.test_case "dimacs parsing" `Quick test_dimacs_parse;
    ]

(* ------------------------------------------------------------------ *)
(* differential: the scanner against the line-splitting oracle         *)
(* ------------------------------------------------------------------ *)

(* Fragments a byte mutation splices in: separators the tokenizer
   treats differently, numerals only int_of_string_opt reads, values
   at and past the int range, and whole records. *)
let fragments =
  [| " "; "  "; "\t"; "\r"; "\n"; "\012"; "\011"; "-"; "+"; "0"; "9"; "a";
     "p"; "#"; "c"; "x"; "_"; "0x1f"; "0b1"; "1_000"; "+5"; "-0"; "007";
     "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
     "99999999999999999999"; "9999999999999999999"; "-4611686018427387905";
     "p ocr 3 2\n"; "p sp 3 2\n"; "a 1 2 3\n";
     "a 3 1 -4 2\n"; "a 1 2 3 -1\n"; "# note\n"; "c note\n" |]

(* [k] random edits of [s]: overwrite a byte, delete a byte, or splice
   in a fragment *)
let mutate rng k s =
  let s = ref s in
  for _ = 1 to k do
    let len = String.length !s in
    let i = if len = 0 then 0 else Random.State.int rng (len + 1) in
    let before = String.sub !s 0 (min i len) in
    let after_from j = if j >= len then "" else String.sub !s j (len - j) in
    s :=
      match Random.State.int rng 3 with
      | 0 when i < len ->
        before ^ String.make 1 (Char.chr (Random.State.int rng 128)) ^ after_from (i + 1)
      | 1 when i < len -> before ^ after_from (i + 1)
      | _ ->
        let f = fragments.(Random.State.int rng (Array.length fragments)) in
        before ^ f ^ after_from i
  done;
  !s

(* graph files in the given format: valid ones from random graphs
   (wide weights, transits up to 5; DIMACS drops transits), then up to
   four byte edits *)
let arb_graph_text ~dimacs =
  let open QCheck.Gen in
  let gen =
    let* g = Helpers.gen_any_graph ~max_n:9 ~max_m:20 ~wlo:(-1000) ~whi:1000 ~tmax:5 () in
    let* edits = frequency [ (1, return 0); (4, int_range 1 4) ] in
    let* seed = int in
    let text = if dimacs then Graph_io.to_dimacs g else Graph_io.to_string g in
    return (mutate (Random.State.make [| seed |]) edits text)
  in
  QCheck.make ~print:(Printf.sprintf "%S") gen

let qcheck_differential ~dimacs =
  let name = if dimacs then "dimacs" else "native" in
  let parse, oracle =
    if dimacs then (Graph_io.of_dimacs, Io_oracle.of_dimacs)
    else (Graph_io.of_string, Io_oracle.of_string)
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "io: %s scanner = line-splitting oracle" name)
    ~count:1000 (arb_graph_text ~dimacs)
    (fun s -> outcome parse s = outcome oracle s)

(* the writer's text, byte for byte, against the Printf rendering it
   replaced, on labels up to the int range's ends *)
let printf_text ~dimacs g =
  let b = Buffer.create 64 in
  Printf.bprintf b "p %s %d %d\n" (if dimacs then "sp" else "ocr") (Digraph.n g) (Digraph.m g);
  Digraph.iter_arcs g (fun a ->
      Printf.bprintf b "a %d %d %d" (Digraph.src g a + 1) (Digraph.dst g a + 1)
        (Digraph.weight g a);
      if not dimacs then Printf.bprintf b " %d" (Digraph.transit g a);
      Buffer.add_char b '\n');
  Buffer.contents b

let qcheck_writer =
  let extremes = [| min_int; min_int + 1; -1; 0; 9; 10; max_int |] in
  QCheck.Test.make ~name:"io: writer = Printf rendering" ~count:200
    (Helpers.arb_any_graph ~max_n:10 ~max_m:25 ~tmax:5 ())
    (fun g ->
      let g =
        Digraph.map_weights g (fun a ->
            let w = Digraph.weight g a in
            if w mod 3 = 0 then extremes.(abs w mod Array.length extremes)
            else w * 1_000_003)
      in
      Graph_io.to_string g = printf_text ~dimacs:false g
      && Graph_io.to_dimacs g = printf_text ~dimacs:true g)

(* the problem line's n sizes the node arrays, so it is capped; its m
   only sizes the first arc buffer, bounded by the text *)
let test_problem_line_bounds () =
  let cases =
    [
      (native "p ocr 67108865 0\n",
       "error: Graph_io: line 1: node count 67108865 exceeds the limit 67108864");
      (dimacs "c x\np sp 99999999999999 0",
       "error: Graph_io: line 2: node count 99999999999999 exceeds the limit 67108864");
      (native "p ocr 2 4611686018427387903\na 1 2 3\n", "n=2 0>1:3/1");
      (native "p ocr 2 -7\na 1 2 3\na 2 1 4\n", "n=2 0>1:3/1 1>0:4/1");
      (native ("p ocr 2 0\n" ^ String.concat "" (List.init 40 (Printf.sprintf "a 1 2 %d\n"))),
       "n=2" ^ String.concat "" (List.init 40 (Printf.sprintf " 0>1:%d/1")));
    ]
  in
  List.iter
    (fun ((parse, input), expected) ->
      Alcotest.(check string) (Printf.sprintf "%S" input) expected (outcome parse input))
    cases

let suite =
  suite
  @ Helpers.qtests
      [ qcheck_differential ~dimacs:false; qcheck_differential ~dimacs:true; qcheck_writer ]
  @ [ Alcotest.test_case "problem-line bounds" `Quick test_problem_line_bounds ]
