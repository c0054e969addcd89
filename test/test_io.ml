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

(* every (parser, input) pair must be rejected with Failure *)
let expect_parse_error name inputs =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun (parse, input) ->
          match parse input with
          | exception Failure _ -> ()
          | _ -> Alcotest.failf "expected a parse failure on %S" input)
        inputs)

let native input = (Graph_io.of_string, input)
let dimacs input = (Graph_io.of_dimacs, input)

let test_file_io () =
  let path = Filename.temp_file "ocr_test" ".ocr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let g = sample () in
      Graph_io.write_file path g;
      Alcotest.(check bool) "file roundtrip" true
        (Digraph.equal_structure g (Graph_io.read_file path)))

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
    expect_parse_error "arc before problem line" [ native "a 1 2 3\n" ];
    expect_parse_error "duplicate problem line"
      [ native "p ocr 1 0\np ocr 1 0\n" ];
    expect_parse_error "bad record"
      [ native "p ocr 1 0\nx 1 2\n"; dimacs "p ocr 1 0\n" ];
    expect_parse_error "malformed arc"
      [ native "p ocr 2 1\na 1 two 3\n"; dimacs "p sp 2 1\na 1 2 3 4\n" ];
    expect_parse_error "missing problem line" [ native "# nothing\n" ];
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
