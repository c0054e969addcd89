(* The reference graph-text parser for the differential tests of
   Graph_io: the line-splitting parser Graph_io used before its
   one-pass byte scanner, kept here as the oracle.  It splits the text
   into lines, trims each, splits it on spaces and reads every token
   with int_of_string_opt.  It adds one rule the old parser lacked:
   the node-count cap of Graph_io.max_nodes, which the scanner
   enforces on the problem line. *)

type format = { comment : char; tag : string; arities : int list }

let native = { comment = '#'; tag = "ocr"; arities = [ 3; 4 ] }
let dimacs = { comment = 'c'; tag = "sp"; arities = [ 3 ] }

let fail lineno msg = failwith (Printf.sprintf "Graph_io: line %d: %s" lineno msg)

let add_arc b lineno u v w transit =
  try ignore (Digraph.add_arc b ~src:(u - 1) ~dst:(v - 1) ~weight:w ~transit ())
  with Invalid_argument m -> fail lineno m

let parse fmt s =
  let builder = ref None in
  let lineno = ref 0 in
  let handle_line line =
    incr lineno;
    let line = String.trim line in
    if line <> "" && line.[0] <> fmt.comment then
      match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
      | [ "p"; tag; sn; sm ] when tag = fmt.tag -> (
        if !builder <> None then fail !lineno "duplicate problem line";
        match (int_of_string_opt sn, int_of_string_opt sm) with
        | Some n, Some _ when n > Graph_io.max_nodes ->
          fail !lineno
            (Printf.sprintf "node count %d exceeds the limit %d" n
               Graph_io.max_nodes)
        | Some n, Some _ when n >= 0 -> builder := Some (Digraph.create_builder n)
        | _ -> fail !lineno "malformed problem line")
      | "a" :: rest -> (
        let b =
          match !builder with
          | Some b -> b
          | None -> fail !lineno "arc before problem line"
        in
        let ints =
          if List.mem (List.length rest) fmt.arities then
            List.map int_of_string_opt rest
          else []
        in
        match ints with
        | [ Some u; Some v; Some w ] -> add_arc b !lineno u v w 1
        | [ Some u; Some v; Some w; Some t ] -> add_arc b !lineno u v w t
        | _ -> fail !lineno "malformed arc line")
      | tok :: _ -> fail !lineno (Printf.sprintf "unknown record %S" tok)
      | [] -> ()
  in
  String.split_on_char '\n' s |> List.iter handle_line;
  match !builder with
  | Some b -> Digraph.build b
  | None -> failwith "Graph_io: missing problem line"

let of_string = parse native
let of_dimacs = parse dimacs
