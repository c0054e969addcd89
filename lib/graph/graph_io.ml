let to_string g =
  let buf = Buffer.create (32 * (Digraph.m g + 1)) in
  Buffer.add_string buf
    (Printf.sprintf "p ocr %d %d\n" (Digraph.n g) (Digraph.m g));
  Digraph.iter_arcs g (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "a %d %d %d %d\n"
           (Digraph.src g a + 1) (Digraph.dst g a + 1)
           (Digraph.weight g a) (Digraph.transit g a)));
  Buffer.contents buf

let fail lineno msg = failwith (Printf.sprintf "Graph_io: line %d: %s" lineno msg)

(* The two text formats differ only in their comment marker, their
   problem-line tag and the arc-line arities they accept. *)
type format = { comment : char; tag : string; arities : int list }

let native = { comment = '#'; tag = "ocr"; arities = [ 3; 4 ] }
let dimacs = { comment = 'c'; tag = "sp"; arities = [ 3 ] }

(* endpoint/transit violations surface from Digraph as
   Invalid_argument; rewrap them as parse failures so callers only ever
   see Failure for corrupt input *)
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

let write_file path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string g))

let slurp path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let read_file path = of_string (slurp path)

let to_dimacs g =
  let buf = Buffer.create (32 * (Digraph.m g + 1)) in
  Buffer.add_string buf
    (Printf.sprintf "p sp %d %d\n" (Digraph.n g) (Digraph.m g));
  Digraph.iter_arcs g (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "a %d %d %d\n"
           (Digraph.src g a + 1) (Digraph.dst g a + 1) (Digraph.weight g a)));
  Buffer.contents buf

let to_dot ?(name = "g") ?(highlight = []) g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  let hot = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace hot a ()) highlight;
  Digraph.iter_arcs g (fun a ->
      let attrs =
        if Hashtbl.mem hot a then
          Printf.sprintf "label=\"%d/%d\", color=red, penwidth=2.0"
            (Digraph.weight g a) (Digraph.transit g a)
        else
          Printf.sprintf "label=\"%d/%d\"" (Digraph.weight g a)
            (Digraph.transit g a)
      in
      Buffer.add_string buf
        (Printf.sprintf "  %d -> %d [%s];\n" (Digraph.src g a)
           (Digraph.dst g a) attrs));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let load path =
  (if Filename.check_suffix path ".gr" then of_dimacs else of_string)
    (slurp path)
