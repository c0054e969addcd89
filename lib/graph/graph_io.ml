let max_nodes = 1 lsl 26

let sp_parse = Obs.intern "io.parse"

(* The two text formats differ only in their comment marker, their
   problem-line tag and whether an arc line may carry a transit field
   (the writer emits one exactly when it may). *)
type format = { comment : char; tag : string; transit : bool }

let native = { comment = '#'; tag = "ocr"; transit = true }
let dimacs = { comment = 'c'; tag = "sp"; transit = false }

(* ------------------------------------------------------------------ *)
(* writer                                                              *)
(* ------------------------------------------------------------------ *)

let rec add_digits buf x =
  if x >= 10 then add_digits buf (x / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (x mod 10)))

(* the text [Printf "%d"] gives, without a format interpretation per
   number *)
let add_int buf x =
  if x >= 0 then add_digits buf x
  else if x = min_int then Buffer.add_string buf (string_of_int x)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-x)
  end

(* [g] as [fmt] text, appended to [buf].  With [oc], [buf] is drained
   into the channel every 64 KiB, so a file is never held whole. *)
let render ?oc fmt g buf =
  let limit = if oc = None then max_int else 65536 in
  let drain () =
    Option.iter (fun oc -> Buffer.output_buffer oc buf; Buffer.clear buf) oc
  in
  Buffer.add_string buf "p ";
  Buffer.add_string buf fmt.tag;
  Buffer.add_char buf ' ';
  add_int buf (Digraph.n g);
  Buffer.add_char buf ' ';
  add_int buf (Digraph.m g);
  Buffer.add_char buf '\n';
  for a = 0 to Digraph.m g - 1 do
    Buffer.add_string buf "a ";
    add_int buf (Digraph.src g a + 1);
    Buffer.add_char buf ' ';
    add_int buf (Digraph.dst g a + 1);
    Buffer.add_char buf ' ';
    add_int buf (Digraph.weight g a);
    if fmt.transit then begin
      Buffer.add_char buf ' ';
      add_int buf (Digraph.transit g a)
    end;
    Buffer.add_char buf '\n';
    if Buffer.length buf >= limit then drain ()
  done;
  drain ()

let to_text fmt g =
  let buf = Buffer.create (32 * (Digraph.m g + 1)) in
  render fmt g buf;
  Buffer.contents buf

let to_string = to_text native
let to_dimacs = to_text dimacs

let write_file path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      render ~oc native g (Buffer.create 65600))

(* ------------------------------------------------------------------ *)
(* scanner                                                             *)
(* ------------------------------------------------------------------ *)

(* One pass over the text, straight into the label arrays of the CSR
   constructor.  Acceptance is that of the line-splitting reading the
   format was defined by: every ['\n']-separated line is
   [String.trim]med, split on spaces (runs of spaces count as one) and
   each field read with [int_of_string_opt].  The scanner finds the
   same fields without cutting out lines: a field ends at a space, at
   the newline, or where only trimmed characters are left before the
   newline.  A field of the plain form [-?[0-9]{1,18}] is read while
   it is scanned; any other field (a sign, a radix prefix,
   underscores, a possible overflow, junk) goes to [int_of_string_opt]
   itself, so both readings agree on every input. *)

(* line numbers are counted only on the way to an error *)
let fail_at s pos msg =
  let line = ref 1 in
  for i = 0 to pos - 1 do
    if String.unsafe_get s i = '\n' then incr line
  done;
  failwith (Printf.sprintf "Graph_io: line %d: %s" !line msg)

(* a field [int_of_string_opt] rejects, or an arity mismatch *)
exception Malformed

(* the characters [String.trim] drops, bar the newline *)
let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

let is_eol s i len = i >= len || String.unsafe_get s i = '\n'

let rec line_end s i len = if is_eol s i len then i else line_end s (i + 1) len

let rec skip_blanks s i len =
  if i < len && is_blank (String.unsafe_get s i) then skip_blanks s (i + 1) len
  else i

let rec space_in s i j =
  if i < j && String.unsafe_get s i <> ' ' then space_in s (i + 1) j else i

(* the end of the field starting at [i]: the next space, the newline,
   or the start of the blanks that run on to the newline *)
let rec field_end s i len =
  if i >= len then i
  else
    match String.unsafe_get s i with
    | c when c > ' ' -> field_end s (i + 1) len
    | ' ' | '\n' -> i
    | '\t' | '\r' | '\012' ->
      let j = skip_blanks s i len in
      if is_eol s j len then i
      else
        let k = space_in s i j in
        if k < j then k else field_end s j len
    | _ -> field_end s (i + 1) len

(* the start of the line's next field at or after [i], or its end (the
   newline or [len]) when no field is left *)
let rec next_field s i len =
  if i >= len then i
  else
    match String.unsafe_get s i with
    | c when c > ' ' -> i
    | ' ' -> next_field s (i + 1) len
    | '\t' | '\r' | '\012' ->
      let j = skip_blanks s i len in
      if is_eol s j len then j else i
    | _ -> i

type cursor = { mutable v : int (* the last int field read *) }

(* the digits from [i] on, accumulated into [acc] and stored in [c.v];
   returns the first index past them *)
let rec digits c s i len acc =
  if i < len then
    let d = Char.code (String.unsafe_get s i) - 48 in
    if d >= 0 && d <= 9 then digits c s (i + 1) len ((acc * 10) + d)
    else begin
      c.v <- acc;
      i
    end
  else begin
    c.v <- acc;
    i
  end

(* reads the int field starting at [b] into [c.v] and returns its end
   @raise Malformed where [int_of_string_opt] gives [None] *)
let int_field c s b len =
  let neg = String.unsafe_get s b = '-' in
  let d0 = if neg then b + 1 else b in
  let d = digits c s d0 len 0 in
  let e = if is_eol s d len || String.unsafe_get s d = ' ' then d else field_end s d len in
  if e = d && d > d0 && d - d0 <= 18 then begin
    if neg then c.v <- -c.v
  end
  else begin
    match int_of_string_opt (String.sub s b (e - b)) with
    | Some x -> c.v <- x
    | None -> raise Malformed
  end;
  e

(* the arc label arrays, grown by doubling past the problem line's
   estimate *)
type arcs = {
  mutable len : int;
  mutable srcs : Digraph.int_array1;
  mutable dsts : Digraph.int_array1;
  mutable weights : Digraph.int_array1;
  mutable transits : Digraph.int_array1;
}

let ia len = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

(* a copy of [a]'s first [len] entries in a fresh array of size [cap] *)
let resize (a : Digraph.int_array1) len cap =
  let b = ia cap in
  Bigarray.Array1.blit (Bigarray.Array1.sub a 0 len) (Bigarray.Array1.sub b 0 len);
  b

let arcs_with_capacity cap =
  { len = 0; srcs = ia cap; dsts = ia cap; weights = ia cap; transits = ia cap }

let set_capacity t cap =
  t.srcs <- resize t.srcs t.len cap;
  t.dsts <- resize t.dsts t.len cap;
  t.weights <- resize t.weights t.len cap;
  t.transits <- resize t.transits t.len cap

let[@inline] push t u v w tt =
  let i = t.len in
  if i = Bigarray.Array1.dim t.srcs then set_capacity t (max 16 (2 * i));
  Bigarray.Array1.unsafe_set t.srcs i u;
  Bigarray.Array1.unsafe_set t.dsts i v;
  Bigarray.Array1.unsafe_set t.weights i w;
  Bigarray.Array1.unsafe_set t.transits i tt;
  t.len <- i + 1

(* the next field after [i], which must exist, read as by {!int_field} *)
let arc_field c s i len =
  let b =
    (* the common single space, without a call *)
    if i + 1 < len && String.unsafe_get s i = ' ' && String.unsafe_get s (i + 1) > ' '
    then i + 1
    else next_field s i len
  in
  if is_eol s b len then raise Malformed;
  int_field c s b len

(* the fields of an arc line after its [a] (which ends at [e0]); on
   success the arc is pushed and the line's end returned *)
let arc_line fmt c s lo e0 len n arcs =
  let e1 = arc_field c s e0 len in
  let u = c.v - 1 in
  let e2 = arc_field c s e1 len in
  let v = c.v - 1 in
  let e3 = arc_field c s e2 len in
  let w = c.v in
  (* three fields, or four where the format carries transits *)
  let b4 = next_field s e3 len in
  let eol =
    if is_eol s b4 len then begin
      c.v <- 1;
      b4
    end
    else if fmt.transit then begin
      let b5 = next_field s (int_field c s b4 len) len in
      if is_eol s b5 len then b5 else raise Malformed
    end
    else raise Malformed
  in
  let tt = c.v in
  (* the builder's checks, in its order and with its words *)
  if u < 0 || u >= n || v < 0 || v >= n then
    fail_at s lo "Digraph.add_arc: endpoint out of range";
  if tt < 0 then fail_at s lo "Digraph.add_arc: negative transit time";
  push arcs u v w tt;
  eol

let unknown_record s lo e0 =
  fail_at s lo (Printf.sprintf "unknown record %S" (String.sub s lo (e0 - lo)))

(* a [p] line, its [p] ending at [e0]: when it reads [p <tag> <n> <m>],
   sets the node count [n] and sizes the arc buffer; returns the
   line's end *)
let problem_line fmt c s lo e0 len n arcs =
  let b1 = next_field s e0 len in
  let e1 = field_end s b1 len in
  let b2 = next_field s e1 len in
  let b3 = next_field s (field_end s b2 len) len in
  let eol = next_field s (field_end s b3 len) len in
  if is_eol s b3 len || (not (is_eol s eol len)) || String.sub s b1 (e1 - b1) <> fmt.tag
  then unknown_record s lo e0;
  if !n >= 0 then fail_at s lo "duplicate problem line";
  let nodes, m =
    try
      ignore (int_field c s b2 len);
      let nodes = c.v in
      ignore (int_field c s b3 len);
      (nodes, c.v)
    with Malformed -> fail_at s lo "malformed problem line"
  in
  if nodes > max_nodes then
    fail_at s lo (Printf.sprintf "node count %d exceeds the limit %d" nodes max_nodes);
  if nodes < 0 then fail_at s lo "malformed problem line";
  n := nodes;
  (* an arc line takes at least 8 bytes with its newline, so a lying
     [m] cannot reserve more than the text holds *)
  arcs := arcs_with_capacity (max 0 (min m ((len - eol) / 8)));
  eol

let scan fmt s =
  let len = String.length s in
  let c = { v = 0 } in
  let n = ref (-1) (* until the problem line *) in
  let arcs = ref (arcs_with_capacity 0) in
  let pos = ref 0 in
  while !pos < len do
    let lo = skip_blanks s !pos len in
    let eol =
      if is_eol s lo len then lo
      else if String.unsafe_get s lo = fmt.comment then line_end s lo len
      else
        let e0 = field_end s lo len in
        match if e0 = lo + 1 then String.unsafe_get s lo else ' ' with
        | 'a' -> (
          if !n < 0 then fail_at s lo "arc before problem line";
          try arc_line fmt c s lo e0 len !n !arcs
          with Malformed -> fail_at s lo "malformed arc line")
        | 'p' -> problem_line fmt c s lo e0 len n arcs
        | _ -> unknown_record s lo e0
    in
    pos := eol + 1
  done;
  if !n < 0 then failwith "Graph_io: missing problem line";
  let t = !arcs in
  if t.len < Bigarray.Array1.dim t.srcs then set_capacity t t.len;
  Digraph.Unsafe.of_label_arrays ~n:!n ~m:t.len ~arc_src:t.srcs ~arc_dst:t.dsts
    ~arc_weight:t.weights ~arc_transit:t.transits

let parse fmt s =
  let tr = !Obs.enabled_flag in
  if tr then Trace.begin_span sp_parse;
  match scan fmt s with
  | g ->
    if tr then Trace.end_span sp_parse;
    g
  | exception e ->
    if tr then Trace.end_span sp_parse;
    raise e

let of_string = parse native
let of_dimacs = parse dimacs

let slurp path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let read_file path = of_string (slurp path)

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
