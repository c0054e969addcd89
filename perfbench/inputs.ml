(* Seeded graph generation shared by the workloads.  The program under
   test only ever sees the files and lines made here. *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Each workload writes its inputs under perfbench/_work/<workload> of
   the checkout it runs in (dune skips directories starting with "_"). *)
let work_dir workload =
  let dir = Filename.concat (Filename.concat "perfbench" "_work") workload in
  mkdir_p dir;
  dir

let file_bytes path = (Unix.stat path).Unix.st_size

(* Transit times uniform in [1, 10], turning a mean instance into a
   cost-to-time-ratio one. *)
let with_transits ~seed g =
  let rng = Rng.create seed in
  let t = Array.init (Digraph.m g) (fun _ -> Rng.in_range rng 1 10) in
  Digraph.map_transits g (fun a -> t.(a))

type family = Sprand | Circuit | Many_scc | Low_diameter

let family_name = function
  | Sprand -> "sprand"
  | Circuit -> "circuit"
  | Many_scc -> "many_scc"
  | Low_diameter -> "low_diameter"

(* A graph of about [n] nodes.  Every family but many_scc is strongly
   connected; many_scc has n/64 cyclic components of 64 nodes. *)
let generate family ~seed ~n =
  match family with
  | Sprand -> Sprand.generate ~seed ~n ~m:(3 * n) ()
  | Circuit -> Circuit.generate ~seed ~registers:n ()
  | Many_scc -> Families.many_scc ~seed ~components:(max 1 (n / 64)) ~size:64 ()
  | Low_diameter -> Families.low_diameter ~seed ~diameter:4 n

(* Seeds for the pieces of one workload's input, all derived from the
   run's --seed. *)
let sub_seed seed k = (seed * 1_000_003) + k
