(* compile-large: a designer's cold compiles of the larger bcgen designs,
   one after another, at the CLI's default job count, each writing into
   a store that starts empty.  Routing is 64-85 % of each compile and
   nearly all of it is width-search probes, so the parallel probe pool
   and the cache write path run here. *)

module B = Core.Bench_circuits
module F = Core.Flow

let jobs = 2

(* Each design compiles at [n] placement seeds drawn from the workload
   seed: the small designs at several, so no one seed's placement sets
   their time, mult12 at one, as it alone takes half a round.  The
   compiles run in rounds at the same seeds, each round into its own
   empty store; the run reports each time at its best round. *)
let designs =
  [
    ("mult12", 1, fun () -> B.multiplier 12);
    ("mult8", 2, fun () -> B.multiplier 8);
    ("alu16", 3, fun () -> B.alu 16);
    ("accum24", 3, fun () -> B.accumulator 24);
    ("counter32", 3, fun () -> B.counter 32);
  ]

let compiles = List.fold_left (fun a (_, n, _) -> a + n) 0 designs

let config ~store seed =
  { F.default_config with F.seed; jobs = Some jobs; cache_dir = Some store }

(* Set-up of round [r]: generate the sources and list the compiles.
   Their store is a fresh path under the run's empty scratch root; the
   flow creates it on the first compile. *)
let setup ~seeds r =
  let store = Filename.concat Env.root (Printf.sprintf "cl-store%d" r) in
  let next = ref 0 in
  List.concat_map
    (fun (design, n, source) ->
      let vhdl = source () in
      List.init n (fun k ->
          let seed = seeds.(!next) in
          incr next;
          { Batch.op = Printf.sprintf "%s.%d#%d" design k r; vhdl; config = config ~store seed }))
    designs

let run ~seed ~seconds ~trace =
  Batch.measure ~name:"compile-large"
    ~mapper:{ Batch.map = List.map }
    ~lanes:1 ~cache:true ~seconds
    ~setup:(setup ~seeds:(Plan.placement_seeds ~seed compiles))
    ~trace
