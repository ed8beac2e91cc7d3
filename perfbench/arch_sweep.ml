(* arch-sweep: an architect's exploration of segment mixes.  The five
   default mixes of Core.Explore at fixed channel widths over the
   15-design suite, points fanned out over the Domain pool exactly as
   Explore.segment_mix_sweep does, but at placement seeds drawn from the
   workload seed (segment_mix_sweep fixes seed 1).  There is no width
   search here: a change to the search must not move this workload,
   while FlowMap, placement and segmented-RR-graph routing changes show
   here first. *)

module F = Core.Flow

let jobs = 2
let widths = [ 10; 11; 12; 13; 14; 15; 16 ]

(* the sweep runs in rounds at the same placement seeds; the run reports
   each time at its best round *)

let params mix =
  Fpga_arch.Params.validate
    {
      Fpga_arch.Params.amdrel with
      Fpga_arch.Params.segments = Fpga_arch.Params.segments_of_string mix;
    }

let suite = Core.Bench_circuits.suite

(* Set-up of round [r], as an architect starts a sweep: every mix's
   architecture comes from its DUTYS architecture-file text (the round
   trip must not change it), then the compiles are listed.  Every
   compile draws its own placement seed, so the run averages over many. *)
let setup ~seeds r =
  let archs =
    List.map
      (fun mix ->
        let p = params mix in
        let read = Fpga_arch.Archfile.of_string (Fpga_arch.Archfile.to_string p) in
        if read <> p then failwith ("architecture file round trip changed " ^ mix);
        (mix, read))
      Core.Explore.default_mixes
  in
  let points = List.concat_map (fun (mix, p) -> List.map (fun w -> (mix, p, w)) widths) archs in
  let n = List.length suite in
  List.concat
    (List.mapi
       (fun i (mix, p, w) ->
         List.mapi
           (fun c (name, vhdl) ->
             {
               Batch.op = Printf.sprintf "%s@%s/W%d#%d" name mix w r;
               vhdl;
               config =
                 {
                   F.default_config with
                   F.params = p;
                   seed = seeds.((i * n) + c);
                   search_min_width = false;
                   route_width = w;
                   jobs = Some jobs;
                 };
             })
           suite)
       points)

(* One (mix, width) point -- the suite's consecutive compiles -- per pool
   task; compiles inside a point run sequentially (nested pools degrade),
   as in segment_mix_sweep. *)
let by_point f jobs_ =
  let n = List.length suite in
  let rec chunks = function
    | [] -> []
    | l -> List.filteri (fun i _ -> i < n) l :: chunks (List.filteri (fun i _ -> i >= n) l)
  in
  List.concat (Util.Parallel.map_list ~jobs (List.map f) (chunks jobs_))

let run ~seed ~seconds ~trace =
  let points = List.length Core.Explore.default_mixes * List.length widths in
  let seeds = Plan.placement_seeds ~seed (points * List.length suite) in
  Batch.measure ~name:"arch-sweep"
    ~mapper:{ Batch.map = by_point }
    ~lanes:jobs ~cache:false ~seconds ~setup:(setup ~seeds) ~trace
