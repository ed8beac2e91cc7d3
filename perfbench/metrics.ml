(* The metric sets every workload prints: end-to-end with tracing off,
   per-layer from the traced run.  Each workload fills the fields it
   exercises; a layer a workload bypasses reads 0 (README.md lists
   which layers each workload loads and bypasses). *)

let m = Report.metric

type e2e = {
  setup_s : float;       (* median of the repeats' set-ups *)
  wall_s : float;        (* measured phase, median over repeats *)
  cpu_s : float;         (* the same, every process that compiles *)
  peak_rss_mb : float;   (* of the process that compiles *)
  compile_s : float;     (* geometric mean over designs (or requests)
                            of their median seconds over the repeats *)
  crit_ns : float list;  (* per compile or response *)
  power_mw : float list;
}

let end_to_end e =
  [
    m "setup_s" "s" e.setup_s;
    m "wall_s" "s" e.wall_s;
    m "cpu_s" "s" e.cpu_s;
    m "peak_rss_mb" "MB" e.peak_rss_mb;
    m "compile_s_geomean" "s" e.compile_s;
    m "qor.crit_ns_geomean" "ns" (Report.geomean e.crit_ns);
    m "qor.power_mw_geomean" "mW" (Report.geomean e.power_mw);
  ]

type layers = {
  synth_s : float;
  techmap_s : float;
  pack_s : float;
  place_s : float;
  route_search_s : float;
  route_final_s : float;
  route_rrgraph_s : float;
  sta_s : float;
  power_s : float;
  bitstream_s : float;
  bitstream_verify_s : float;
  cache_find_s : float;
  cache_store_s : float;
  luts : int;
  clbs : int;
  moves : int;
  accepted : int;
  heap_pops : int;
  iterations : int;
  width_probes : int;
  wmin_sum : int;
  cache_hits : int;
  cache_misses : int;
  cache_bytes : int;
  requests : int;
  request_latencies : float list; (* all requests, client side *)
  hit_latencies : float list;     (* Repeat requests, in completion order *)
  queue_wait_s : float;           (* per request, from the metrics verb *)
  service_compile_s : float;      (* per request, from the metrics verb *)
  client_s : float;               (* per request, client encode + decode *)
  rejected : int;
  errors : int;
  par_cpu_s : float;              (* untraced measured phase *)
  par_wall_s : float;
  traced_wall_s : float;
  untraced_wall_s : float;
  traced_self_s : float;          (* time the layer figures account for *)
  coverage_base_s : float;        (* the time they should account for *)
  lanes : int;                    (* operations in flight at once *)
  extra_s : float;                (* replay probes the untraced run skips *)
}

let zero =
  {
    synth_s = 0.; techmap_s = 0.; pack_s = 0.; place_s = 0.;
    route_search_s = 0.; route_final_s = 0.; route_rrgraph_s = 0.;
    sta_s = 0.; power_s = 0.; bitstream_s = 0.; bitstream_verify_s = 0.;
    cache_find_s = 0.; cache_store_s = 0.;
    luts = 0; clbs = 0; moves = 0; accepted = 0; heap_pops = 0;
    iterations = 0; width_probes = 0; wmin_sum = 0;
    cache_hits = 0; cache_misses = 0; cache_bytes = 0;
    requests = 0; request_latencies = []; hit_latencies = [];
    queue_wait_s = 0.; service_compile_s = 0.; client_s = 0.; rejected = 0; errors = 0;
    par_cpu_s = 0.; par_wall_s = 0.; traced_wall_s = 0.;
    untraced_wall_s = 0.; traced_self_s = 0.; coverage_base_s = 0.; lanes = 1; extra_s = 0.;
  }

(* Per-layer figures of a stage-by-stage replay, from its spans; the
   caller sets [coverage_base_s] to traced wall x lanes. *)
let of_spans spans =
  let lt l = Spans.layer_time l spans and d ?extra n = Spans.duration ?extra n spans in
  let final_probe = d ~extra:true "Router.route_fixed" in
  {
    zero with
    synth_s = lt "synth";
    techmap_s = lt "techmap";
    pack_s = lt "pack";
    place_s = lt "place";
    route_search_s = d "Router.route_min_width" -. final_probe;
    route_final_s = d "Router.route_fixed";
    route_rrgraph_s = d ~extra:true "Rrgraph.build";
    sta_s = lt "sta";
    power_s = lt "power";
    bitstream_s = lt "bitstream";
    bitstream_verify_s = d "Dagger.verify_functional";
    cache_find_s = d "Store.key" +. d "Store.find";
    cache_store_s = d "Store.store";
    traced_self_s = List.fold_left (fun a (_, t) -> a +. t) 0.0 (Spans.self_times spans);
    extra_s = Spans.extra_time spans;
  }

let pct p xs = Option.value ~default:0.0 (Report.percentile p xs)

(* median of the first and of the last quarter of a series, each only
   when the quarter holds enough samples for a p50 *)
let quarter_medians xs =
  let a = Array.of_list xs in
  let q = Array.length a / 4 in
  let sub off = Array.to_list (Array.sub a off q) in
  (pct 50 (sub 0), pct 50 (sub (Array.length a - q)))

let per_layer l =
  let f = float_of_int in
  let sum = List.fold_left ( +. ) 0.0 in
  let mean xs = Report.ratio (sum xs) (f (List.length xs)) in
  let hit_first, hit_last = quarter_medians l.hit_latencies in
  [
    m "synth.busy_s" "s" l.synth_s;
    m "techmap.busy_s" "s" l.techmap_s;
    m "techmap.luts" "count" (f l.luts);
    m "pack.busy_s" "s" l.pack_s;
    m "pack.clbs" "count" (f l.clbs);
    m "place.busy_s" "s" l.place_s;
    m "place.moves" "count" (f l.moves);
    m "place.accepted" "count" (f l.accepted);
    m "place.accept_ratio" "ratio" (Report.ratio (f l.accepted) (f l.moves));
    m "place.us_per_move" "us" (Report.ratio (l.place_s *. 1e6) (f l.moves));
    m "route.search_s" "s" l.route_search_s;
    m "route.final_s" "s" l.route_final_s;
    m "route.rrgraph_s" "s" l.route_rrgraph_s;
    m "route.search_over_final" "ratio" (Report.ratio l.route_search_s l.route_final_s);
    m "route.width_probes" "count" (f l.width_probes);
    m "route.wmin_sum" "tracks" (f l.wmin_sum);
    m "route.heap_pops" "count" (f l.heap_pops);
    m "route.iterations" "count" (f l.iterations);
    m "route.ns_per_pop" "ns" (Report.ratio (l.route_final_s *. 1e9) (f l.heap_pops));
    m "sta.busy_s" "s" l.sta_s;
    m "power.busy_s" "s" l.power_s;
    m "bitstream.busy_s" "s" l.bitstream_s;
    m "bitstream.verify_s" "s" l.bitstream_verify_s;
    m "cache.find_s" "s" l.cache_find_s;
    m "cache.store_s" "s" l.cache_store_s;
    m "cache.hits" "count" (f l.cache_hits);
    m "cache.misses" "count" (f l.cache_misses);
    m "cache.hit_ratio" "ratio"
      (Report.ratio (f l.cache_hits) (f (l.cache_hits + l.cache_misses)));
    m "cache.bytes" "B" (f l.cache_bytes);
    m "service.requests" "count" (f l.requests);
    m "service.requests_per_s" "1/s" (Report.ratio (f l.requests) l.traced_wall_s);
    m "service.request_p50_s" "s" (pct 50 l.request_latencies);
    m "service.request_p90_s" "s" (pct 90 l.request_latencies);
    m "service.queue_wait_s" "s" l.queue_wait_s;
    m "service.compile_s" "s" l.service_compile_s;
    m "service.client_s" "s" l.client_s;
    m "service.overhead_s" "s"
      (if l.requests = 0 then 0.0
       else mean l.request_latencies -. l.queue_wait_s -. l.service_compile_s -. l.client_s);
    m "service.hit_p50_first_s" "s" hit_first;
    m "service.hit_p50_last_s" "s" hit_last;
    m "service.hit_latency_drift" "ratio" (Report.ratio hit_last hit_first);
    m "service.rejected" "count" (f l.rejected);
    m "service.errors" "count" (f l.errors);
    m "parallel.cpu_s" "s" l.par_cpu_s;
    m "parallel.wall_s" "s" l.par_wall_s;
    m "parallel.cpu_per_wall" "ratio" (Report.ratio l.par_cpu_s l.par_wall_s);
    m "trace.wall_s" "s" l.traced_wall_s;
    m "trace.untraced_wall_s" "s" l.untraced_wall_s;
    m "trace.self_s" "s" l.traced_self_s;
    m "trace.lanes" "count" (f l.lanes);
    m "trace.coverage" "ratio" (Report.ratio l.traced_self_s l.coverage_base_s);
    m "trace.extra_s" "s" l.extra_s;
    m "trace.overhead_frac" "ratio"
      (Report.ratio (l.traced_wall_s -. (l.extra_s /. f l.lanes)) l.untraced_wall_s
      -. 1.0);
  ]

(* What a workload hands back: every failure names the operation and
   what went wrong; any failure makes the run incorrect. *)
type outcome = { attempted : int; failures : string list; metrics : Report.metric list }
