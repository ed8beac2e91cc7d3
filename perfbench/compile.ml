(* One compile, two ways: the untraced entry point users call
   (Core.Flow.run_vhdl) and a stage-by-stage replay through each layer's
   public calls, timed by the benchmark's own spans.  The replay mirrors
   the stage order, the cache traffic and the config of
   lib/core/flow.ml's routability-driven path; [same] proves it faithful
   by comparing the two outcomes field by field. *)

module F = Core.Flow

type qor = {
  min_width : int option;
  width : int;
  crit_s : float;
  power_w : float;
  bits : int;
  digest : string;  (** MD5 of the bitstream bytes *)
  verified : bool;  (** bitstream round trip and fabric emulation *)
  luts : int;
  clbs : int;
  moves : int;
  heap_pops : int;
  iterations : int;
}

let digest bytes = Digest.to_hex (Digest.string bytes)

let counter snap key =
  match Obs.Registry.find snap key with
  | Some (Obs.Registry.Counter n) -> n
  | _ -> 0

let qor_of_result (r : F.result) =
  {
    min_width = r.F.routed.Route.Router.min_width;
    width = r.F.routed.Route.Router.width;
    crit_s = r.F.route_stats.Route.Router.critical_path_s;
    power_w = r.F.power.Power.Model.total_w;
    bits = r.F.bitstream.Bitstream.Dagger.bits;
    digest = digest r.F.bitstream.Bitstream.Dagger.bytes;
    verified = r.F.bitstream_verified && r.F.fabric_verified;
    luts = r.F.mapped_stats.Netlist.Logic.n_gates;
    clbs = r.F.n_clusters;
    moves = counter r.F.metrics "place.moves";
    heap_pops = r.F.route_stats.Route.Router.heap_pops;
    iterations = r.F.route_stats.Route.Router.router_iterations;
  }

(* exact equality, floats included: the flow is deterministic *)
let same (a : qor) (b : qor) = a = b

let describe q =
  Printf.sprintf "W=%s/%d crit=%.6gns P=%.6gmW bits=%d %s"
    (match q.min_width with Some w -> string_of_int w | None -> "-")
    q.width (q.crit_s *. 1e9) (q.power_w *. 1e3) q.bits
    (if q.verified then "verified" else "UNVERIFIED")

(* Work counts the replay sees but the flow result does not carry. *)
type extra_counts = { accepted : int; width_probes : int }

(* Untraced: the designer's entry point. *)
let run ~config vhdl = qor_of_result (F.run_vhdl ~config vhdl)

let hash v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* Traced replay.  Two probes split the route layer's time: a route_fixed
   at the final width and an Rrgraph.build.  They are marked [extra] so
   the overhead figure can leave them out. *)
let replay sp_rec ~store ~(config : F.config) vhdl =
  if config.F.timing_driven then invalid_arg "Compile.replay: timing-driven";
  let sp ?extra layer name f = Spans.with_ ?extra sp_rec ~layer name f in
  let obs = Obs.Registry.create () in
  let p = config.F.params in
  let jobs = config.F.jobs in
  let cached stage key compute =
    match store with
    | None -> compute ()
    | Some st -> (
        let k = sp "cache" "Store.key" (fun () -> Cache.Store.key (stage :: key ())) in
        match sp "cache" "Store.find" (fun () -> Cache.Store.find st k) with
        | Some v -> v
        | None ->
            let v = compute () in
            sp "cache" "Store.store" (fun () -> Cache.Store.store st k v);
            v)
  in
  let net =
    cached "synth"
      (fun () -> [ Digest.to_hex (Digest.string vhdl) ])
      (fun () ->
        let file =
          sp "synth" "Vhdl_parser.file_of_string" (fun () ->
              Netlist.Vhdl_parser.file_of_string vhdl)
        in
        let top = List.nth file (List.length file - 1) in
        sp "synth" "Diviner.synthesize_ast" (fun () ->
            Synth.Diviner.synthesize_ast ~library:file top))
  in
  let k = p.Fpga_arch.Params.k in
  let _edif_text, mapped =
    cached "techmap"
      (fun () -> [ hash net; string_of_int k ])
      (fun () ->
        let edif = sp "techmap" "Edif.of_logic" (fun () -> Netlist.Edif.of_logic net) in
        let edif_text = sp "techmap" "Edif.to_string" (fun () -> Netlist.Edif.to_string edif) in
        let normalized = sp "techmap" "Druid.normalize" (fun () -> Synth.Druid.normalize edif) in
        let net2 = sp "techmap" "Edif.to_logic" (fun () -> Netlist.Edif.to_logic normalized) in
        let mapped, _ =
          sp "techmap" "Mapper.map_network" (fun () ->
              Techmap.Mapper.map_network ~k ~verify:config.F.verify_mapping net2)
        in
        (edif_text, mapped))
  in
  ignore (sp "techmap" "Blif.to_string" (fun () -> Netlist.Blif.to_string mapped));
  let packing =
    cached "pack"
      (fun () -> [ hash mapped ])
      (fun () ->
        sp "pack" "Cluster.pack" (fun () ->
            Pack.Cluster.pack ~n:p.Fpga_arch.Params.n ~i:p.Fpga_arch.Params.i mapped))
  in
  let anneal =
    cached "place"
      (fun () -> [ hash packing; string_of_int config.F.seed ])
      (fun () ->
        let problem =
          sp "place" "Problem.build" (fun () ->
              Place.Problem.build ~io_rat:config.F.io_rat packing)
        in
        (* the flow levelises the timing graph during placement set-up
           even when placement is not timing-driven *)
        ignore (sp "sta" "Sta.Graph.build" (fun () -> Sta.Graph.build problem));
        sp "place" "Anneal.run_multistart" (fun () ->
            Place.Anneal.run_multistart
              ~options:{ Place.Anneal.seed = config.F.seed; inner_num = 1.0 }
              ?jobs ~starts:config.F.place_starts
              ?prune_margin:config.F.place_prune_margin
              ~prune_interval:config.F.place_prune_interval ~obs problem))
  in
  let placement = anneal.Place.Anneal.placement in
  let placement_hash = lazy (hash placement) and params_hash = lazy (hash p) in
  ignore (sp "place" "Placement.total_cost" (fun () -> Place.Placement.total_cost placement));
  let routed =
    cached "route"
      (fun () -> [ Lazy.force placement_hash; Lazy.force params_hash ])
      (fun () ->
        if config.F.search_min_width then begin
          let rkey = lazy (Cache.Store.key
                 [ "routability"; Lazy.force placement_hash; Lazy.force params_hash ]) in
          let table : (int, bool) Hashtbl.t = Hashtbl.create 16 in
          (match store with
          | Some st -> (
              let rk = sp "cache" "Store.key" (fun () -> Lazy.force rkey) in
              match sp "cache" "Store.find" (fun () -> Cache.Store.find st rk) with
              | Some (entries : (int * bool) list) ->
                  List.iter (fun (w, ok) -> Hashtbl.replace table w ok) entries
              | None -> ())
          | None -> ());
          let r =
            sp "route" "Router.route_min_width" (fun () ->
                Route.Router.route_min_width ~table ?jobs ~obs p placement)
          in
          (match store with
          | Some st ->
              let entries =
                List.sort compare (Hashtbl.fold (fun w ok acc -> (w, ok) :: acc) table [])
              in
              sp "cache" "Store.store" (fun () ->
                  Cache.Store.store st (Lazy.force rkey) entries)
          | None -> ());
          ignore
            (sp ~extra:true "route" "Router.route_fixed" (fun () ->
                 Route.Router.route_fixed ?jobs p placement
                   ~width:r.Route.Router.width));
          r
        end
        else
          sp "route" "Router.route_fixed" (fun () ->
              Route.Router.route_fixed ?jobs ~obs p placement
                ~width:config.F.route_width))
  in
  ignore
    (sp ~extra:true "route" "Rrgraph.build" (fun () ->
         Route.Rrgraph.build p routed.Route.Router.problem.Place.Problem.grid
           placement ~width:routed.Route.Router.width));
  let constraints =
    { Sta.Analysis.default_constraints with
      Sta.Analysis.period = config.F.clock_period }
  in
  let _pre, post =
    cached "sta"
      (fun () -> [ hash routed ])
      (fun () ->
        let graph =
          sp "sta" "Sta.Graph.build" (fun () ->
              Sta.Graph.build routed.Route.Router.problem)
        in
        let pre =
          sp "sta" "Analysis.run" (fun () ->
              Sta.Analysis.run ~constraints ?jobs ~obs graph
                (Sta.Delays.of_placement ~producer:graph.Sta.Graph.block_of
                   routed.Route.Router.problem
                   ~coords:(Place.Placement.coords routed.Route.Router.placement)))
        in
        let post =
          sp "sta" "Router.sta" (fun () ->
              Route.Router.sta ~constraints ~graph ~obs routed)
        in
        (pre, post))
  in
  let stats = sp "route" "Router.stats" (fun () -> Route.Router.stats ~sta:post routed) in
  let power, bitstream, verified =
    cached "bitstream"
      (fun () -> [ hash routed ])
      (fun () ->
        let power =
          sp "power" "Model.estimate" (fun () ->
              Power.Model.estimate ~options:config.F.power_options routed)
        in
        let bitstream =
          sp "bitstream" "Dagger.generate" (fun () -> Bitstream.Dagger.generate routed)
        in
        let bytes = bitstream.Bitstream.Dagger.bytes in
        let round_trip =
          sp "bitstream" "Dagger.verify" (fun () ->
              Bitstream.Dagger.verify routed bytes = Bitstream.Dagger.Verified)
        in
        let emulated =
          sp "bitstream" "Dagger.verify_functional" (fun () ->
              Bitstream.Dagger.verify_functional routed bytes)
        in
        (power, bitstream, round_trip && emulated))
  in
  let width_probes =
    match Obs.Registry.find (Obs.Registry.snapshot obs) "route.width-probes" with
    | Some (Obs.Registry.Gauge g) -> int_of_float g
    | _ -> 0
  in
  ( {
      min_width = routed.Route.Router.min_width;
      width = routed.Route.Router.width;
      crit_s = stats.Route.Router.critical_path_s;
      power_w = power.Power.Model.total_w;
      bits = bitstream.Bitstream.Dagger.bits;
      digest = digest bitstream.Bitstream.Dagger.bytes;
      verified;
      luts = (Netlist.Logic.stats mapped).Netlist.Logic.n_gates;
      clbs = Pack.Cluster.cluster_count packing;
      moves = anneal.Place.Anneal.moves;
      heap_pops = stats.Route.Router.heap_pops;
      iterations = stats.Route.Router.router_iterations;
    },
    { accepted = anneal.Place.Anneal.accepted; width_probes } )
