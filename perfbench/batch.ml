(* The loop shared by the two compile workloads: run the same list of
   compiles in several rounds and report the untraced figures of the
   best round, or replay the last round stage by stage for the
   per-layer figures. *)

(* [op] is UNIT#ROUND: the unit of work (a design, or a design at one
   architecture point, at its placement seed) and the round it belongs
   to *)
type job = { op : string; vhdl : string; config : Core.Flow.config }

let unit_of j = String.sub j.op 0 (String.rindex j.op '#')

type round = {
  ok : (job * Compile.qor * float) list;
  wall : float;
  cpu : float;
  rss : float;  (** peak RSS of the process so far, MB *)
}

(* How a workload runs its compiles: one after another, or over the
   Domain pool. *)
type mapper = { map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

let round ~mapper ~fail jobs =
  let cpu0 = Env.cpu () and t0 = Env.now () in
  let compiled =
    mapper.map
      (fun j ->
        Env.timed (fun () ->
            match Compile.run ~config:j.config j.vhdl with
            | q -> Ok q
            | exception e -> Error (Printexc.to_string e))
        |> fun (r, dt) -> (j, r, dt))
      jobs
  in
  let wall = Env.now () -. t0 and cpu = Env.cpu () -. cpu0 in
  let rss = Env.peak_rss_mb () in
  Printf.eprintf "%d compiles in %.3fs wall, %.3fs CPU, peak RSS %.1f MB\n%!"
    (List.length compiled) wall cpu rss;
  let ok =
    List.filter_map
      (fun (j, r, dt) ->
        match r with
        | Ok q ->
            Printf.eprintf "  %-28s seed=%-7d %7.3fs %s\n" j.op j.config.Core.Flow.seed dt
              (Compile.describe q);
            if not q.Compile.verified then fail j "bitstream or fabric emulation failed";
            Some (j, q, dt)
        | Error e ->
            fail j e;
            None)
      compiled
  in
  { ok; wall; cpu; rss }

(* The rounds fill [seconds], at least three of them.  [setup r] lists
   round [r]'s compiles; it runs, timed, just before the round, so the
   set-ups spread over the run and [setup_s] is their median.  Every
   round compiles the same units at the same seeds, into stores of its
   own.  The host only ever adds time to fixed work, so each time is the
   best over the rounds: a slow spell of the shared host has to last the
   whole run to move it.  [lanes] is how many compiles [mapper] runs at
   once.  With [cache], the replay goes through a store of its own, as
   the untraced compiles went through theirs. *)
let measure ~name ~mapper ~lanes ~cache ~seconds ~setup ~trace =
  let failures = ref [] in
  let fail j msg = failures := Printf.sprintf "%s: %s" j.op msg :: !failures in
  let work, setups =
    List.split
      (Env.rounds ~min:3 ~seconds (fun r ->
           let jobs, setup_s = Env.timed_setup (fun () -> setup r) in
           ((jobs, round ~mapper ~fail jobs), setup_s)))
  in
  let work, reps = List.split work in
  let setup_s = Env.median setups in
  (* the flow is deterministic: a unit's outcome is the same every round *)
  let first = Hashtbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun (j, q, _) ->
          match Hashtbl.find_opt first (unit_of j) with
          | None -> Hashtbl.replace first (unit_of j) q
          | Some q0 ->
              if not (Compile.same q0 q) then
                fail j ("differs from an earlier round: " ^ Compile.describe q))
        r.ok)
    reps;
  let best f = Report.best (List.map f reps) in
  let metrics =
    if not trace then
      let all = List.concat_map (fun r -> r.ok) reps in
      Metrics.end_to_end
        {
          Metrics.setup_s;
          wall_s = best (fun r -> r.wall);
          cpu_s = best (fun r -> r.cpu);
          (* the fresh process through its first round, as a designer's
             or architect's CLI run holds it; later rounds start from
             the heap the first one grew *)
          peak_rss_mb = (List.hd reps).rss;
          compile_s =
            Report.geomean_of_best
              (List.concat_map (fun r -> List.map (fun (j, _, dt) -> (unit_of j, dt)) r.ok) reps);
          crit_ns = List.map (fun (_, q, _) -> q.Compile.crit_s *. 1e9) all;
          power_mw = List.map (fun (_, q, _) -> q.Compile.power_w *. 1e3) all;
        }
    else begin
      (* the last round, when the process is as warm as the replay *)
      let last = List.nth reps (List.length reps - 1) in
      let cache_obs = Obs.Registry.create () in
      let store =
        if cache then
          Some (Cache.Store.open_ ~obs:cache_obs (Env.fresh_dir (name ^ "-replay-store")))
        else None
      in
      let t0 = Env.now () in
      let replays =
        mapper.map
          (fun (j, q, _) ->
            let rec_ = Spans.create j.op in
            let config = { j.config with Core.Flow.cache_dir = None } in
            match Compile.replay rec_ ~store ~config j.vhdl with
            | rq, counts ->
                if not (Compile.same q rq) then
                  fail j ("replay differs: " ^ Compile.describe rq);
                (Some (rq, counts), Spans.spans rec_)
            | exception e ->
                fail j ("replay raised " ^ Printexc.to_string e);
                (None, Spans.spans rec_))
          last.ok
      in
      let traced_wall = Env.now () -. t0 in
      let spans = List.concat_map snd replays in
      Spans.write_chrome (Filename.concat Env.root (name ^ ".trace.json")) spans;
      let done_ = List.filter_map fst replays in
      let sum f = List.fold_left (fun a (q, c) -> a + f q c) 0 done_ in
      let snap = Obs.Registry.snapshot cache_obs in
      Metrics.per_layer
        {
          (Metrics.of_spans spans) with
          Metrics.luts = sum (fun q _ -> q.Compile.luts);
          clbs = sum (fun q _ -> q.Compile.clbs);
          moves = sum (fun q _ -> q.Compile.moves);
          accepted = sum (fun _ c -> c.Compile.accepted);
          heap_pops = sum (fun q _ -> q.Compile.heap_pops);
          iterations = sum (fun q _ -> q.Compile.iterations);
          width_probes = sum (fun _ c -> c.Compile.width_probes);
          wmin_sum = sum (fun q _ -> Option.value ~default:0 q.Compile.min_width);
          cache_hits = Compile.counter snap "cache.hit";
          cache_misses = Compile.counter snap "cache.miss";
          cache_bytes = Compile.counter snap "cache.bytes";
          par_cpu_s = best (fun r -> r.cpu);
          par_wall_s = best (fun r -> r.wall);
          traced_wall_s = traced_wall;
          untraced_wall_s = last.wall;
          coverage_base_s = traced_wall *. float_of_int lanes;
          lanes;
        }
    end
  in
  {
    Metrics.attempted = List.length (List.concat work);
    failures = List.rev !failures;
    metrics;
  }
