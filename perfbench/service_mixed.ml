(* service-mixed: a team sharing one compile service.  An amdreld child
   (2 workers, 2 domains) is warmed with the 15-design suite, then 2
   connections (the host's core count) each keep one request outstanding
   -- a closed loop, as amdrel_flow --remote behaves -- over a fixed
   plan of 150 requests, 10 per suite design, shuffled by the seed: 70 %
   exact repeats (every stage hits: p50 follows the cache-read and
   protocol path), 20 % fresh placement seeds (synth/techmap/pack hit, place onward misses and
   stores: p90 follows small-design place and route) and 10 % fresh
   seeds with the progress stream on (event framing).  Submits are never
   pipelined on one connection, so the per-connection ordering race of
   the daemon's event streaming is not exercised here; its own
   deterministic test covers it. *)

module P = Service.Protocol
module C = Service.Client
module J = Obs.Jsonin

let daemon_exe = Filename.concat "_build" (Filename.concat "default" "bin/amdreld.exe")
let connections = 2
let suite = Array.of_list Core.Bench_circuits.suite

(* ---------- the daemon child ---------- *)

type daemon = { pid : int; sock : string }

let live = ref []

let reap pid =
  let rec wait n =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when n > 0 ->
        Unix.sleepf 0.05;
        wait (n - 1)
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait 200;
  live := List.filter (( <> ) pid) !live

(* every daemon still running when the process exits is stopped and
   waited for, whatever path the exit took *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          reap pid)
        !live)

let start dir =
  let sock = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close null)
      (fun () ->
        Unix.create_process daemon_exe
          [| daemon_exe; "--socket"; sock; "--workers"; "2"; "-j"; "2";
             "--cache-dir"; Filename.concat dir "store"; "--quiet" |]
          null log log)
  in
  live := pid :: !live;
  (* poll at a fine, fixed step: a backoff schedule would quantise the
     measured start-up time *)
  let rec ready n =
    match C.connect sock with
    | c -> C.close c
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when n > 0 ->
        Unix.sleepf 0.002;
        ready (n - 1)
  in
  ready 5000;
  { pid; sock }

let stop d =
  (try C.with_connection d.sock (fun c -> ignore (C.request c P.Shutdown))
   with _ -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  reap d.pid

(* ---------- one closed-loop client connection ---------- *)

type reply = {
  req : Plan.request;
  t0 : float;
  t1 : float;
  send_s : float;  (** encoding and writing the request *)
  resp : Obs.Emit.t;
  events : int;  (** progress-event lines received *)
}

(* the completion record of a progress submit comes after its ack and
   its event lines *)
let recv_streaming c =
  let first = C.recv c in
  if not (C.ok first) then (first, 0)
  else
    let rec next n =
      let line = C.recv c in
      match J.member "event" line with Some _ -> next (n + 1) | None -> (line, n)
    in
    next 0

(* One connection of the closed loop: take the next request of the plan,
   wait for its reply, repeat until the plan is exhausted.  A request
   that raises (the daemon died, the connection broke) ends the
   connection with an error reply, which the check then reports. *)
let serve sock ?spans next =
  C.with_connection sock (fun c ->
      let span name f =
        match spans with None -> f () | Some rec_ -> Spans.with_ rec_ ~layer:"service" name f
      in
      let rec loop acc =
        match next () with
        | None -> acc
        | Some (r : Plan.request) -> (
            let s =
              { P.default_submit with
                P.vhdl = snd suite.(r.Plan.design);
                seed = r.Plan.seed;
                progress = r.Plan.kind = Plan.Fresh_progress }
            in
            let call () =
              let (), send_s =
                Env.timed (fun () -> span "Client.send" (fun () -> C.send c (P.Submit s)))
              in
              let resp, events = if s.P.progress then recv_streaming c else (C.recv c, 0) in
              (send_s, resp, events)
            in
            let t0 = Env.now () in
            match span "Client.submit" call with
            | send_s, resp, events ->
                loop ({ req = r; t0; t1 = Env.now (); send_s; resp; events } :: acc)
            | exception e ->
                let resp =
                  Obs.Emit.Obj
                    [ ("ok", Obs.Emit.Bool false);
                      ("error", Obs.Emit.String (Printexc.to_string e)) ]
                in
                { req = r; t0; t1 = Env.now (); send_s = 0.0; resp; events = 0 } :: acc)
      in
      loop [])

(* Client-side decoding of a response: the time to parse its line again,
   measured after the load on the line the daemon printed. *)
let decode_s r =
  let line = Obs.Emit.to_string r.resp in
  snd (Env.timed (fun () -> ignore (J.parse line)))

(* Closed loop: [connections] connections share one cursor over the plan,
   so neither idles while the other still has work; the replies come
   back in completion order. *)
let load ?(traced = false) d plan =
  let plan = Array.of_list plan in
  let cursor = Atomic.make 0 in
  let next () =
    let i = Atomic.fetch_and_add cursor 1 in
    if i < Array.length plan then Some plan.(i) else None
  in
  let recs = Array.init connections (fun k -> Spans.create (Printf.sprintf "conn%d" k)) in
  let workers =
    Array.init connections (fun k ->
        Domain.spawn (fun () ->
            serve d.sock ?spans:(if traced then Some recs.(k) else None) next))
  in
  let replies = List.concat_map Domain.join (Array.to_list workers) in
  ( List.sort (fun a b -> compare a.t1 b.t1) replies,
    List.concat_map Spans.spans (Array.to_list recs) )

let warm_plan ~seed =
  List.init (Array.length suite) (fun design ->
      { Plan.index = design; design; seed = Plan.warm_seed ~seed; kind = Plan.Repeat })

let server_metrics d =
  C.with_connection d.sock (fun c ->
      match J.member "metrics" (C.request c P.Metrics) with
      | Some m -> m
      | None -> failwith "metrics verb answered without metrics")

let field path json =
  List.fold_left (fun j k -> Option.bind j (J.member k)) (Some json) path

let num path json =
  match field path json with
  | Some v -> (
      match J.get_float v with Some f -> f | None -> 0.0)
  | None -> 0.0

(* ---------- one round: set-up, then the measured load ---------- *)

(* Untraced rounds fill the run's seconds, at least three of them, each
   on a fresh daemon over a fresh store with the same plan; the run
   reports each time at its best round. *)

type round = {
  setup_s : float;       (** daemon start to the end of the warm-up *)
  warm : reply list;
  load : reply list;     (** in completion order *)
  wall : float;
  cpu : float;           (** daemon + client *)
  rss : float;           (** daemon peak *)
  before : Obs.Emit.t;   (** server metrics after the warm-up *)
  after : Obs.Emit.t;
  spans : Spans.span list;
}

let round ~seed ~traced plan i =
  let t0 = Env.now () in
  let d = start (Env.fresh_dir (Printf.sprintf "svc%d" i)) in
  Fun.protect
    ~finally:(fun () -> stop d)
    (fun () ->
      let warm, _ = load d (warm_plan ~seed) in
      let setup_s = Env.now () -. t0 in
      let before = server_metrics d in
      let dcpu0 = Env.proc_cpu_s d.pid and cpu0 = Env.cpu () and t0 = Env.now () in
      let replies, spans = load ~traced d plan in
      let wall = Env.now () -. t0 in
      let cpu = Env.proc_cpu_s d.pid -. dcpu0 +. (Env.cpu () -. cpu0) in
      let rss = Env.peak_rss_mb ~pid:d.pid () in
      let rec_ = Spans.create "metrics" in
      let after =
        if traced then Spans.with_ rec_ ~layer:"service" "Client.metrics" (fun () -> server_metrics d)
        else server_metrics d
      in
      { setup_s; warm; load = replies; wall; cpu; rss; before; after;
        spans = spans @ Spans.spans rec_ })

(* ---------- verification against in-process compiles ---------- *)

let ref_config seed = { Core.Flow.default_config with Core.Flow.seed; jobs = Some 1 }

(* reference outcome of every distinct (design, seed) the daemon saw *)
let references replies =
  let keys =
    List.sort_uniq compare (List.map (fun r -> (r.req.Plan.design, r.req.Plan.seed)) replies)
  in
  let qs =
    Util.Parallel.map_list ~jobs:2
      (fun (design, seed) ->
        match Compile.run ~config:(ref_config seed) (snd suite.(design)) with
        | q -> Some q
        | exception _ -> None)
      keys
  in
  let tbl = Hashtbl.create 128 in
  List.iter2 (fun k q -> Hashtbl.replace tbl k q) keys qs;
  tbl

let g9 f = Printf.sprintf "%.9g" f

(* Why a reply is wrong, if it is: the daemon's bitstream digest, widths,
   bits and printed QoR must equal the in-process compile's. *)
let check refs r =
  let key = (r.req.Plan.design, r.req.Plan.seed) in
  match Hashtbl.find_opt refs key with
  | None | Some None -> Some "in-process reference compile failed"
  | Some (Some (q : Compile.qor)) ->
      let res path = field ("result" :: path) r.resp in
      let hex = Option.bind (J.member "bitstream_hex" r.resp) J.get_string in
      let bytes = Option.bind hex (fun h -> Result.to_option (P.hex_decode h)) in
      if not (C.ok r.resp) then Some (C.error_message r.resp)
      else if Option.bind (res [ "verified" ]) J.get_bool <> Some true then
        Some "daemon reports the compile unverified"
      else if Option.map Compile.digest bytes <> Some q.Compile.digest then
        Some "bitstream digest differs from the in-process compile"
      else if
        Option.bind (res [ "min_width" ]) J.get_int <> q.Compile.min_width
        || Option.bind (res [ "bits" ]) J.get_int <> Some q.Compile.bits
        || Option.map g9 (Option.bind (res [ "critical_path_s" ]) J.get_float)
           <> Some (g9 q.Compile.crit_s)
        || Option.map g9 (Option.bind (res [ "power_w" ]) J.get_float)
           <> Some (g9 q.Compile.power_w)
      then Some "QoR differs from the in-process compile"
      else if r.req.Plan.kind = Plan.Fresh_progress && r.events = 0 then
        Some "progress submit streamed no events"
      else None

(* ---------- per-layer figures from the daemon's own records ---------- *)

(* Stage times come from each response's registry, which holds a stage's
   timer only when the stage ran in the daemon (a cache hit skips it);
   work counts are taken from the same responses only. *)
let layers_of_replies (l : Metrics.layers) replies =
  List.fold_left
    (fun (l : Metrics.layers) r ->
      let metric k = field [ "result"; "metrics"; k ] r.resp in
      let wall keys =
        List.fold_left (fun a k -> a +. num [ "result"; "metrics"; k; "wall_s" ] r.resp) 0.0 keys
      in
      let count ~if_ran k =
        if metric if_ran = None then 0
        else int_of_float (num [ "result"; "metrics"; k; "value" ] r.resp)
      in
      let result_int ~if_ran k =
        if metric if_ran = None then 0 else int_of_float (num [ "result"; k ] r.resp)
      in
      {
        l with
        synth_s = l.synth_s +. wall [ "vhdl-parser"; "diviner-synth" ];
        techmap_s = l.techmap_s +. wall [ "diviner-edif"; "druid"; "e2fmt"; "sis-flowmap" ];
        pack_s = l.pack_s +. wall [ "t-vpack" ];
        place_s = l.place_s +. wall [ "vpr-setup"; "vpr-place" ];
        (* the daemon's route timer holds search and final route together;
           they cannot be split from outside *)
        route_search_s = l.route_search_s +. wall [ "vpr-route" ];
        sta_s = l.sta_s +. wall [ "sta" ];
        power_s = l.power_s +. wall [ "powermodel" ];
        bitstream_s = l.bitstream_s +. wall [ "dagger"; "fabric-emulation" ];
        bitstream_verify_s = l.bitstream_verify_s +. wall [ "fabric-emulation" ];
        luts = l.luts + result_int ~if_ran:"sis-flowmap" "luts";
        clbs = l.clbs + result_int ~if_ran:"t-vpack" "clbs";
        moves = l.moves + count ~if_ran:"vpr-place" "place.moves";
        heap_pops = l.heap_pops + count ~if_ran:"vpr-route" "vpr-route.heap-pops";
        iterations = l.iterations + count ~if_ran:"vpr-route" "vpr-route.iterations";
        width_probes = l.width_probes + count ~if_ran:"vpr-route" "route.width-probes";
        wmin_sum = l.wmin_sum + int_of_float (num [ "result"; "min_width" ] r.resp);
        cache_bytes = l.cache_bytes + count ~if_ran:"cache.bytes" "cache.bytes";
      })
    l replies

let run ~seed ~seconds ~trace =
  let plan = Array.to_list (Plan.requests ~seed ~designs:(Array.length suite)) in
  let reps = Env.rounds ~min:3 ~seconds (round ~seed ~traced:false plan) in
  let traced =
    if trace then Some (round ~seed ~traced:true plan (List.length reps)) else None
  in
  let all =
    List.concat_map (fun r -> r.warm @ r.load) (reps @ Option.to_list traced)
  in
  let refs = references all in
  let failures =
    List.filter_map
      (fun r ->
        Option.map
          (fun why ->
            Printf.sprintf "request %d (%s %s seed %d): %s" r.req.Plan.index
              (Plan.kind_name r.req.Plan.kind) (fst suite.(r.req.Plan.design))
              r.req.Plan.seed why)
          (check refs r))
      all
  in
  let latency r = r.t1 -. r.t0 in
  List.iter
    (fun a ->
      Printf.eprintf "service-mixed: set-up %.3fs, %d requests in %.3fs wall (%.1f/s), %.3fs CPU\n%!"
        a.setup_s (List.length a.load) a.wall
        (float_of_int (List.length a.load) /. a.wall) a.cpu)
    reps;
  let med f = Env.median (List.map f reps) and best f = Report.best (List.map f reps) in
  let metrics =
    match traced with
    | None ->
        let qor f =
          List.filter_map
            (fun r ->
              match Hashtbl.find_opt refs (r.req.Plan.design, r.req.Plan.seed) with
              | Some (Some q) -> Some (f q)
              | _ -> None)
            (List.hd reps).load
        in
        Metrics.end_to_end
          {
            Metrics.setup_s = med (fun a -> a.setup_s);
            wall_s = best (fun a -> a.wall);
            cpu_s = best (fun a -> a.cpu);
            peak_rss_mb = med (fun a -> a.rss);
            compile_s =
              Report.geomean_of_best
                (List.concat_map
                   (fun a -> List.map (fun r -> (r.req.Plan.index, latency r)) a.load)
                   reps);
            crit_ns = qor (fun q -> q.Compile.crit_s *. 1e9);
            power_mw = qor (fun q -> q.Compile.power_w *. 1e3);
          }
    | Some b ->
        let delta k = num [ k; "value" ] b.after -. num [ k; "value" ] b.before in
        let total k = num [ k; "wall_s" ] b.after -. num [ k; "wall_s" ] b.before in
        let n = float_of_int (List.length b.load) in
        (* the daemon's own account of each request -- queue wait, then
           the worker's compile including the cache reads and the
           response encoding -- plus the client's encode and decode,
           against the latency the client saw; what none of them holds
           (IO loop, socket transfer) is service.overhead_s *)
        let queue_wait = total "service.queue-wait" and compile = total "service.compile" in
        let client = List.fold_left (fun a r -> a +. r.send_s +. decode_s r) 0.0 b.load in
        Spans.write_chrome (Filename.concat Env.root "service-mixed.trace.json") b.spans;
        Metrics.per_layer
          (layers_of_replies
             {
               Metrics.zero with
               Metrics.requests = List.length b.load;
               request_latencies = List.map latency b.load;
               hit_latencies =
                 List.filter_map
                   (fun r -> if r.req.Plan.kind = Plan.Repeat then Some (latency r) else None)
                   b.load;
               queue_wait_s = Report.ratio queue_wait n;
               service_compile_s = Report.ratio compile n;
               client_s = Report.ratio client n;
               rejected = int_of_float (delta "service.rejected");
               errors = int_of_float (delta "service.errors");
               cache_hits = int_of_float (delta "cache.hit");
               cache_misses = int_of_float (delta "cache.miss");
               par_cpu_s = best (fun a -> a.cpu);
               par_wall_s = best (fun a -> a.wall);
               traced_wall_s = b.wall;
               (* the round just before the traced one, as on the
                  compile workloads *)
               untraced_wall_s = (List.nth reps (List.length reps - 1)).wall;
               traced_self_s = queue_wait +. compile +. client;
               coverage_base_s = List.fold_left (fun a r -> a +. latency r) 0.0 b.load;
               lanes = connections;
             }
             b.load)
  in
  { Metrics.attempted = List.length all; failures; metrics }
