(* The benchmark command:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload in this fresh process from the checkout root,
   checks every output, and prints one JSON line last: the end-to-end
   metrics with --trace 0, the per-layer metrics of a traced replay with
   --trace 1.  Each workload repeats a fixed round of work, the same
   however fast the host runs, in as many rounds as fit --seconds (at
   least three), and reports each time at its best round.  Progress and
   per-compile rows go to stderr. *)

let workloads =
  [
    ("compile-large", Compile_large.run);
    ("service-mixed", Service_mixed.run);
    ("arch-sweep", Arch_sweep.run);
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (compile-large|service-mixed|arch-sweep) \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref None in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; parse rest
    | "--seconds" :: s :: rest ->
        seconds := Option.value ~default:0 (int_of_string_opt s); parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  let seed, trace =
    match (!seed, !trace) with Some s, Some t when !seconds > 0 -> (s, t) | _ -> usage ()
  in
  (* no run may outlive its budget: stop (and reap the daemon) first *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "bench: time limit reached";
         exit 3));
  ignore (Unix.alarm 170);
  Env.rm_rf Env.root;
  Env.mkdir_p Env.root;
  let outcome = run ~seed ~seconds:!seconds ~trace in
  let failures = outcome.Metrics.failures in
  List.iter (fun f -> prerr_endline ("FAILED " ^ f)) failures;
  (* keep the trace files, drop stores and sockets *)
  Array.iter
    (fun e ->
      if not (Filename.check_suffix e ".trace.json") then Env.rm_rf (Filename.concat Env.root e))
    (Sys.readdir Env.root);
  let failed = List.length failures in
  print_endline
    (Report.result_line ~correct:(failed = 0) ~attempted:outcome.Metrics.attempted ~failed
       outcome.Metrics.metrics);
  exit (if failed = 0 then 0 else 1)
