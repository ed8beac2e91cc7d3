(* The benchmark's own helpers: the sample-count rule, the geometric
   mean it reports, the request plan, and the metric-name charset. *)

open Perfbench

let floats = List.init 200 (fun i -> float_of_int (i + 1))

let sample_rule () =
  let take n = List.filteri (fun i _ -> i < n) floats in
  Alcotest.(check (option (float 0.))) "p50 of 19 omitted" None (Report.percentile 50 (take 19));
  Alcotest.(check (option (float 0.))) "p50 of 20" (Some 10.) (Report.percentile 50 (take 20));
  Alcotest.(check (option (float 0.))) "p90 of 99 omitted" None (Report.percentile 90 (take 99));
  Alcotest.(check (option (float 0.))) "p90 of 100" (Some 90.) (Report.percentile 90 (take 100));
  Alcotest.(check (option (float 0.)))
    "order-free" (Some 90.) (Report.percentile 90 (List.rev (take 100)));
  Alcotest.(check (float 0.)) "ratio with zero base" 0. (Report.ratio 3. 0.)

let geomean () =
  Alcotest.(check (float 0.)) "no samples (every compile failed) reads 0" 0. (Report.geomean []);
  Alcotest.(check (float 1e-9))
    "a large value weighs by its ratio, not its size" 10. (Report.geomean [ 1.; 100.; 10. ]);
  Alcotest.check_raises "non-positive sample"
    (Invalid_argument "Stats.geomean: non-positive entry") (fun () ->
      ignore (Report.geomean [ 1.; 0. ]));
  Alcotest.(check (float 1e-9))
    "per-unit best first: a slow round moves nothing" 4.
    (Report.geomean_of_best
       [ ("a", 2.5); ("b", 8.); ("a", 2.); ("b", 9.); ("a", 50.); ("b", 80.) ])

let plan () =
  let a = Plan.requests ~seed:7 ~designs:15 and b = Plan.requests ~seed:7 ~designs:15 in
  Alcotest.(check bool) "same seed, same plan" true (a = b);
  Alcotest.(check bool) "another seed, another order" false (a = Plan.requests ~seed:8 ~designs:15);
  Alcotest.(check int) "size" (15 * Plan.per_design) (Array.length a);
  let big = Plan.requests ~seed:3 ~designs:100 in
  Alcotest.(check int) "1000 draws" 1000 (Array.length big);
  let share k =
    float_of_int (List.length (List.filter (fun r -> r.Plan.kind = k) (Array.to_list big))) /. 1000.
  in
  List.iter
    (fun (k, p) ->
      Alcotest.(check bool) (Plan.kind_name k ^ " within 5 %") true (Float.abs (share k -. p) <= 0.05))
    [ (Plan.Repeat, 0.7); (Plan.Fresh, 0.2); (Plan.Fresh_progress, 0.1) ];
  let warm = Plan.warm_seed ~seed:3 in
  let fresh =
    List.filter_map (fun r -> if r.Plan.kind = Plan.Repeat then None else Some r.Plan.seed)
      (Array.to_list big)
  in
  Alcotest.(check bool) "repeats use the warm seed" true
    (Array.for_all (fun r -> r.Plan.kind <> Plan.Repeat || r.Plan.seed = warm) big);
  Alcotest.(check int) "fresh seeds distinct" (List.length fresh)
    (List.length (List.sort_uniq compare fresh));
  Alcotest.(check bool) "fresh seeds never the warm seed" false (List.mem warm fresh);
  Alcotest.(check bool) "placement seeds repeat" true
    (Plan.placement_seeds ~seed:5 4 = Plan.placement_seeds ~seed:5 4)

let names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Report.valid_name n))
    [ "setup_s"; "qor.crit_ns_geomean"; "route.search_over_final"; "9-lives" ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (Report.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "p/s"; "x%"; String.make 65 'a' ];
  Alcotest.check_raises "metric rejects a bad name" (Invalid_argument "Report.metric: a b")
    (fun () -> ignore (Report.metric "a b" "s" 1.))

let result_line () =
  let line =
    Report.result_line ~correct:true ~attempted:3 ~failed:0
      [ Report.metric "wall_s" "s" 1.5; Report.metric "setup_s" "s" 0.25 ]
  in
  Alcotest.(check string) "shape"
    {|{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 1.5, "unit": "s"}, "setup_s": {"value": 0.25, "unit": "s"}}}|}
    line

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "percentile sample-count rule" `Quick sample_rule;
          Alcotest.test_case "geometric mean" `Quick geomean;
          Alcotest.test_case "request plan" `Quick plan;
          Alcotest.test_case "metric names" `Quick names;
          Alcotest.test_case "result line" `Quick result_line;
        ] );
    ]
