let valid_name s =
  let n = String.length s in
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  n >= 1 && n <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok_char s

let percentile pct xs =
  if pct <= 0 || pct >= 100 then invalid_arg "Report.percentile";
  let n = List.length xs in
  (* nearest rank, in integer arithmetic so p90 of 100 samples has
     exactly 10 beyond it *)
  let rank = ((pct * n) + 99) / 100 in
  if n - rank < 10 then None
  else
    let a = Array.of_list xs in
    Array.sort compare a;
    Some a.(rank - 1)

let ratio num base = if base = 0.0 then 0.0 else num /. base

let geomean = function [] -> 0.0 | xs -> Util.Stats.geomean (Array.of_list xs)

let best xs = List.fold_left Float.min infinity xs

let geomean_of_best samples =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (k, x) ->
      let prev = Option.value ~default:infinity (Hashtbl.find_opt by_key k) in
      Hashtbl.replace by_key k (Float.min x prev))
    samples;
  geomean (Hashtbl.fold (fun _ x acc -> x :: acc) by_key [])

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value =
  if not (valid_name name) then invalid_arg ("Report.metric: " ^ name);
  { name; value; unit_ }

let result_line ~correct ~attempted ~failed metrics =
  let open Obs.Emit in
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Obj [ ("value", Float m.value); ("unit", String m.unit_) ]
                  ))
                metrics) );
       ])
