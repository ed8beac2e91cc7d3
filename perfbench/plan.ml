let placement_seeds ~seed n =
  let g = Util.Prng.create seed in
  Array.init n (fun _ -> 1 + Util.Prng.int g 999_999)

type kind = Repeat | Fresh | Fresh_progress
type request = { index : int; design : int; seed : int; kind : kind }

(* Warm and fresh seeds live in disjoint ranges: the warm seed is below
   10^6 and fresh seeds start at 10^6, so a fresh request can never hit
   an entry the warm-up stored. *)
let warm_seed ~seed = (placement_seeds ~seed 1).(0)

let mix = [ (Repeat, 7); (Fresh, 2); (Fresh_progress, 1) ]
let per_design = List.fold_left (fun a (_, n) -> a + n) 0 mix

let requests ~seed ~designs =
  let g = Util.Prng.create (seed lxor 0x5eed) in
  let warm = warm_seed ~seed in
  let fresh_base = 1_000_000 + (1000 * (abs seed mod 1_000_000)) in
  let pool =
    Array.of_list
      (List.concat
         (List.init designs (fun design ->
              List.concat_map (fun (kind, n) -> List.init n (fun _ -> (design, kind))) mix)))
  in
  (* Fisher-Yates *)
  for i = Array.length pool - 1 downto 1 do
    let j = Util.Prng.int g (i + 1) in
    let t = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- t
  done;
  Array.mapi
    (fun index (design, kind) ->
      let seed = if kind = Repeat then warm else fresh_base + index in
      { index; design; seed; kind })
    pool

let kind_name = function
  | Repeat -> "repeat"
  | Fresh -> "fresh"
  | Fresh_progress -> "fresh-progress"
