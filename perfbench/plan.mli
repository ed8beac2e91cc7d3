(** Inputs derived from the workload seed.  The same seed always gives
    the same placement seeds and the same request plan; the program
    under test only ever sees the generated designs and seeds. *)

val placement_seeds : seed:int -> int -> int array
(** [placement_seeds ~seed n] draws [n] placement seeds in [1, 10^6). *)

(** The three request classes of the [service-mixed] traffic. *)
type kind =
  | Repeat  (** a suite design at the warm-up seed: hits every stage *)
  | Fresh  (** a suite design at an unused seed: hits synth, techmap and
               pack, misses (and stores) from place on *)
  | Fresh_progress  (** as [Fresh], with the progress-event stream on *)

type request = { index : int; design : int; seed : int; kind : kind }

val warm_seed : seed:int -> int
(** The placement seed of the warm-up pass (and of every [Repeat]). *)

val per_design : int
(** Requests per design in a plan: 7 [Repeat], 2 [Fresh] and 1
    [Fresh_progress], so every plan has exactly the 70/20/10 mix and the
    same designs; only the order and the seeds vary with the seed. *)

val requests : seed:int -> designs:int -> request array
(** [requests ~seed ~designs]: [designs * per_design] requests over
    design indices [0 .. designs-1] in an order shuffled by the seed,
    with [index] their position.  Fresh seeds are distinct from each
    other and from the warm seed. *)

val kind_name : kind -> string
