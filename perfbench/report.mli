(** Reporting rules shared by every workload: metric names, the
    sample-count rule for percentiles, and the one-line JSON result the
    benchmark prints last. *)

val valid_name : string -> bool
(** A metric name: 1 to 64 characters from [[A-Za-z0-9_.-]], starting
    with a letter or a digit. *)

val percentile : int -> float list -> float option
(** [percentile pct xs] is the nearest-rank [pct]-th percentile of [xs]
    ([0 < pct < 100]), or [None] unless at least 10 samples lie beyond
    it: p50 needs 20 samples, p90 needs 100.  Callers pass samples of
    one fixed distribution: the service's request latencies, whose
    design and request-class mix the plan fixes (10 requests per suite
    design), are one such distribution.  The per-design times of a batch
    of different compiles are not; they stay per-design rows. *)

val ratio : float -> float -> float
(** [ratio num base] is [num /. base], or 0 when [base] is 0 (the layer
    did no work on this workload). *)

val geomean : float list -> float
(** Geometric mean of positive samples, so one long compile does not
    swamp the short ones; 0 for no samples (every operation failed),
    which the run's [failed] count already reports.
    @raise Invalid_argument on a non-positive sample. *)

val best : float list -> float
(** The smallest sample: the time of a fixed piece of work in the round
    the host slowed it least; [infinity] for no samples. *)

val geomean_of_best : ('k * float) list -> float
(** [geomean_of_best samples] groups the samples by key (one unit of
    work -- a design at its placement seed, or one request of the plan --
    timed once per round), takes each key's {!best} over the rounds, and
    returns the {!geomean} of those.  Every round repeats the same work,
    so host noise only ever adds time: a slow spell has to cover every
    round of a unit to move it. *)

type metric = { name : string; value : float; unit_ : string }

val metric : string -> string -> float -> metric
(** [metric name unit value].
    @raise Invalid_argument on a name outside {!valid_name}. *)

val result_line :
  correct:bool -> attempted:int -> failed:int -> metric list -> string
(** The benchmark's last stdout line:
    [{"correct": …, "attempted": …, "failed": …, "metrics": {NAME:
    {"value": …, "unit": …}, …}}] with metrics in the given order. *)
