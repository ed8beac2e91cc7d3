(** The benchmark's own span recorder.

    One recorder per traced operation (one compile, or one service
    connection); spans carry the operation's id, so the spans of one
    compile share it.  A recorder is used from one domain only; the
    workload collects finished recorders after joining its domains.
    Spans stay in memory until {!write_chrome} at the end of the run. *)

type span = {
  id : int;
  parent : int;   (** 0 for a root span *)
  op : string;    (** operation id, shared by all its spans *)
  layer : string; (** [lib/] layer the call enters, e.g. ["route"] *)
  name : string;  (** the public call, e.g. ["Router.route_min_width"] *)
  t0 : float;
  t1 : float;
  extra : bool;   (** work the untraced run does not do (a probe the
                      replay adds to split a layer's time) *)
}

type t

val create : string -> t
(** [create op] starts an empty recorder for operation [op]. *)

val with_ : ?extra:bool -> t -> layer:string -> string -> (unit -> 'a) -> 'a
(** Time [f ()] as a span nested in the innermost open span. *)

val spans : t -> span list
(** Finished spans, in start order. *)

val self_times : span list -> (string * float) list
(** Per layer, the sum of span durations minus the time their direct
    children cover, sorted by layer name. *)

val layer_time : string -> span list -> float
(** Self time of one layer (0 when absent). *)

val duration : ?extra:bool -> string -> span list -> float
(** Total duration of the spans of one call name ([extra] restricts
    them to probes or to real work). *)

val extra_time : span list -> float
(** Total duration of the outermost [extra] spans. *)

val write_chrome : string -> span list -> unit
(** Write the spans as Chrome trace-event JSON (one lane per operation),
    loadable in Perfetto. *)
