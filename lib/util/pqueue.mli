(** Binary-heap priority queue with float priorities and int payloads
    (min-heap).

    The PathFinder router's Dijkstra/A* wavefront: payloads are RR-node
    ids.  Decrease-key is emulated by re-insertion (the standard
    Dijkstra trick); stale entries are the caller's concern.

    Storage is two flat arrays ([float array] priorities, [int array]
    payloads) that grow by doubling and are kept across [clear], so a
    queue reused for a whole routing allocates only while it grows.
    The pop order, ties included, is that of the textbook swap-based
    binary heap: the sifts make exactly its comparisons. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val clear : t -> unit
(** Remove every element in O(1); storage is retained. *)

val push : t -> float -> int -> unit
(** [push q priority x] inserts [x]. *)

val top_prio : t -> float
(** The minimum priority, without removing its entry.
    @raise Not_found when empty. *)

val pop : t -> int
(** Remove the minimum-priority entry and return its payload (read
    {!top_prio} first for its priority).
    @raise Not_found when empty. *)
