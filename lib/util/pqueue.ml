(* Binary-heap priority queue with float priorities and int payloads
   (min-heap), the PathFinder router's A* wavefront.

   Priorities and payloads live in two flat arrays: pushing or popping
   allocates nothing in the queue (it only allocates to grow) and writes
   no pointers (no write barrier), and [clear] is O(1) because int
   payloads hold no references.  Stale
   entries are handled by the caller (decrease-key is emulated by
   re-insertion, the standard trick for Dijkstra).

   The sifts move a hole instead of swapping, but make exactly the
   comparisons of the classic swap-based sifts, so the pop order — ties
   included — is that of the textbook binary heap. *)

type t = {
  mutable prio : float array;
  mutable data : int array;
  mutable size : int;
}

let create () = { prio = [||]; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let clear t = t.size <- 0

let grow t =
  let cap = Array.length t.prio in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let np = Array.make ncap 0.0 and nd = Array.make ncap 0 in
  Array.blit t.prio 0 np 0 t.size;
  Array.blit t.data 0 nd 0 t.size;
  t.prio <- np;
  t.data <- nd

let push t p x =
  if t.size >= Array.length t.prio then grow t;
  let prio = t.prio and data = t.data in
  (* sift up: the hole climbs while the new priority beats its parent *)
  let i = ref t.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get prio parent in
    if p < pp then begin
      Array.unsafe_set prio !i pp;
      Array.unsafe_set data !i (Array.unsafe_get data parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set data !i x;
  t.size <- t.size + 1

let top_prio t =
  if t.size = 0 then raise Not_found;
  t.prio.(0)

(* Remove the minimum-priority entry and return its payload.  The last
   entry fills the root's hole and sifts down: at each level the smaller
   child wins (left on a tie), and the hole stops where neither child is
   strictly smaller. *)
let pop t =
  if t.size = 0 then raise Not_found;
  let prio = t.prio and data = t.data in
  let x = data.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let p = Array.unsafe_get prio n and d = Array.unsafe_get data n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let best = ref !i and best_p = ref p in
      if l < n && Array.unsafe_get prio l < !best_p then begin
        best := l;
        best_p := Array.unsafe_get prio l
      end;
      if r < n && Array.unsafe_get prio r < !best_p then begin
        best := r;
        best_p := Array.unsafe_get prio r
      end;
      if !best <> !i then begin
        Array.unsafe_set prio !i !best_p;
        Array.unsafe_set data !i (Array.unsafe_get data !best);
        i := !best
      end
      else continue := false
    done;
    Array.unsafe_set prio !i p;
    Array.unsafe_set data !i d
  end;
  x
