type span = {
  id : int;
  parent : int;
  op : string;
  layer : string;
  name : string;
  t0 : float;
  t1 : float;
  extra : bool;
}

type t = {
  op : string;
  mutable next : int;
  mutable stack : int list;
  mutable finished : span list;
}

let create op = { op; next = 1; stack = []; finished = [] }

let with_ ?(extra = false) t ~layer name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  t.stack <- id :: t.stack;
  let t0 = Unix.gettimeofday () in
  let close () =
    let t1 = Unix.gettimeofday () in
    t.stack <- List.tl t.stack;
    t.finished <-
      { id; parent; op = t.op; layer; name; t0; t1; extra } :: t.finished
  in
  Fun.protect ~finally:close f

let spans t = List.sort (fun a b -> compare a.id b.id) t.finished

(* children are keyed by (op, parent id): ids are unique per recorder *)
let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let k = (s.op, s.parent) in
        Hashtbl.replace child_time k
          ((s.t1 -. s.t0)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time k)))
    spans;
  let per_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_time (s.op, s.id))
      in
      Hashtbl.replace per_layer s.layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt per_layer s.layer)))
    spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq per_layer))

let layer_time layer spans =
  Option.value ~default:0.0 (List.assoc_opt layer (self_times spans))

let duration ?extra name spans =
  List.fold_left
    (fun acc s ->
      if s.name = name && Option.fold ~none:true ~some:(Bool.equal s.extra) extra
      then acc +. (s.t1 -. s.t0)
      else acc)
    0.0 spans

let extra_time spans =
  let extra_ids = Hashtbl.create 16 in
  List.iter (fun s -> if s.extra then Hashtbl.replace extra_ids (s.op, s.id) ()) spans;
  List.fold_left
    (fun acc s ->
      if s.extra && not (Hashtbl.mem extra_ids (s.op, s.parent)) then
        acc +. (s.t1 -. s.t0)
      else acc)
    0.0 spans

let write_chrome path spans =
  let open Obs.Emit in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let lanes = Hashtbl.create 16 in
  let lane op =
    match Hashtbl.find_opt lanes op with
    | Some l -> l
    | None ->
        let l = Hashtbl.length lanes + 1 in
        Hashtbl.replace lanes op l;
        l
  in
  let us t = Float ((t -. base) *. 1e6) in
  let events =
    List.map
      (fun s ->
        Obj
          [
            ("name", String s.name);
            ("cat", String s.layer);
            ("ph", String "X");
            ("ts", us s.t0);
            ("dur", Float ((s.t1 -. s.t0) *. 1e6));
            ("pid", Int 1);
            ("tid", Int (lane s.op));
            ( "args",
              Obj
                [
                  ("op", String s.op);
                  ("id", Int s.id);
                  ("parent", Int s.parent);
                  ("extra", Bool s.extra);
                ] );
          ])
      spans
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string (Obj [ ("traceEvents", List events) ])))
