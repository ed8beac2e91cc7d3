(* Clocks, process statistics and the scratch directory of one run. *)

let now = Unix.gettimeofday

(* CPU seconds of this process, all domains *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* A set-up is far shorter than a minor-heap's worth of allocation:
   start it on an empty minor heap, so it pays for its own collections
   and not for what the round before it left. *)
let timed_setup f =
  Gc.minor ();
  timed f

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) of a process, in MB; [None] for this one. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | Some p -> Printf.sprintf "/proc/%d/status" p
    | None -> "/proc/self/status"
  in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (read_file path))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* User + system CPU seconds of another process, from /proc/PID/stat
   (fields 14 and 15, in clock ticks of 1/100 s on Linux). *)
let proc_cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may contain spaces: fields start after ')' *)
  let rest = String.sub stat (String.rindex stat ')' + 2)
      (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields.(0) is field 3 (state), so utime (14) is fields.(11) *)
  float_of_string fields.(11) /. 100.0 +. float_of_string fields.(12) /. 100.0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* The per-run scratch root, relative to the checkout so Unix socket
   paths stay short; created empty and removed when the run ends. *)
let root = "_perfbench_run"

let fresh_dir name =
  let d = Filename.concat root name in
  rm_rf d;
  mkdir_p d;
  d

let median xs = Util.Stats.median (Array.of_list xs)

(* Rounds of fixed work: [f 0], [f 1], ... -- at least [min] of them,
   then more while one more, as long as the longest so far, still ends
   within [seconds] of the first one's start. *)
let rounds ~min ~seconds f =
  let t0 = now () in
  let rec go r longest acc =
    if r >= min && now () -. t0 +. longest > float_of_int seconds then List.rev acc
    else
      let v, dt = timed (fun () -> f r) in
      go (r + 1) (Float.max longest dt) (v :: acc)
  in
  go 0 0.0 []
