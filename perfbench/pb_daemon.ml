(* The block-service daemon as a separate process: `fdserved` on a Unix
   socket with one worker domain (run.py pins it and the one client
   process to one CPU; they take turns).  Every daemon started here is
   stopped (SIGTERM, then reaped) before perfbench exits. *)

type t = { pid : int; sock : string; mutable alive : bool }

let live : t list ref = ref []

let flags ~cache_levels ~data_dir =
  [ "--domains"; "1"; "--oram-cache-levels"; string_of_int cache_levels ]
  @ match data_dir with Some d -> [ "--data-dir"; d ] | None -> []

let connectable sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) -> false)

let stop t =
  if t.alive then begin
    t.alive <- false;
    Unix.kill t.pid Sys.sigterm;
    ignore (Unix.waitpid [] t.pid);
    live := List.filter (fun d -> d.pid <> t.pid) !live
  end

(* Start the daemon and wait until its socket accepts connections. *)
let start ~exe ~sock ~log ~cache_levels ~data_dir =
  if Sys.file_exists sock then Sys.remove sock;
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let argv = Array.of_list ((exe :: [ "--unix"; sock ]) @ flags ~cache_levels ~data_dir) in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close out) (fun () ->
        Unix.create_process exe argv Unix.stdin out out)
  in
  let t = { pid; sock; alive = true } in
  live := t :: !live;
  let deadline = Pb_util.now () +. 60.0 in
  let rec await () =
    if Sys.file_exists sock && connectable sock then ()
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          if Pb_util.now () > deadline then begin
            stop t;
            failwith "fdserved did not come up"
          end;
          Unix.sleepf 0.002;
          await ()
      | _ ->
          t.alive <- false;
          failwith ("fdserved exited during start-up; see " ^ log)
  in
  await ();
  t

(* Daemon CPU (user + system) so far, seconds, from /proc. *)
let cpu_s t =
  let path = Printf.sprintf "/proc/%d/stat" t.pid in
  if not (Sys.file_exists path) then 0.0
  else begin
    let ic = open_in path in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    (* Fields after the parenthesised command name; utime and stime are
       fields 14 and 15 of the whole line, 12 and 13 after ")". *)
    let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
    let fields = Array.of_list (String.split_on_char ' ' rest) in
    let ticks i = float_of_string fields.(i) in
    (ticks 11 +. ticks 12) /. 100.0
  end

let () = at_exit (fun () -> List.iter stop !live)
