(* `dynamic-stream`: one streaming dynamic-FD session against a durable
   daemon process, then a restart of the daemon on the same data
   directory.

   Set-up is [Begin_dynamic] on an RND table (128 rows x 6 columns,
   max_lhs 2, capacity 512), and the first [Revalidate] after it is timed
   on its own.  The stream then issues [stream_ops] requests, one at a time:
   45% [Insert_row], 45% [Delete_row] of a live ID, 10% [Revalidate].
   Once an FD's LHS stops being a key, [Revalidate] builds the attribute
   sets the lattice pruned.  Every [Revalidate] is checked against a
   plaintext shadow table of the live rows.  After the stream the daemon is stopped and restarted
   on the same --data-dir; recovery is timed up to the first answered
   [Revalidate].  Finally the whole sequence is replayed through
   [Core.Dynamic] in this process, and the final and recovered replies
   must equal the replay's, FDs and trace digests both. *)

open Relation

let rows = 128
let cols = 6
let capacity = 512
let max_lhs = 2
let stream_ops = 2500
let domain = 1 lsl 20

(* Set-up repetitions per run (each its own namespace); [setup_s] is
   their median. *)
let setup_reps = 3

type op = Ins of Value.t array | Del of int | Reval

(* The client's plaintext shadow of the live rows. *)
type shadow = { live : (int, Value.t array) Hashtbl.t; mutable ids : int array; mutable next : int }

let shadow_of table =
  let live = Hashtbl.create 256 in
  for r = 0 to Table.rows table - 1 do
    Hashtbl.replace live r (Table.row table r)
  done;
  { live; ids = Array.init (Table.rows table) Fun.id; next = Table.rows table }

let shadow_table schema sh =
  Table.make schema (Array.map (fun id -> Hashtbl.find sh.live id) sh.ids)

(* Draw the next request from the seeded generator.  Inserted cells are
   fresh RND values, except that one cell in eight copies the same
   column of a live row, so FDs break and heal as the stream runs. *)
let next_op rng sh =
  let nlive = Array.length sh.ids in
  let r = Crypto.Rng.int rng 20 in
  let insert () =
    Ins
      (Array.init cols (fun c ->
           if Crypto.Rng.int rng 8 = 0 then (Hashtbl.find sh.live sh.ids.(Crypto.Rng.int rng nlive)).(c)
           else Value.Int (1 + Crypto.Rng.int rng domain)))
  in
  if r < 2 then Reval
  else if (r < 11 && nlive < capacity) || nlive < 2 then insert ()
  else Del sh.ids.(Crypto.Rng.int rng nlive)

let apply sh = function
  | Ins row ->
      Hashtbl.replace sh.live sh.next row;
      sh.ids <- Array.append sh.ids [| sh.next |];
      sh.next <- sh.next + 1
  | Del id ->
      Hashtbl.remove sh.live id;
      sh.ids <- Array.of_list (List.filter (fun i -> i <> id) (Array.to_list sh.ids))
  | Reval -> ()

type reply = { statuses : (Fdbase.Fd.t * bool) list; digests : Pb_check.digests }

let of_wire (r : Servsim.Wire.dyn_fds) =
  {
    statuses = List.map Dynserve.fd_of_status r.Servsim.Wire.fds;
    digests =
      { Pb_check.full = r.Servsim.Wire.dyn_full; shape = r.dyn_shape; count = r.dyn_events };
  }

let of_library d statuses =
  { statuses; digests = Pb_check.digests_of_trace (Core.Session.trace (Core.Dynamic.session d)) }

let replies_equal a b =
  List.equal
    (fun (f, v) (g, w) -> Fdbase.Fd.equal f g && Bool.equal v w)
    a.statuses b.statuses
  && Pb_check.digests_equal a.digests b.digests

(* The library replay of the same sequence: per-op timings and server
   accesses, plus the replies the daemon must have given. *)
type replay = {
  start_s : float;
  insert_ms : float list;
  delete_ms : float list;
  revalidate_ms : float list;
  blocks_insert : int list;
  blocks_delete : int list;
  update_bytes : int;
  update_round_trips : int;
  final : reply;
  recovered : reply;
  client_peak_bytes : int;
  server_bytes : int;
  underflows : int;
  wall_s : float;
}

let replay ~spans ~seed table ops =
  let w0 = Pb_util.now () in
  let t0 = Pb_util.now () in
  let d =
    Pb_spans.span spans "core.dynamic.start" (fun () ->
        Core.Dynamic.start ~seed ~capacity ~max_lhs table)
  in
  let start_s = Pb_util.now () -. t0 in
  let session = Core.Dynamic.session d in
  let trace = Core.Session.trace session in
  let cost () = Servsim.Cost.snapshot (Core.Session.cost session) in
  Pb_spans.set_probes spans
    ~bytes:(fun () -> Pb_static.bytes_moved (cost ()))
    ~blocks:(fun () -> Servsim.Trace.count trace);
  let ins = ref [] and del = ref [] and rev = ref [] and bins = ref [] and bdel = ref [] in
  let ubytes = ref 0 and urt = ref 0 in
  List.iter
    (fun op ->
      let c0 = cost () and n0 = Servsim.Trace.count trace in
      let t0 = Pb_util.now () in
      (match op with
      | Ins row ->
          ignore (Pb_spans.span spans "core.dynamic.insert" (fun () -> Core.Dynamic.insert d row))
      | Del id -> Pb_spans.span spans "core.dynamic.delete" (fun () -> Core.Dynamic.delete d ~id)
      | Reval ->
          ignore (Pb_spans.span spans "core.dynamic.revalidate" (fun () -> Core.Dynamic.revalidate d)));
      let ms = (Pb_util.now () -. t0) *. 1e3 in
      let c1 = cost () and blocks = Servsim.Trace.count trace - n0 in
      let account () =
        ubytes := !ubytes + Pb_static.bytes_moved c1 - Pb_static.bytes_moved c0;
        urt := !urt + c1.Servsim.Cost.round_trips - c0.Servsim.Cost.round_trips
      in
      match op with
      | Ins _ ->
          ins := ms :: !ins;
          bins := blocks :: !bins;
          account ()
      | Del _ ->
          del := ms :: !del;
          bdel := blocks :: !bdel;
          account ()
      | Reval -> rev := ms :: !rev)
    ops;
  let final = of_library d (Core.Dynamic.revalidate d) in
  let recovered = of_library d (Core.Dynamic.revalidate d) in
  let c = cost () in
  Core.Dynamic.release d;
  {
    start_s;
    insert_ms = List.rev !ins;
    delete_ms = List.rev !del;
    revalidate_ms = List.rev !rev;
    blocks_insert = !bins;
    blocks_delete = !bdel;
    update_bytes = !ubytes;
    update_round_trips = !urt;
    final;
    recovered;
    client_peak_bytes = c.Servsim.Cost.client_peak_bytes;
    server_bytes = c.Servsim.Cost.server_bytes;
    underflows = c.Servsim.Cost.client_underflows;
    wall_s = Pb_util.now () -. w0;
  }

type outcome = {
  setups : float list;
  first_revalidate_s : float;
  insert_ms : float list;
  delete_ms : float list;
  revalidate_ms : float list;  (** in-stream, after the first *)
  stream_s : float;
  updates : int;
  stats : Servsim.Wire.stats * Servsim.Wire.stats;  (** daemon view around the stream *)
  blocks : int;  (** engine accesses over the stream *)
  daemon_cpu_s : float;
  cpu_s : float;
  minor_words : float;
  major_collections : int;
  disk_bytes : int;
  snapshots : int;
  daemon_start_s : float;
  rehydrate_s : float;
  recover_s : float;
  lib : replay;
  traced : (replay * Pb_spans.t) option;
}

let snapshots_taken dir =
  Array.fold_left
    (fun acc e -> match Scanf.sscanf_opt e "wal-%d.log%!" Fun.id with Some g -> max acc g | None -> acc)
    0
    (if Sys.file_exists dir then Sys.readdir dir else [||])

let run ~exe ~work ~seed ~trace ~check =
  let table = Datasets.Rnd.generate ~seed ~rows ~cols () in
  let schema = Table.schema table in
  let expected = Fdbase.Tane.fds ~max_lhs table in
  let engine_seed = seed + 1 in
  let data_dir = Filename.concat work "data" in
  Pb_util.rm_rf data_dir;
  Pb_util.mkdir_p data_dir;
  let sock = Filename.concat work "d.sock" and log = Filename.concat work "fdserved.log" in
  let start () = Pb_daemon.start ~exe ~sock ~log ~cache_levels:0 ~data_dir:(Some data_dir) in
  let wire_rows = List.init rows (fun r -> Dynserve.encode_row (Table.row table r)) in
  let ns k = Printf.sprintf "pb-dyn-%d-%d-%d" seed (Unix.getpid ()) k in
  let spans = Pb_spans.create ~on:trace in
  let daemon = ref (start ()) in
  Fun.protect
    ~finally:(fun () -> Pb_daemon.stop !daemon)
    (fun () ->
      (* Set-up: Begin_dynamic in [setup_reps] fresh namespaces; the last
         one carries the stream. *)
      let begin_ k =
        let conn = Servsim.Remote.connect_unix ~namespace:(ns k) sock in
        let t0 = Pb_util.now () in
        let r =
          Servsim.Remote.begin_dynamic conn ~capacity ~max_lhs ~seed:(Int64.of_int engine_seed)
            ~cols wire_rows
        in
        let dt = Pb_util.now () -. t0 in
        let r = of_wire r in
        Pb_check.op check ~what:"Begin_dynamic"
          [
            ("initial FDs equal plaintext TANE", Pb_check.fds_equal expected (List.map fst r.statuses));
            ("initial FDs all valid", List.for_all snd r.statuses);
          ];
        (conn, dt, r)
      in
      let sessions = List.init setup_reps (fun k -> begin_ k) in
      let setups = List.map (fun (_, dt, _) -> dt) sessions in
      let conn, _, begun = List.nth sessions (setup_reps - 1) in
      List.iteri (fun k (c, _, _) -> if k < setup_reps - 1 then Servsim.Remote.close c) sessions;
      let sh = shadow_of table in
      let revalidate what =
        let r = of_wire (Pb_spans.span spans "wire.revalidate" (fun () -> Servsim.Remote.revalidate conn)) in
        Pb_check.op check ~what
          [ Pb_check.statuses_check "statuses equal the plaintext shadow" (shadow_table schema sh) r.statuses ];
        r
      in
      let t0 = Pb_util.now () in
      ignore (revalidate "first Revalidate");
      let first_revalidate_s = Pb_util.now () -. t0 in
      (* The stream. *)
      let rng = Crypto.Rng.create (seed lxor 0x5eed) in
      let ops = ref [ Reval ] in
      let ins = ref [] and del = ref [] and rev = ref [] in
      let st0 = Servsim.Remote.stats conn in
      let dcpu0 = Pb_daemon.cpu_s !daemon in
      let gc0 = Gc.quick_stat () in
      let cpu0 = Pb_util.cpu () in
      let s0 = Pb_util.now () in
      for _ = 1 to stream_ops do
        let op = next_op rng sh in
        ops := op :: !ops;
        let t0 = Pb_util.now () in
        (match op with
        | Ins row ->
            let id =
              Pb_spans.span spans "wire.insert" (fun () ->
                  Servsim.Remote.insert_row conn (Dynserve.encode_row row))
            in
            ins := (Pb_util.now () -. t0) *. 1e3 :: !ins;
            Pb_check.op check ~what:"Insert_row" [ ("assigned ID is the next ID", id = sh.next) ]
        | Del id ->
            Pb_spans.span spans "wire.delete" (fun () -> Servsim.Remote.delete_row conn ~id);
            del := (Pb_util.now () -. t0) *. 1e3 :: !del;
            Pb_check.op check ~what:"Delete_row" []
        | Reval ->
            ignore (revalidate "Revalidate");
            rev := (Pb_util.now () -. t0) *. 1e3 :: !rev);
        apply sh op
      done;
      let stream_s = Pb_util.now () -. s0 in
      let cpu_s = Pb_util.cpu () -. cpu0 in
      let gc1 = Gc.quick_stat () in
      let final = revalidate "final Revalidate" in
      let st1 = Servsim.Remote.stats conn in
      let daemon_cpu_s = Pb_daemon.cpu_s !daemon -. dcpu0 in
      Servsim.Remote.close conn;
      Pb_daemon.stop !daemon;
      let tdir = Store.Tenant.tenant_dir ~data_dir (ns (setup_reps - 1)) in
      let disk_bytes = Pb_util.disk_bytes tdir and snapshots = snapshots_taken tdir in
      (* Restart on the same data directory. *)
      let r0 = Pb_util.now () in
      daemon := start ();
      let r1 = Pb_util.now () in
      let conn = Servsim.Remote.connect_unix ~namespace:(ns (setup_reps - 1)) sock in
      let r2 = Pb_util.now () in
      let recovered = of_wire (Servsim.Remote.revalidate conn) in
      let r3 = Pb_util.now () in
      Servsim.Remote.close conn;
      Pb_daemon.stop !daemon;
      let ops = List.rev !ops in
      let lib = replay ~spans:(Pb_spans.create ~on:false) ~seed:engine_seed table ops in
      let traced =
        if trace then Some (replay ~spans ~seed:engine_seed table ops, spans) else None
      in
      Pb_check.op check ~what:"recovery"
        [
          Pb_check.statuses_check "recovered statuses equal the plaintext shadow"
            (shadow_table schema sh) recovered.statuses;
          ("recovered reply equals the library replay", replies_equal recovered lib.recovered);
        ];
      Pb_check.op check ~what:"library parity"
        [
          ("final reply equals the library replay", replies_equal final lib.final);
          ("client_underflows = 0", lib.underflows = 0);
        ];
      Option.iter
        (fun (t, _) ->
          Pb_check.op check ~what:"traced replay"
            [
              ("traced replay digests equal the untraced replay's",
                replies_equal t.final lib.final && replies_equal t.recovered lib.recovered);
            ])
        traced;
      {
        setups;
        first_revalidate_s;
        insert_ms = List.rev !ins;
        delete_ms = List.rev !del;
        revalidate_ms = List.rev !rev;
        stream_s;
        updates = List.length !ins + List.length !del;
        stats = (st0, st1);
        blocks = final.digests.Pb_check.count - begun.digests.Pb_check.count;
        daemon_cpu_s;
        cpu_s;
        minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
        major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
        disk_bytes;
        snapshots;
        daemon_start_s = r1 -. r0;
        rehydrate_s = r2 -. r1;
        recover_s = r3 -. r0;
        lib;
        traced;
      })
