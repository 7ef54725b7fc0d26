(* Whole static discoveries: `oram-remote` (Or-ORAM against a daemon
   process over a Unix socket) and `sort-local` (Sort against the
   in-process server).

   A discovery is driven exactly as [Core.Protocol.discover] drives it
   (session, outsource, set-level check, lattice search over the
   method's oracle), but through the public pieces, so the set-up and
   the search are timed apart and each layer's calls can be wrapped.
   The oracle record, the set-level check and the Sort backend record
   are wrapped only in the traced run.  The untraced run calls the
   library unchanged, but runs the reference kernel (Pb_calib) after
   every single and combine call. *)

open Relation

type meth = Or_oram | Sort

type config = {
  meth : meth;
  rows : int;
  max_lhs : int;
  cache_levels : int;
  daemon_exe : string option;  (** [Some fdserved] for the remote workload *)
}

let oram_remote exe =
  { meth = Or_oram; rows = 96; max_lhs = 2; cache_levels = 2; daemon_exe = Some exe }

let sort_local = { meth = Sort; rows = 128; max_lhs = 2; cache_levels = 0; daemon_exe = None }

(* Extra set-ups made before each discovery, so set-up time is sampled
   across the whole run; [setup_s] is the median of all set-ups. *)
let setup_reps = 8

type setup = {
  session : Core.Session.t;
  db : Core.Enc_db.t;
  conn : Servsim.Remote.t option;
  setup_s : float;
  outsource_s : float;
}

(* Time spent in, and calls to, the Sort backend's record functions. *)
type backend_acc = {
  mutable read_batch_s : float;
  mutable read_batch_calls : int;
  mutable write_batch_s : float;
  mutable write_batch_calls : int;
  mutable single_s : float;  (** element-wise read/write *)
}

let backend_acc () =
  { read_batch_s = 0.0; read_batch_calls = 0; write_batch_s = 0.0; write_batch_calls = 0; single_s = 0.0 }

let backend_s a = a.read_batch_s +. a.write_batch_s +. a.single_s

let wrap_backend acc (b : Core.Sort_backend.t) =
  let time f =
    let t0 = Pb_util.now () in
    let r = f () in
    (Pb_util.now () -. t0, r)
  in
  {
    b with
    Core.Sort_backend.read =
      (fun i ->
        let dt, r = time (fun () -> b.Core.Sort_backend.read i) in
        acc.single_s <- acc.single_s +. dt;
        r);
    write =
      (fun i e ->
        let dt, () = time (fun () -> b.Core.Sort_backend.write i e) in
        acc.single_s <- acc.single_s +. dt);
    read_batch =
      (fun l ->
        let dt, r = time (fun () -> b.Core.Sort_backend.read_batch l) in
        acc.read_batch_s <- acc.read_batch_s +. dt;
        acc.read_batch_calls <- acc.read_batch_calls + 1;
        r);
    write_batch =
      (fun l ->
        let dt, () = time (fun () -> b.Core.Sort_backend.write_batch l) in
        acc.write_batch_s <- acc.write_batch_s +. dt;
        acc.write_batch_calls <- acc.write_batch_calls + 1);
  }

let wrap_oracle spans (o : 'h Fdbase.Lattice.oracle) =
  {
    Fdbase.Lattice.single = (fun a -> Pb_spans.span spans "core.single" (fun () -> o.single a));
    combine =
      (fun x h1 h2 -> Pb_spans.span spans "core.combine" (fun () -> o.combine x h1 h2));
    release = (fun h -> Pb_spans.span spans "core.release" (fun () -> o.release h));
  }

(* The untraced discovery runs the reference kernel once after every
   single and combine call, so the kernel samples the host's speed
   evenly over the discovery; the kernel's time is taken out of the
   discovery's.  Releases are cheap and follow a combine, so they get
   no sample of their own. *)
let calibrating samples (o : 'h Fdbase.Lattice.oracle) =
  let after f x =
    let r = f x in
    samples := Pb_calib.time () :: !samples;
    r
  in
  { o with Fdbase.Lattice.single = after o.single; combine = (fun x h1 -> after (o.combine x h1)) }

let bytes_moved (s : Servsim.Cost.snapshot) =
  s.Servsim.Cost.bytes_to_server + s.Servsim.Cost.bytes_to_client

let setup cfg ~sock ~ns ~seed table =
  let t0 = Pb_util.now () in
  let conn = Option.map (fun path -> Servsim.Remote.connect_unix ~namespace:ns path) sock in
  let session =
    Core.Session.create ~seed ?remote:conn ~oram_cache_levels:cfg.cache_levels
      ~n:(Table.rows table) ~m:(Table.cols table) ()
  in
  let t1 = Pb_util.now () in
  let db = Core.Enc_db.outsource session table in
  let t2 = Pb_util.now () in
  { session; db; conn; setup_s = t2 -. t0; outsource_s = t2 -. t1 }

let close s = Option.iter Servsim.Remote.close s.conn

type discovery = {
  fds : Fdbase.Fd.t list;
  nodes : int;
  wall_s : float;  (** without the reference kernel's runs *)
  kernel : float list;  (** reference kernel times, seconds; empty when traced *)
  cpu_s : float;
  cost0 : Servsim.Cost.snapshot;
  cost1 : Servsim.Cost.snapshot;
  digests : Pb_check.digests;
  blocks : int;
  minor_words : float;
  major_collections : int;
  set_level_calls : int;
  client_frames : int;
  stats : (Servsim.Wire.stats * Servsim.Wire.stats) option;  (** daemon view before/after *)
  server_digests : Pb_check.digests option;
  daemon_cpu_s : float;
  backend : backend_acc;
  setup : setup;
}

let discover cfg ~spans ~daemon (s : setup) =
  let session = s.session in
  let n = Core.Enc_db.n s.db and m = Core.Enc_db.m s.db in
  let traced = Pb_spans.on spans in
  let cost () = Servsim.Cost.snapshot (Core.Session.cost session) in
  let trace = Core.Session.trace session in
  Pb_spans.set_probes spans
    ~bytes:(fun () -> bytes_moved (cost ()))
    ~blocks:(fun () -> Servsim.Trace.count trace);
  let calls = ref 0 in
  let base_check = Core.Set_level.check session in
  let check c1 c2 =
    incr calls;
    if traced then Pb_spans.span spans "core.set_level" (fun () -> base_check c1 c2)
    else base_check c1 c2
  in
  let acc = backend_acc () in
  let kernel = ref [] in
  let instrument o = if traced then wrap_oracle spans o else calibrating kernel o in
  let stats () = Option.map Servsim.Remote.stats s.conn in
  let frames () = Option.fold ~none:0 ~some:Servsim.Remote.frames s.conn in
  let dcpu () = Option.fold ~none:0.0 ~some:Pb_daemon.cpu_s daemon in
  let st0 = stats () in
  let f0 = frames () and dcpu0 = dcpu () in
  let cost0 = cost () and count0 = Servsim.Trace.count trace in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Pb_util.cpu () in
  let t0 = Pb_util.now () in
  let result =
    Pb_spans.span spans "fdbase.lattice" (fun () ->
        match cfg.meth with
        | Or_oram ->
            Fdbase.Lattice.discover ~m ~n ~max_lhs:cfg.max_lhs ~check
              (instrument (Core.Or_oram_method.oracle session s.db))
        | Sort ->
            let backend =
              if traced then
                Some (fun ~n -> wrap_backend acc (Core.Sort_backend.encrypted session ~n))
              else None
            in
            Fdbase.Lattice.discover ~m ~n ~max_lhs:cfg.max_lhs ~check
              (instrument (Core.Sort_method.oracle ?backend session s.db)))
  in
  let t1 = Pb_util.now () in
  let cpu1 = Pb_util.cpu () in
  let gc1 = Gc.quick_stat () in
  let cost1 = cost () in
  let client_frames = frames () - f0 in
  let st1 = stats () in
  let daemon_cpu_s = dcpu () -. dcpu0 in
  let server_digests =
    Option.map
      (fun c ->
        let full, shape, count = Servsim.Remote.server_digests c in
        { Pb_check.full; shape; count })
      s.conn
  in
  {
    fds = result.Fdbase.Lattice.fds;
    nodes = result.Fdbase.Lattice.sets_checked;
    wall_s = t1 -. t0 -. List.fold_left ( +. ) 0.0 !kernel;
    kernel = List.rev !kernel;
    cpu_s = cpu1 -. cpu0;
    cost0;
    cost1;
    digests = Pb_check.digests_of_trace trace;
    blocks = Servsim.Trace.count trace - count0;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    set_level_calls = !calls;
    client_frames;
    stats = (match (st0, st1) with Some a, Some b -> Some (a, b) | _ -> None);
    server_digests;
    daemon_cpu_s;
    backend = acc;
    setup = s;
  }

let round_trips d = d.cost1.Servsim.Cost.round_trips - d.cost0.Servsim.Cost.round_trips
let moved d = bytes_moved d.cost1 - bytes_moved d.cost0

(* The checks of one discovery.  [reference] is the in-process run's
   digests (oram-remote) or the run's first discovery (repeatability). *)
let checks ~expected ~reference ~first d =
  let frames =
    match d.stats with
    | None -> []
    | Some (a, b) ->
        (* The second Stats frame itself is counted on both sides. *)
        let server_frames = b.Servsim.Wire.frames - a.Servsim.Wire.frames - 1 in
        [
          ( "cost round trips = wire frames + set-level checks; daemon frames = client frames",
            Pb_check.frames_reconcile ~round_trips:(round_trips d)
              ~set_level_calls:d.set_level_calls ~client_frames:d.client_frames ~server_frames );
        ]
  in
  [
    ("FDs equal plaintext TANE", Pb_check.fds_equal expected d.fds);
    ("digests equal the run's first discovery", Pb_check.digests_equal first d.digests);
    ("client_underflows = 0", d.cost1.Servsim.Cost.client_underflows = 0);
  ]
  @ (match reference with
    | Some r -> [ ("digests equal the in-process run", Pb_check.digests_equal r d.digests) ]
    | None -> [])
  @ (match d.server_digests with
    | Some sd -> [ ("daemon digests equal the client's", Pb_check.digests_equal sd d.digests) ]
    | None -> [])
  @ frames

type outcome = {
  setups : float list;
  discoveries : discovery list;  (** untraced, in order *)
  traced : (discovery * Pb_spans.t) option;
  in_process : Core.Protocol.report option;
}

(* One run of the workload.  Untraced: set-ups, then whole discoveries
   until [seconds] have passed (at least one).  Traced: one untraced
   discovery, then one traced discovery. *)
let run cfg ~work ~seed ~seconds ~trace ~check =
  let table = Datasets.Adult_like.generate ~seed ~rows:cfg.rows () in
  let expected = Fdbase.Tane.fds ~max_lhs:cfg.max_lhs table in
  let session_seed = seed + 1 in
  let daemon =
    Option.map
      (fun exe ->
        Pb_daemon.start ~exe ~sock:(Filename.concat work "d.sock")
          ~log:(Filename.concat work "fdserved.log") ~cache_levels:0 ~data_dir:None)
      cfg.daemon_exe
  in
  let sock = Option.map (fun (d : Pb_daemon.t) -> d.Pb_daemon.sock) daemon in
  let ns = ref 0 in
  let fresh () =
    incr ns;
    setup cfg ~sock ~ns:(Printf.sprintf "pb-%d-%d-%d" seed (Unix.getpid ()) !ns) ~seed:session_seed
      table
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Pb_daemon.stop daemon)
    (fun () ->
      let setups = ref [] in
      let once spans =
        for _ = 1 to setup_reps do
          let s = fresh () in
          close s;
          setups := s.setup_s :: !setups
        done;
        let s = fresh () in
        setups := s.setup_s :: !setups;
        let d = discover cfg ~spans ~daemon s in
        close s;
        d
      in
      let off = Pb_spans.create ~on:false in
      let discoveries, traced =
        if trace then begin
          let d = once off in
          let spans = Pb_spans.create ~on:true in
          ([ d ], Some (once spans, spans))
        end
        else begin
          let t0 = Pb_util.now () in
          let rec loop acc =
            if acc <> [] && Pb_util.now () -. t0 >= seconds then List.rev acc
            else loop (once off :: acc)
          in
          (loop [], None)
        end
      in
      Option.iter Pb_daemon.stop daemon;
      let in_process =
        match cfg.daemon_exe with
        | None -> None
        | Some _ ->
            Some
              (Core.Protocol.discover ~seed:session_seed ~max_lhs:cfg.max_lhs
                 ~oram_cache_levels:cfg.cache_levels Core.Protocol.Or_oram table)
      in
      let reference =
        Option.map
          (fun (r : Core.Protocol.report) ->
            {
              Pb_check.full = r.Core.Protocol.trace_full;
              shape = r.Core.Protocol.trace_shape;
              count = r.Core.Protocol.trace_count;
            })
          in_process
      in
      let first = (List.hd discoveries).digests in
      let all = discoveries @ Option.fold ~none:[] ~some:(fun (d, _) -> [ d ]) traced in
      List.iteri
        (fun i d ->
          Pb_check.op check ~what:(Printf.sprintf "discovery %d" i)
            (checks ~expected ~reference ~first d))
        all;
      (match in_process with
      | Some r ->
          Pb_check.op check ~what:"in-process discovery"
            [ ("FDs equal plaintext TANE", Pb_check.fds_equal expected r.Core.Protocol.fds) ]
      | None -> ());
      { setups = List.rev !setups; discoveries; traced; in_process })
