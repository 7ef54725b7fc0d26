(* Wire protocol v7: property tests for the codec (including the batch,
   session, dynamic-update and Put_get frames), malformed-prefix
   hardening, the version handshake, remote-vs-local equivalence of a
   PathORAM workload — same trace shape, same server digests, and a
   round-trip ledger that matches the actual number of wire frames — and
   the write outbox: all-or-nothing Put_get, ledger = frames under
   random block-store traffic, durability across a daemon restart and
   data-independent framing. *)

open Relation

let with_remote f =
  let fd, pid = Servsim.Remote_server.fork_server () in
  let conn = Servsim.Remote.connect_fd ~pid fd in
  Fun.protect ~finally:(fun () -> Servsim.Remote.close conn) (fun () -> f conn)

(* Codec tests leave half-written frames in [oc]'s buffer; closing the
   write end while the read end is still open (and SIGPIPE ignored below)
   keeps the implicit flush from killing the process. *)
let () = try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let with_pipe f =
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w and ic = Unix.in_channel_of_descr r in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      close_in_noerr ic)
    (fun () -> f ic oc)

(* {2 Codec property tests} *)

let roundtrip_request req =
  with_pipe (fun ic oc ->
      Servsim.Wire.write_request oc req;
      Servsim.Wire.read_request ic = req)

let roundtrip_response resp =
  with_pipe (fun ic oc ->
      Servsim.Wire.write_response oc resp;
      Servsim.Wire.read_response ic = resp)

let request_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Servsim.Wire.Create_store s) (string_size (0 -- 30));
        map (fun s -> Servsim.Wire.Drop_store s) (string_size (0 -- 30));
        map2 (fun s n -> Servsim.Wire.Ensure (s, n)) (string_size (0 -- 20)) (int_bound 100000);
        map2 (fun s i -> Servsim.Wire.Get (s, i)) (string_size (0 -- 20)) (int_bound 100000);
        map3
          (fun s i v -> Servsim.Wire.Put (s, i, v))
          (string_size (0 -- 20))
          (int_bound 100000) (string_size (0 -- 200));
        map2
          (fun s idxs -> Servsim.Wire.Multi_get (s, idxs))
          (string_size (0 -- 20))
          (list_size (0 -- 40) (int_bound 100000));
        map2
          (fun s items -> Servsim.Wire.Multi_put (s, items))
          (string_size (0 -- 20))
          (list_size (0 -- 40) (pair (int_bound 100000) (string_size (0 -- 50))));
        map
          (fun groups -> Servsim.Wire.Scatter_put groups)
          (list_size (0 -- 6)
             (pair
                (string_size (0 -- 20))
                (list_size (0 -- 10) (pair (int_bound 100000) (string_size (0 -- 50))))));
        map3
          (fun puts store idxs -> Servsim.Wire.Put_get { puts; store; idxs })
          (list_size (0 -- 4)
             (pair
                (string_size (0 -- 20))
                (list_size (0 -- 10) (pair (int_bound 100000) (string_size (0 -- 50))))))
          (string_size (0 -- 20))
          (list_size (0 -- 40) (int_bound 100000));
        map (fun ns -> Servsim.Wire.Hello ns) (string_size (0 -- 40));
        return Servsim.Wire.Ping;
        return Servsim.Wire.Stats;
        (* Dynamic verbs (v5): [Begin_dynamic] rows must all carry
           exactly [cols] cells, so generate the arity first. *)
        (int_range 1 6 >>= fun cols ->
         map3
           (fun seed caps rows ->
             let capacity, max_lhs = caps in
             Servsim.Wire.Begin_dynamic
               { seed = Int64.of_int seed; capacity; max_lhs; cols; rows })
           (int_bound 1000000)
           (pair (int_bound 4096) (int_bound 8))
           (list_size (0 -- 10) (list_repeat cols (string_size (0 -- 12)))));
        map
          (fun cells -> Servsim.Wire.Insert_row cells)
          (list_size (0 -- Servsim.Wire.max_row_cells) (string_size (0 -- 12)));
        map (fun id -> Servsim.Wire.Delete_row id) (int_bound 1000000);
        return Servsim.Wire.Revalidate;
        return Servsim.Wire.Digest;
        return Servsim.Wire.Total_bytes;
      ])

let stats_gen =
  QCheck.Gen.(
    map2
      (fun (((uptime, sessions, frames), (bytes_in, bytes_out), (p50, p95, p99)),
            (reads, writes, (wakeups, rounds)))
           ((inserts, deletes), (revalidates, dyn_sessions)) ->
        Servsim.Wire.Stats_reply
          {
            uptime_us = Int64.of_int uptime;
            sessions;
            frames;
            bytes_in;
            bytes_out;
            p50_us = p50;
            p95_us = p95;
            p99_us = p99;
            loop_reads = reads;
            loop_writes = writes;
            loop_wakeups = wakeups;
            loop_rounds = rounds;
            inserts;
            deletes;
            revalidates;
            dyn_sessions;
          })
      (pair
         (triple
            (triple (int_bound 1000000000) (int_bound 1000) (int_bound 1000000))
            (pair (int_bound 1000000) (int_bound 1000000))
            (triple (int_bound 100000) (int_bound 100000) (int_bound 100000)))
         (triple (int_bound 10000000) (int_bound 10000000)
            (pair (int_bound 10000000) (int_bound 10000000))))
      (pair
         (pair (int_bound 1000000) (int_bound 1000000))
         (pair (int_bound 1000000) (int_bound 1000))))

let fds_reply_gen =
  QCheck.Gen.(
    map3
      (fun fds (full, shape) events ->
        Servsim.Wire.Fds_reply
          {
            fds =
              List.map
                (fun ((lhs, rhs), valid) ->
                  { Servsim.Wire.fd_lhs = Int64.of_int lhs; fd_rhs = rhs; fd_valid = valid })
                fds;
            dyn_full = Int64.of_int full;
            dyn_shape = Int64.of_int shape;
            dyn_events = events;
          })
      (list_size (0 -- 12) (pair (pair (int_bound 0xFFFF) (int_bound 61)) bool))
      (pair int int) (int_bound 1000000))

let response_gen =
  QCheck.Gen.(
    oneof
      [
        return Servsim.Wire.Ok;
        map (fun v -> Servsim.Wire.Value v) (string_size (0 -- 200));
        map (fun vs -> Servsim.Wire.Values vs) (list_size (0 -- 40) (string_size (0 -- 60)));
        map3
          (fun a b c ->
            Servsim.Wire.Digests { full = Int64.of_int a; shape = Int64.of_int b; count = c })
          int int (int_bound 1000000);
        map (fun n -> Servsim.Wire.Bytes_total n) (int_bound 1000000);
        return Servsim.Wire.Pong;
        stats_gen;
        map (fun id -> Servsim.Wire.Row_id id) (int_bound 1000000);
        fds_reply_gen;
        map (fun m -> Servsim.Wire.Error m) (string_size (0 -- 50));
      ])

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"wire v6 request roundtrip" ~count:300 (QCheck.make request_gen)
    roundtrip_request

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"wire v5 response roundtrip" ~count:300 (QCheck.make response_gen)
    roundtrip_response

(* {2 Malformed / hostile prefixes} *)

let raises_protocol_error f =
  match f () with
  | _ -> false
  | exception Servsim.Wire.Protocol_error _ -> true

let put_u32_raw oc v =
  for k = 0 to 3 do
    output_char oc (Char.chr ((v lsr (k * 8)) land 0xff))
  done

let test_huge_string_prefix () =
  (* A Create_store whose length prefix claims more than the frame cap
     must fail with Protocol_error, not feed really_input_string a
     near-4GiB allocation. *)
  with_pipe (fun ic oc ->
      output_char oc '\001';
      put_u32_raw oc 0xFFFFFFFF;
      flush oc;
      Alcotest.(check bool) "oversized string prefix rejected" true
        (raises_protocol_error (fun () -> Servsim.Wire.read_request ic)))

let test_huge_list_prefix () =
  with_pipe (fun ic oc ->
      output_char oc '\009';
      (* store name "s" *)
      put_u32_raw oc 1;
      output_char oc 's';
      (* batch count beyond the cap *)
      put_u32_raw oc (Servsim.Wire.max_list_len + 1);
      flush oc;
      Alcotest.(check bool) "oversized batch count rejected" true
        (raises_protocol_error (fun () -> Servsim.Wire.read_request ic)))

let test_put_u32_range () =
  with_pipe (fun _ic oc ->
      Alcotest.(check bool) "negative int rejected" true
        (raises_protocol_error (fun () ->
             Servsim.Wire.write_request oc (Servsim.Wire.Get ("s", -1))));
      Alcotest.(check bool) "int above 32 bits rejected" true
        (raises_protocol_error (fun () ->
             Servsim.Wire.write_request oc (Servsim.Wire.Ensure ("s", 1 lsl 40)))))

let test_bad_tag () =
  with_pipe (fun ic oc ->
      output_char oc '\042';
      flush oc;
      Alcotest.(check bool) "bad request tag rejected" true
        (raises_protocol_error (fun () -> Servsim.Wire.read_request ic)))

let test_oversized_namespace () =
  let long = String.make (Servsim.Wire.max_namespace_len + 1) 'n' in
  (* Separate pipes: the rejected write leaves a half-written frame (the
     tag byte) buffered in [oc], which would corrupt a later read. *)
  with_pipe (fun _ic oc ->
      Alcotest.(check bool) "oversized namespace rejected on write" true
        (raises_protocol_error (fun () ->
             Servsim.Wire.write_request oc (Servsim.Wire.Hello long))));
  (* And a hostile peer sending one on the wire is rejected on read. *)
  with_pipe (fun ic oc ->
      output_char oc '\011';
      put_u32_raw oc (String.length long);
      output_string oc long;
      flush oc;
      Alcotest.(check bool) "oversized namespace rejected on read" true
        (raises_protocol_error (fun () -> Servsim.Wire.read_request ic)))

let test_oversized_row () =
  (* Writer side: a row claiming more cells than the cap never leaves
     the client... *)
  let big = List.init (Servsim.Wire.max_row_cells + 1) (fun _ -> "c") in
  with_pipe (fun _ic oc ->
      Alcotest.(check bool) "oversized Insert_row rejected on write" true
        (raises_protocol_error (fun () ->
             Servsim.Wire.write_request oc (Servsim.Wire.Insert_row big))));
  (* ...and a hostile peer claiming one on the wire is rejected before
     any cell is read. *)
  with_pipe (fun ic oc ->
      output_char oc '\015';
      put_u32_raw oc (Servsim.Wire.max_row_cells + 1);
      flush oc;
      Alcotest.(check bool) "oversized row count rejected on read" true
        (raises_protocol_error (fun () -> Servsim.Wire.read_request ic)))

let test_begin_dynamic_arity_mismatch () =
  let begin_dyn rows =
    Servsim.Wire.Begin_dynamic { seed = 7L; capacity = 0; max_lhs = 0; cols = 2; rows }
  in
  (* Writer side: a row that disagrees with the declared arity. *)
  with_pipe (fun _ic oc ->
      Alcotest.(check bool) "arity mismatch rejected on write" true
        (raises_protocol_error (fun () ->
             Servsim.Wire.write_request oc (begin_dyn [ [ "a"; "b" ]; [ "only" ] ]))));
  (* Declared arity outside 1..max_row_cells. *)
  with_pipe (fun _ic oc ->
      Alcotest.(check bool) "zero arity rejected on write" true
        (raises_protocol_error (fun () ->
             Servsim.Wire.write_request oc
               (Servsim.Wire.Begin_dynamic
                  { seed = 7L; capacity = 0; max_lhs = 0; cols = 0; rows = [] }))));
  (* Reader side: hand-craft a frame whose second row is one cell short. *)
  with_pipe (fun ic oc ->
      output_char oc '\014';
      for _ = 1 to 8 do output_char oc '\000' done; (* seed *)
      put_u32_raw oc 0; (* capacity *)
      put_u32_raw oc 0; (* max_lhs *)
      put_u32_raw oc 2; (* cols *)
      put_u32_raw oc 2; (* row count *)
      (* row 0: 2 cells *)
      put_u32_raw oc 2;
      put_u32_raw oc 1; output_char oc 'a';
      put_u32_raw oc 1; output_char oc 'b';
      (* row 1: claims 1 cell *)
      put_u32_raw oc 1;
      put_u32_raw oc 1; output_char oc 'c';
      flush oc;
      Alcotest.(check bool) "arity mismatch rejected on read" true
        (raises_protocol_error (fun () -> Servsim.Wire.read_request ic)))

(* {2 Version handshake} *)

let test_hello_roundtrip () =
  with_pipe (fun ic oc ->
      Servsim.Wire.write_hello oc;
      Alcotest.(check int) "hello carries current version" Servsim.Wire.protocol_version
        (Servsim.Wire.read_hello ic))

let test_client_rejects_version_mismatch () =
  (* Fake server endpoint: pre-buffer a wrong version byte in the peer's
     direction, then connect — the handshake must fail loudly. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let oc_b = Unix.out_channel_of_descr b in
  output_char oc_b '\001';
  flush oc_b;
  Alcotest.(check bool) "mismatched server version rejected" true
    (raises_protocol_error (fun () -> Servsim.Remote.connect_fd a));
  close_out_noerr oc_b;
  (try Unix.close a with Unix.Unix_error _ -> ())

let test_server_rejects_version_mismatch () =
  (* A stale client against a new server: the server answers with its own
     version byte (so the client can diagnose) and hangs up instead of
     misreading the stream as requests. *)
  let fd, pid = Servsim.Remote_server.fork_server () in
  let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
  output_char oc '\077';
  flush oc;
  Alcotest.(check int) "server announces its version" Servsim.Wire.protocol_version
    (Servsim.Wire.read_hello ic);
  Alcotest.(check bool) "server hangs up after mismatch" true
    (match input_char ic with
    | _ -> false
    | exception End_of_file -> true);
  close_out_noerr oc;
  ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))

(* {2 Batch frames end-to-end} *)

let test_multi_roundtrip_server () =
  with_remote (fun conn ->
      ignore (Servsim.Remote.call conn (Servsim.Wire.Create_store "s"));
      ignore (Servsim.Remote.call conn (Servsim.Wire.Ensure ("s", 8)));
      Servsim.Remote.multi_put conn ~store:"s" [ (0, "a"); (3, "bb"); (7, "ccc") ];
      Alcotest.(check (list string)) "multi_get returns in index order" [ "ccc"; "a"; "bb"; "" ]
        (Servsim.Remote.multi_get conn ~store:"s" [ 7; 0; 3; 5 ]);
      (* All-or-nothing: one bad index fails the whole batch... *)
      Alcotest.(check bool) "multi_put out of bounds rejected" true
        (raises_protocol_error (fun () ->
             Servsim.Remote.multi_put conn ~store:"s" [ (1, "x"); (99, "y") ]));
      (* ...and leaves the valid slots untouched. *)
      Alcotest.(check (list string)) "no partial application" [ "" ]
        (Servsim.Remote.multi_get conn ~store:"s" [ 1 ]);
      match Servsim.Remote.call conn Servsim.Wire.Total_bytes with
      | Servsim.Wire.Bytes_total n -> Alcotest.(check int) "server bytes" 6 n
      | _ -> Alcotest.fail "total")

(* {2 Remote vs local equivalence + honest round-trip ledger} *)

let oram_workload server =
  let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
  let rng = Crypto.Rng.create 11 in
  let o =
    Oram.Path_oram.setup ~name:"o" { capacity = 32; key_len = 8; payload_len = 8 } server cipher
      (Crypto.Rng.int rng)
  in
  for i = 0 to 15 do
    Oram.Path_oram.write o ~key:(Codec.encode_int i) (Codec.encode_int (i * 7))
  done;
  for i = 0 to 15 do
    ignore (Oram.Path_oram.read o ~key:(Codec.encode_int i))
  done;
  o

let test_remote_local_equivalence () =
  let digest_of server =
    let trace = Servsim.Server.trace server in
    ( Servsim.Trace.full_digest trace,
      Servsim.Trace.shape_digest trace,
      Servsim.Trace.count trace,
      Servsim.Cost.snapshot (Servsim.Server.cost server) )
  in
  (* Local run. *)
  let local_server = Servsim.Server.create () in
  ignore (oram_workload local_server);
  let lf, ls, lc, lcost = digest_of local_server in
  (* Remote run, same seeds. *)
  with_remote (fun conn ->
      let server = Servsim.Server.create ~remote:conn () in
      ignore (oram_workload server);
      let rf, rs, rc, rcost = digest_of server in
      Alcotest.(check int64) "identical full trace digest" lf rf;
      Alcotest.(check int64) "identical trace shape" ls rs;
      Alcotest.(check int) "identical trace count" lc rc;
      Alcotest.(check int) "identical round-trip ledger" lcost.Servsim.Cost.round_trips
        rcost.Servsim.Cost.round_trips;
      Alcotest.(check int) "no client-memory underflows" 0
        rcost.Servsim.Cost.client_underflows;
      (* The adversary's own recording agrees with the client's mirror. *)
      Alcotest.(check bool) "server digests match client mirror" true
        (Servsim.Remote.digests conn ~full:rf ~shape:rs ~count:rc))

let test_frames_match_ledger () =
  with_remote (fun conn ->
      let server = Servsim.Server.create ~remote:conn () in
      let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
      let rng = Crypto.Rng.create 3 in
      let trips () =
        (Servsim.Cost.snapshot (Servsim.Server.cost server)).Servsim.Cost.round_trips
      in
      let f0 = Servsim.Remote.frames conn and t0 = trips () in
      let o =
        Oram.Path_oram.setup ~name:"o" { capacity = 16; key_len = 8; payload_len = 8 } server
          cipher (Crypto.Rng.int rng)
      in
      let f1 = Servsim.Remote.frames conn and t1 = trips () in
      (* Setup = Create_store + Ensure on the wire; the initial write of
         every slot opened (and paid for) a frame that waits in the
         outbox. *)
      Alcotest.(check int) "setup wire frames" 2 (f1 - f0);
      Alcotest.(check int) "setup ledger" 3 (t1 - t0);
      Alcotest.(check bool) "setup write pending" true (Servsim.Remote.pending conn);
      Oram.Path_oram.write o ~key:(Codec.encode_int 1) (Codec.encode_int 42);
      let f2 = Servsim.Remote.frames conn and t2 = trips () in
      (* One logical access = one Put_get frame: the fetch carries the
         pending write-back, the evict waits in the outbox. *)
      Alcotest.(check int) "access is exactly 1 wire frame" 1 (f2 - f1);
      Alcotest.(check int) "access ledger matches frames" (f2 - f1) (t2 - t1);
      ignore (Oram.Path_oram.read o ~key:(Codec.encode_int 1));
      let f3 = Servsim.Remote.frames conn and t3 = trips () in
      Alcotest.(check int) "read access is exactly 1 wire frame" 1 (f3 - f2);
      Alcotest.(check int) "read ledger matches frames" (f3 - f2) (t3 - t2);
      Servsim.Server.flush server;
      let f4 = Servsim.Remote.frames conn and t4 = trips () in
      (* The flush sends the frame the last evict already paid for. *)
      Alcotest.(check int) "flush is one wire frame" 1 (f4 - f3);
      Alcotest.(check int) "flush is free in the ledger" 0 (t4 - t3);
      Alcotest.(check int) "ledger = frames with the outbox empty" (f4 - f0) (t4 - t0))

(* {2 Put_get and the write outbox (v7)} *)

(* A Put_get whose put part or get part holds a bad index (or names a
   missing store) is rejected and leaves the session exactly as it was:
   no store mutated, no trace event recorded. *)
let test_put_get_all_or_nothing () =
  let module W = Servsim.Wire in
  let module H = Servsim.Handler in
  let st = H.create_state () in
  let h = H.handle st in
  List.iter
    (fun req -> ignore (h req))
    [ W.Create_store "a"; W.Ensure ("a", 4); W.Create_store "b"; W.Ensure ("b", 2);
      W.Multi_put ("a", [ (0, "x"); (1, "yy") ]) ];
  let snapshot () = (H.export_stores st, Servsim.Trace.count (H.trace st), H.total_bytes st) in
  let before = snapshot () in
  let rejected req =
    match h req with W.Error _ -> true | _ -> false | exception W.Protocol_error _ -> true
  in
  Alcotest.(check bool) "bad index in the put part" true
    (rejected
       (W.Put_get { puts = [ ("a", [ (3, "p") ]); ("b", [ (2, "q") ]) ]; store = "a"; idxs = [ 0 ] }));
  Alcotest.(check bool) "bad index in the get part" true
    (rejected (W.Put_get { puts = [ ("a", [ (3, "p") ]) ]; store = "b"; idxs = [ 0; 5 ] }));
  Alcotest.(check bool) "missing store in the put part" true
    (rejected
       (W.Put_get { puts = [ ("a", [ (3, "p") ]); ("zz", [ (0, "q") ]) ]; store = "a"; idxs = [ 0 ] }));
  Alcotest.(check bool) "missing store in the get part" true
    (rejected (W.Put_get { puts = [ ("a", [ (3, "p") ]) ]; store = "zz"; idxs = [ 0 ] }));
  Alcotest.(check bool) "nothing mutated, nothing traced" true (before = snapshot ());
  (* A valid one applies the puts, then serves the gets (which see them),
     traced exactly like the Scatter_put + Multi_get pair it replaces. *)
  let puts = [ ("a", [ (3, "p") ]); ("b", [ (1, "q") ]) ] in
  (match h (W.Put_get { puts; store = "a"; idxs = [ 3; 0 ] }) with
  | W.Values vs -> Alcotest.(check (list string)) "gets see the puts" [ "p"; "x" ] vs
  | _ -> Alcotest.fail "Put_get");
  let st2 = H.create_state () in
  List.iter
    (fun req -> ignore (H.handle st2 req))
    [ W.Create_store "a"; W.Ensure ("a", 4); W.Create_store "b"; W.Ensure ("b", 2);
      W.Multi_put ("a", [ (0, "x"); (1, "yy") ]);
      W.Scatter_put puts; W.Multi_get ("a", [ 3; 0 ]) ];
  Alcotest.(check int64) "trace = Scatter_put then Multi_get"
    (Servsim.Trace.full_digest (H.trace st2)) (Servsim.Trace.full_digest (H.trace st));
  (* Over the wire the rejection is a Protocol_error on the carrying
     read, and the server's view is untouched. *)
  with_remote (fun conn ->
      ignore (Servsim.Remote.call conn (W.Create_store "a"));
      ignore (Servsim.Remote.call conn (W.Ensure ("a", 2)));
      let view () = Servsim.Remote.server_digests conn in
      let v0 = view () in
      Servsim.Remote.queue_put conn ~store:"a" [ (7, "p") ];
      Alcotest.(check bool) "remote put-part rejection" true
        (raises_protocol_error (fun () -> Servsim.Remote.multi_get conn ~store:"a" [ 0 ]));
      Servsim.Remote.queue_put conn ~store:"a" [ (1, "p") ];
      Alcotest.(check bool) "remote get-part rejection" true
        (raises_protocol_error (fun () -> Servsim.Remote.multi_get conn ~store:"a" [ 0; 9 ]));
      Alcotest.(check bool) "outbox emptied by the carrying frame" false
        (Servsim.Remote.pending conn);
      Alcotest.(check bool) "server view untouched" true (v0 = view ()))

(* Random block-store traffic, replayed op for op against an in-process
   server and a forked one.  After every op the two ledgers agree, the
   outbox state agrees, and whenever the outbox is empty the ledger
   equals the wire frames; at the end the server's own digests equal the
   client's mirror. *)
type store_op =
  | Read of int * int
  | Read_many of int * int list
  | Write of int * int * string
  | Write_many of int * (int * string) list
  | Write_scatter of (int * (int * string) list) list
  | Ensure of int * int
  | Create
  | Drop of int

let store_op_gen =
  QCheck.Gen.(
    let item = pair (int_bound 1000) (string_size (0 -- 24)) in
    frequency
      [
        (3, map2 (fun s i -> Read (s, i)) (int_bound 100) (int_bound 1000));
        (3, map2 (fun s is -> Read_many (s, is)) (int_bound 100)
              (list_size (1 -- 6) (int_bound 1000)));
        (3, map3 (fun s i v -> Write (s, i, v)) (int_bound 100) (int_bound 1000)
              (string_size (0 -- 24)));
        (3, map2 (fun s items -> Write_many (s, items)) (int_bound 100) (list_size (0 -- 5) item));
        (2, map (fun gs -> Write_scatter gs)
              (list_size (0 -- 3) (pair (int_bound 100) (list_size (0 -- 4) item))));
        (2, map2 (fun s n -> Ensure (s, n)) (int_bound 100) (int_bound 6));
        (1, return Create);
        (1, map (fun s -> Drop s) (int_bound 100));
      ])

(* Apply one op to [server]; [live] holds its stores, oldest first.
   Returns the values read, so the two runs can be compared. *)
let apply_store_op server live counter op =
  let module B = Servsim.Block_store in
  let pick k = List.nth !live (k mod List.length !live) in
  let slot st i = i mod B.length st in
  let sized = List.filter (fun st -> B.length st > 0) in
  let create () =
    incr counter;
    live := !live @ [ Servsim.Server.create_store server (Printf.sprintf "s%d" !counter) ];
    []
  in
  if !live = [] then create ()
  else
    match op with
    | Create -> create ()
    | Drop k ->
        let st = pick k in
        Servsim.Server.drop_store server (B.name st);
        live := List.filter (fun x -> x != st) !live;
        []
    | Ensure (k, n) ->
        let st = pick k in
        B.ensure st (B.length st + 1 + n);
        []
    | _ -> (
        match sized !live with
        | [] ->
            B.ensure (pick 0) 4;
            []
        | stores -> (
            let pick k = List.nth stores (k mod List.length stores) in
            match op with
            | Read (k, i) ->
                let st = pick k in
                [ B.read st (slot st i) ]
            | Read_many (k, is) ->
                let st = pick k in
                B.read_many st (List.map (slot st) is)
            | Write (k, i, v) ->
                let st = pick k in
                B.write st (slot st i) v;
                []
            | Write_many (k, items) ->
                let st = pick k in
                B.write_many st (List.map (fun (i, v) -> (slot st i, v)) items);
                []
            | Write_scatter groups ->
                (* Consecutive batches on several stores, as the recursive
                   ORAM's flush writes them: one outbox, one frame. *)
                List.iter
                  (fun (k, items) ->
                    let st = pick k in
                    B.write_many st (List.map (fun (i, v) -> (slot st i, v)) items))
                  groups;
                []
            | Create | Drop _ | Ensure _ -> []))

let qcheck_outbox_ledger =
  QCheck.Test.make ~name:"outbox: local ledger = remote ledger = frames when empty" ~count:30
    (QCheck.make QCheck.Gen.(list_size (1 -- 40) store_op_gen))
    (fun ops ->
      with_remote (fun conn ->
          let local = Servsim.Server.create () and remote = Servsim.Server.create ~remote:conn () in
          let trips server =
            (Servsim.Cost.snapshot (Servsim.Server.cost server)).Servsim.Cost.round_trips
          in
          let live_l = ref [] and live_r = ref [] and cl = ref 0 and cr = ref 0 in
          let consistent () =
            trips local = trips remote
            && Servsim.Server.pending local = Servsim.Server.pending remote
            && Servsim.Server.pending remote = Servsim.Remote.pending conn
            && (Servsim.Server.pending remote || trips remote = Servsim.Remote.frames conn)
          in
          let ok =
            List.for_all
              (fun op ->
                let vl = apply_store_op local live_l cl op in
                let vr = apply_store_op remote live_r cr op in
                vl = vr && consistent ())
              ops
          in
          Servsim.Server.flush local;
          Servsim.Server.flush remote;
          let tr = Servsim.Server.trace remote in
          ok && consistent ()
          && (not (Servsim.Server.pending remote))
          && Int64.equal (Servsim.Trace.full_digest tr)
               (Servsim.Trace.full_digest (Servsim.Server.trace local))
          && Servsim.Remote.digests conn ~full:(Servsim.Trace.full_digest tr)
               ~shape:(Servsim.Trace.shape_digest tr) ~count:(Servsim.Trace.count tr)))

(* The daemon journals Put_get like any counted request: a durable
   daemon restarted after Put_get traffic rehydrates the tenant with the
   same digests, ledger and blocks. *)
let test_put_get_survives_restart () =
  let workload conn =
    let server = Servsim.Server.create ~remote:conn () in
    (* The last write-back stays queued: [close] must send it. *)
    ignore (oram_workload server);
    let tr = Servsim.Server.trace server in
    (Servsim.Trace.full_digest tr, Servsim.Trace.shape_digest tr, Servsim.Trace.count tr)
  in
  let probe conn =
    let digests = Servsim.Remote.server_digests conn in
    let blocks = Servsim.Remote.multi_get conn ~store:"o" [ 0; 5; 17; 40 ] in
    (digests, blocks, (Servsim.Remote.stats conn).Servsim.Wire.frames)
  in
  let expected =
    Suite_store.with_daemon (fun path ->
        let mirror = Suite_store.with_client ~namespace:"pg" path workload in
        (mirror, Suite_store.with_client ~namespace:"pg" path probe))
  in
  Suite_store.with_tmp_dir "sfdd-putget" (fun data_dir ->
      let mirror, (digests, _, _) = expected in
      Alcotest.(check bool) "daemon digests = client mirror" true (mirror = digests);
      let mirror =
        Suite_store.with_daemon ~data_dir (fun path ->
            Suite_store.with_client ~namespace:"pg" path workload)
      in
      (* The first daemon is fully stopped; a second one rehydrates the
         tenant from its journal. *)
      let probed =
        Suite_store.with_daemon ~data_dir (fun path ->
            Suite_store.with_client ~namespace:"pg" path probe)
      in
      Alcotest.(check bool) "digests, blocks and ledger survive a restart" true
        ((mirror, probed) = expected))

(* Framing is a function of the data-independent operation schedule: two
   Or-ORAM discoveries over same-shape tables with different values
   (an injective relabelling per column, so Size(DB) and FD(DB) agree)
   send the same number of frames and the same bytes each way. *)
let test_framing_data_independent () =
  let a = Datasets.Rnd.generate_with_domain ~seed:4 ~rows:20 ~cols:4 ~domain:3 () in
  let b =
    Table.make (Table.schema a)
      (Array.init (Table.rows a) (fun r ->
           Array.map
             (function Value.Int x -> Value.Int ((x * 7919) + 13) | v -> v)
             (Table.row a r)))
  in
  let run table =
    with_remote (fun conn ->
        let r =
          Core.Protocol.discover ~seed:7 ~max_lhs:2 ~remote:conn ~oram_cache_levels:2
            Core.Protocol.Or_oram table
        in
        let st = Servsim.Remote.stats conn in
        (r.Core.Protocol.fds, Servsim.Remote.frames conn, st.Servsim.Wire.bytes_in,
         st.Servsim.Wire.bytes_out))
  in
  let fds_a, frames_a, in_a, out_a = run a and fds_b, frames_b, in_b, out_b = run b in
  Alcotest.(check bool) "same FDs (same leakage)" true (fds_a = fds_b);
  Alcotest.(check bool) "the runs moved real data" true (frames_a > 0 && in_a > 0);
  Alcotest.(check int) "same wire frames" frames_a frames_b;
  Alcotest.(check int) "same bytes in" in_a in_b;
  Alcotest.(check int) "same bytes out" out_a out_b

(* {2 Cost underflow counter} *)

(* Pinned FNV-1a digest vectors, computed independently (64-bit FNV-1a
   over the documented event serialisation: store bytes, then op tag,
   addr, len as 8 little-endian bytes each; addr excluded from the shape).
   Guards the digest encoding itself: the unboxed two-half fold must stay
   bit-compatible with plain 64-bit FNV-1a, and [record_name] with
   [record], or historical cross-run comparisons silently break. *)
let test_trace_digest_pinned () =
  let run record_via =
    let t = Servsim.Trace.create () in
    let ev store op addr len = record_via t store op addr len in
    ev "db-1" Servsim.Trace.Read 0 48;
    ev "db-1" Servsim.Trace.Write 3 48;
    ev "sort-2" Servsim.Trace.Read 7 33;
    Servsim.Trace.mark t "phase";
    ev "sort-2" Servsim.Trace.Write 123456789 64;
    (Servsim.Trace.full_digest t, Servsim.Trace.shape_digest t, Servsim.Trace.count t)
  in
  let check_pins label (full, shape, count) =
    Alcotest.(check int64) (label ^ " full") 0xca7865772a5e97cdL full;
    Alcotest.(check int64) (label ^ " shape") 0xfe3271136782973dL shape;
    Alcotest.(check int) (label ^ " count") 4 count
  in
  check_pins "record"
    (run (fun t store op addr len ->
         Servsim.Trace.record t { Servsim.Trace.store; op; addr; len }));
  check_pins "record_name"
    (run (fun t store op addr len ->
         Servsim.Trace.record_name t (Servsim.Trace.name store) op ~addr ~len))

let qcheck_trace_record_name_equiv =
  let event_gen =
    QCheck.Gen.(
      quad (oneofl [ "db"; "s-1"; "a much longer store name" ])
        (oneofl [ Servsim.Trace.Read; Servsim.Trace.Write ])
        (int_bound 1_000_000) (int_bound 4096))
  in
  QCheck.Test.make ~name:"record_name digests equal record digests" ~count:100
    (QCheck.make QCheck.Gen.(list_size (1 -- 40) event_gen))
    (fun events ->
      let a = Servsim.Trace.create () in
      List.iter
        (fun (store, op, addr, len) ->
          Servsim.Trace.record a { Servsim.Trace.store; op; addr; len })
        events;
      let b = Servsim.Trace.create () in
      let names = Hashtbl.create 4 in
      List.iter
        (fun (store, op, addr, len) ->
          let nm =
            match Hashtbl.find_opt names store with
            | Some nm -> nm
            | None ->
                let nm = Servsim.Trace.name store in
                Hashtbl.add names store nm;
                nm
          in
          Servsim.Trace.record_name b nm op ~addr ~len)
        events;
      Int64.equal (Servsim.Trace.full_digest a) (Servsim.Trace.full_digest b)
      && Int64.equal (Servsim.Trace.shape_digest a) (Servsim.Trace.shape_digest b))

let test_cost_underflow_counter () =
  let c = Servsim.Cost.create () in
  Servsim.Cost.client_alloc c 10;
  Servsim.Cost.client_free c 4;
  Alcotest.(check int) "no underflow on balanced free" 0
    (Servsim.Cost.snapshot c).Servsim.Cost.client_underflows;
  Servsim.Cost.client_free c 10;
  let s = Servsim.Cost.snapshot c in
  Alcotest.(check int) "over-free detected" 1 s.Servsim.Cost.client_underflows;
  Alcotest.(check int) "ledger still clamped at zero" 0 s.Servsim.Cost.client_current_bytes

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
    Alcotest.test_case "huge string prefix" `Quick test_huge_string_prefix;
    Alcotest.test_case "huge list prefix" `Quick test_huge_list_prefix;
    Alcotest.test_case "put_u32 range check" `Quick test_put_u32_range;
    Alcotest.test_case "bad tag" `Quick test_bad_tag;
    Alcotest.test_case "oversized namespace" `Quick test_oversized_namespace;
    Alcotest.test_case "oversized dynamic row" `Quick test_oversized_row;
    Alcotest.test_case "Begin_dynamic arity mismatch" `Quick test_begin_dynamic_arity_mismatch;
    Alcotest.test_case "hello roundtrip" `Quick test_hello_roundtrip;
    Alcotest.test_case "client rejects version mismatch" `Quick
      test_client_rejects_version_mismatch;
    Alcotest.test_case "server rejects version mismatch" `Quick
      test_server_rejects_version_mismatch;
    Alcotest.test_case "multi get/put end-to-end" `Quick test_multi_roundtrip_server;
    Alcotest.test_case "remote-local equivalence" `Quick test_remote_local_equivalence;
    Alcotest.test_case "frames match ledger" `Quick test_frames_match_ledger;
    Alcotest.test_case "Put_get all-or-nothing" `Quick test_put_get_all_or_nothing;
    QCheck_alcotest.to_alcotest qcheck_outbox_ledger;
    Alcotest.test_case "Put_get survives a daemon restart" `Quick test_put_get_survives_restart;
    Alcotest.test_case "framing is data-independent" `Quick test_framing_data_independent;
    Alcotest.test_case "cost underflow counter" `Quick test_cost_underflow_counter;
    Alcotest.test_case "trace digests pinned" `Quick test_trace_digest_pinned;
    QCheck_alcotest.to_alcotest qcheck_trace_record_name_equiv;
  ]
