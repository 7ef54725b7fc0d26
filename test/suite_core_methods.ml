(* Core protocol correctness: every oblivious method must compute exactly
   the plaintext partition cardinalities and exactly the TANE FD set. *)

open Relation
open Core

let pp_fds fds = String.concat "; " (List.map (Format.asprintf "%a" Fdbase.Fd.pp) fds)

let random_table ?(seed = 7) ~n ~m ~domain () =
  Datasets.Rnd.generate_with_domain ~seed ~rows:n ~cols:m ~domain ()

let methods = [ Protocol.Or_oram; Protocol.Ex_oram; Protocol.Sort ]

let test_partition_cardinality_single () =
  let t = random_table ~n:50 ~m:3 ~domain:5 () in
  List.iter
    (fun m ->
      for col = 0 to 2 do
        let expect =
          Fdbase.Partition.cardinality (Fdbase.Partition.of_column (Table.column t col))
        in
        let got, _ = Protocol.partition_cardinality m t (Attrset.singleton col) in
        Alcotest.(check int)
          (Printf.sprintf "%s col %d" (Protocol.method_name m) col)
          expect got
      done)
    methods

let test_partition_cardinality_pairs () =
  let t = random_table ~seed:8 ~n:40 ~m:4 ~domain:4 () in
  List.iter
    (fun m ->
      List.iter
        (fun (a, b) ->
          let x = Attrset.of_list [ a; b ] in
          let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
          let got, _ = Protocol.partition_cardinality m t x in
          Alcotest.(check int)
            (Printf.sprintf "%s {%d,%d}" (Protocol.method_name m) a b)
            expect got)
        [ (0, 1); (1, 2); (0, 3) ])
    methods

let test_partition_cardinality_triple () =
  let t = random_table ~seed:9 ~n:30 ~m:4 ~domain:3 () in
  let x = Attrset.of_list [ 0; 1; 2 ] in
  let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
  List.iter
    (fun m ->
      let got, _ = Protocol.partition_cardinality m t x in
      Alcotest.(check int) (Protocol.method_name m) expect got)
    methods

let test_discover_fig1 () =
  let t = Datasets.Examples.fig1 () in
  let expect = Fdbase.Tane.fds t in
  List.iter
    (fun m ->
      let r = Protocol.discover m t in
      Alcotest.(check string) (Protocol.method_name m) (pp_fds expect) (pp_fds r.Protocol.fds))
    methods

let test_discover_employee () =
  let t = Datasets.Examples.employee () in
  let expect = Fdbase.Tane.fds t in
  List.iter
    (fun m ->
      let r = Protocol.discover m t in
      Alcotest.(check string) (Protocol.method_name m) (pp_fds expect) (pp_fds r.Protocol.fds);
      (* The paper's §I motivation: Position → Department must hold. *)
      let schema = Table.schema t in
      let pos = Schema.index schema "Position" and dep = Schema.index schema "Department" in
      Alcotest.(check bool) "Position -> Department" true
        (List.exists
           (fun fd -> Fdbase.Fd.equal fd { Fdbase.Fd.lhs = Attrset.singleton pos; rhs = dep })
           r.Protocol.fds))
    methods

let test_discover_random_matches_tane () =
  List.iter
    (fun seed ->
      let t = random_table ~seed ~n:24 ~m:4 ~domain:3 () in
      let expect = Fdbase.Tane.fds t in
      List.iter
        (fun m ->
          let r = Protocol.discover m t in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d" (Protocol.method_name m) seed)
            (pp_fds expect) (pp_fds r.Protocol.fds))
        methods)
    [ 1; 2; 3 ]

let test_discover_dataset_samples () =
  (* Small samples of the three "real-world" stand-ins. *)
  let rng = Crypto.Rng.create 99 in
  let tables =
    [
      ("adult", Datasets.Adult_like.generate ~rows:64 ());
      ("letter", Datasets.Letter_like.generate ~rows:64 ());
      ("flight", Datasets.Flight_like.generate ~rows:64 ());
    ]
  in
  List.iter
    (fun (name, full) ->
      let t = Table.sample_rows full (Crypto.Rng.int rng) 32 in
      let expect = (Fdbase.Tane.discover ~max_lhs:2 t).Fdbase.Lattice.fds in
      List.iter
        (fun m ->
          let r = Protocol.discover ~max_lhs:2 m t in
          Alcotest.(check string)
            (Printf.sprintf "%s on %s" (Protocol.method_name m) name)
            (pp_fds expect) (pp_fds r.Protocol.fds))
        methods)
    tables

let test_enclave_matches_tane () =
  let t = random_table ~seed:5 ~n:32 ~m:4 ~domain:3 () in
  let expect = Fdbase.Tane.fds t in
  let r = Enclave.discover t in
  Alcotest.(check string) "enclave sort" (pp_fds expect) (pp_fds r.Protocol.fds)

let test_enclave_partition () =
  let t = random_table ~seed:6 ~n:50 ~m:3 ~domain:4 () in
  let x = Attrset.of_list [ 0; 1 ] in
  let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
  let card, dt = Enclave.partition_cardinality t x in
  Alcotest.(check int) "cardinality" expect card;
  Alcotest.(check bool) "time positive" true (dt >= 0.0)

let test_sort_method_networks_agree () =
  let t = random_table ~seed:12 ~n:40 ~m:3 ~domain:4 () in
  let x = Attrset.of_list [ 0; 2 ] in
  let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
  let session = Session.create ~n:40 ~m:3 () in
  let db = Enc_db.outsource session t in
  let run network =
    let h1 = Sort_method.single ~network db 0 in
    let h2 = Sort_method.single ~network db 2 in
    Sort_method.cardinality (Sort_method.combine ~network session x h1 h2)
  in
  Alcotest.(check int) "bitonic" expect (run Sort_method.Bitonic);
  Alcotest.(check int) "odd-even-merge" expect (run Sort_method.Odd_even_merge)

let test_sort_labels_preserve_partition () =
  (* The label array of Sort must induce the same partition as plaintext. *)
  let t = random_table ~seed:13 ~n:30 ~m:2 ~domain:3 () in
  let session = Session.create ~n:30 ~m:2 () in
  let db = Enc_db.outsource session t in
  let h = Sort_method.single db 0 in
  let labels = Sort_method.labels h in
  let col = Table.column t 0 in
  for i = 0 to 29 do
    for j = 0 to 29 do
      Alcotest.(check bool)
        (Printf.sprintf "rows %d,%d" i j)
        (Value.equal col.(i) col.(j))
        (labels.(i) = labels.(j))
    done
  done

let test_or_oram_labels_preserve_partition () =
  let t = random_table ~seed:14 ~n:25 ~m:2 ~domain:3 () in
  let session = Session.create ~n:25 ~m:2 () in
  let db = Enc_db.outsource session t in
  let h = Or_oram_method.single db 1 in
  let col = Table.column t 1 in
  let labels = Array.init 25 (fun row -> Or_oram_method.label_of_row h ~row) in
  for i = 0 to 24 do
    for j = 0 to 24 do
      Alcotest.(check bool)
        (Printf.sprintf "rows %d,%d" i j)
        (Value.equal col.(i) col.(j))
        (labels.(i) = labels.(j))
    done
  done

(* {2 Per-row access schedule, pinned on the cost ledger}

   In steady state a Path ORAM access costs one round trip: its path
   read rides in the frame its predecessor's write-back opened, and its
   own write-back opens the next one.  A cell read opens no frame.  So
   an Or-ORAM single costs its set-up plus 3 frames a row (cell, one
   O^KL read-modify-write, one O^IL write) and a combine its set-up plus
   4 (two generator O^IL reads, O^KL, O^IL).  The set-up is measured by
   building the handle's two ORAMs on their own. *)
let round_trips session = (Servsim.Cost.snapshot (Session.cost session)).Servsim.Cost.round_trips

let ledger_delta session f =
  let before = round_trips session in
  let r = f () in
  (r, round_trips session - before)

let orams_setup_trips session ~key_len =
  let setup key_len =
    Oram.Path_oram.setup
      ~name:(Session.fresh_name session "probe")
      ~cache_levels:session.Session.oram_cache_levels
      { capacity = session.Session.n; key_len; payload_len = 8 }
      session.Session.server session.Session.cipher (Session.rand_int session)
  in
  let (kl, il), trips = ledger_delta session (fun () -> (setup key_len, setup 8)) in
  Oram.Path_oram.destroy kl;
  Oram.Path_oram.destroy il;
  trips

let test_or_oram_row_schedule () =
  let n = 40 in
  let t = random_table ~seed:21 ~n ~m:2 ~domain:4 () in
  List.iter
    (fun cache ->
      let session = Session.create ~seed:3 ~oram_cache_levels:cache ~n ~m:2 () in
      let db = Enc_db.outsource session t in
      let label = Printf.sprintf "cache %d" cache in
      let single_setup = orams_setup_trips session ~key_len:Compression.single_key_len in
      let combine_setup = orams_setup_trips session ~key_len:Compression.multi_key_len in
      let h0, t0 = ledger_delta session (fun () -> Or_oram_method.single db 0) in
      let h1, t1 = ledger_delta session (fun () -> Or_oram_method.single db 1) in
      let x = Attrset.of_list [ 0; 1 ] in
      let h01, t01 = ledger_delta session (fun () -> Or_oram_method.combine session x h0 h1) in
      Alcotest.(check int) (label ^ ": single = set-up + 3n") (single_setup + (3 * n)) t0;
      Alcotest.(check int) (label ^ ": second single = set-up + 3n") (single_setup + (3 * n)) t1;
      Alcotest.(check int) (label ^ ": combine = set-up + 4n") (combine_setup + (4 * n)) t01;
      List.iter Or_oram_method.release [ h0; h1; h01 ])
    [ 0; 2 ]

(* {2 QCheck: the read-modify-write branch on repeating keys}

   Low-cardinality tables make most rows hit a key already in O^KL /
   O^KLF, so the "seen before" side of the fused access runs on almost
   every row.  Cardinalities of both methods and the Or-ORAM label
   partitions must equal the plaintext ones. *)
let same_partition t x labels =
  let n = Table.rows t in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let same = Table.project_value t ~row:i x = Table.project_value t ~row:j x in
      if same <> (labels.(i) = labels.(j)) then ok := false
    done
  done;
  !ok

let qcheck_rmw_matches_partition =
  QCheck.Test.make ~name:"or/ex-oram read-modify-write = plaintext partitions on repeating keys"
    ~count:15
    QCheck.(triple (int_bound 10000) (int_range 1 40) (int_range 1 3))
    (fun (seed, n, domain) ->
      let t = random_table ~seed ~n ~m:2 ~domain () in
      let session = Session.create ~seed ~n ~m:2 () in
      let db = Enc_db.outsource session t in
      let x0 = Attrset.singleton 0 and x1 = Attrset.singleton 1 in
      let x01 = Attrset.of_list [ 0; 1 ] in
      let card x = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
      let o0 = Or_oram_method.single db 0 and o1 = Or_oram_method.single db 1 in
      let o01 = Or_oram_method.combine session x01 o0 o1 in
      let e0 = Ex_oram_method.single db 0 and e1 = Ex_oram_method.single db 1 in
      let e01 = Ex_oram_method.combine session x01 e0 e1 in
      let labels h = Array.init n (fun row -> Or_oram_method.label_of_row h ~row) in
      let ok =
        Or_oram_method.cardinality o0 = card x0
        && Or_oram_method.cardinality o1 = card x1
        && Or_oram_method.cardinality o01 = card x01
        && Ex_oram_method.cardinality e0 = card x0
        && Ex_oram_method.cardinality e1 = card x1
        && Ex_oram_method.cardinality e01 = card x01
        && same_partition t x0 (labels o0)
        && same_partition t x01 (labels o01)
      in
      List.iter Or_oram_method.release [ o0; o1; o01 ];
      List.iter Ex_oram_method.release [ e0; e1; e01 ];
      ok)

let test_string_values_supported () =
  let t = Datasets.Examples.employee () in
  let x = Schema.attrset_of_names (Table.schema t) [ "Position" ] in
  let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
  List.iter
    (fun m ->
      let got, _ = Protocol.partition_cardinality m t x in
      Alcotest.(check int) (Protocol.method_name m) expect got)
    methods

let test_parallel_sort_method () =
  let t = random_table ~seed:15 ~n:64 ~m:2 ~domain:5 () in
  let session = Session.create ~n:64 ~m:2 () in
  let db = Enc_db.outsource session t in
  (* Tracing off during multi-domain execution. *)
  Servsim.Trace.set_enabled (Session.trace session) false;
  let h = Sort_method.single ~domains:4 db 0 in
  let expect =
    Fdbase.Partition.cardinality (Fdbase.Partition.of_column (Table.column t 0))
  in
  Alcotest.(check int) "parallel cardinality" expect (Sort_method.cardinality h)

let test_lattice_releases_storage () =
  (* The lattice releases pruned/used handles; after discovery the server
     holds little beyond the encrypted database itself. *)
  let t = random_table ~seed:17 ~n:24 ~m:4 ~domain:3 () in
  let session = Session.create ~n:24 ~m:4 () in
  let db = Enc_db.outsource session t in
  ignore db;
  let db_bytes = Servsim.Server.total_bytes session.Session.server in
  ignore (Fdbase.Lattice.discover ~m:4 ~n:24 (Or_oram_method.oracle session db));
  let after = Servsim.Server.total_bytes session.Session.server in
  Alcotest.(check bool)
    (Printf.sprintf "after %dB <= db %dB (all ORAMs released)" after db_bytes)
    true (after <= db_bytes)

let test_cost_report_sane () =
  let t = random_table ~seed:16 ~n:32 ~m:3 ~domain:4 () in
  let r = Protocol.discover Protocol.Sort t in
  Alcotest.(check bool) "bytes moved" true (r.Protocol.cost.Servsim.Cost.bytes_to_client > 0);
  Alcotest.(check bool) "round trips" true (r.Protocol.cost.Servsim.Cost.round_trips > 0);
  Alcotest.(check bool) "elapsed positive" true (r.Protocol.elapsed_s > 0.0);
  Alcotest.(check bool) "trace nonempty" true (r.Protocol.trace_count > 0)

let suite =
  [
    Alcotest.test_case "partition |X|=1 = plaintext" `Quick test_partition_cardinality_single;
    Alcotest.test_case "partition |X|=2 = plaintext" `Quick test_partition_cardinality_pairs;
    Alcotest.test_case "partition |X|=3 = plaintext" `Quick test_partition_cardinality_triple;
    Alcotest.test_case "discover = TANE on Fig. 1" `Quick test_discover_fig1;
    Alcotest.test_case "discover = TANE on employee" `Quick test_discover_employee;
    Alcotest.test_case "discover = TANE on random tables" `Slow test_discover_random_matches_tane;
    Alcotest.test_case "discover = TANE on dataset samples" `Slow test_discover_dataset_samples;
    Alcotest.test_case "enclave discover = TANE" `Quick test_enclave_matches_tane;
    Alcotest.test_case "enclave partition" `Quick test_enclave_partition;
    Alcotest.test_case "bitonic = odd-even-merge results" `Quick test_sort_method_networks_agree;
    Alcotest.test_case "sort labels preserve partition" `Quick test_sort_labels_preserve_partition;
    Alcotest.test_case "or-oram labels preserve partition" `Quick test_or_oram_labels_preserve_partition;
    Alcotest.test_case "or-oram rows: 3 frames single, 4 combine" `Quick test_or_oram_row_schedule;
    QCheck_alcotest.to_alcotest qcheck_rmw_matches_partition;
    Alcotest.test_case "string values supported" `Quick test_string_values_supported;
    Alcotest.test_case "parallel sort method" `Quick test_parallel_sort_method;
    Alcotest.test_case "lattice releases storage" `Quick test_lattice_releases_storage;
    Alcotest.test_case "cost report sane" `Quick test_cost_report_sane;
  ]
