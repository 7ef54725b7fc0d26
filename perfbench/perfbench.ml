(* perfbench: one run of one workload, printing one JSON result
   line.  Usually started through perfbench/run.py, which builds it.

     perfbench.exe --workload oram-remote --seed 1 --seconds 45 --trace 0 \
       --fdserved _build/default/bin/fdserved.exe --work .perfbench
     perfbench.exe --selftest

   With --trace 0 the result carries the end-to-end metrics; with
   --trace 1 the per-layer metrics of a traced run.  Every timed
   operation is checked (see Pb_check); a failed check makes the result
   incorrect and the exit code 1.  The full record of the run (both
   metric sets where measured, check problems, environment) and, when
   traced, the spans are written under --work. *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload oram-remote|sort-local|dynamic-stream --seed N --seconds S \
     --trace 0|1 --fdserved PATH --work DIR\n\
    \       perfbench.exe --selftest";
  exit 2

let nproc () =
  let ic = Unix.open_process_args_in "nproc" [| "nproc" |] in
  let n = Fun.protect ~finally:(fun () -> ignore (Unix.close_process_in ic)) (fun () -> input_line ic) in
  int_of_string (String.trim n)

(* (name, unit) in BENCHMARK.json order.  An "op" is one whole
   discovery on the static workloads.  The two times are quoted at a
   reference host speed: each is multiplied by [reference_kernel_s] /
   (the run's mean reference-kernel time; see Pb_calib).  On a shared
   host the raw times drift 2x and more with the neighbours' load, in
   phases of seconds to minutes; the scaled ones drift far less.
   [op_ref_ms] scales the mean discovery time: the kernel samples each
   discovery evenly, so the two means integrate the same host phases
   (medians, which pick one phase, drifted 4x as much).  [setup_s]
   scales the median set-up, because a set-up takes 2 ms and one
   scheduler hiccup would dominate a mean.  The run record keeps the
   raw times and every sample. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("op_ref_ms", "ms");
    ("bytes_per_op", "B");
    ("round_trips_per_op", "count");
    ("client_peak_bytes", "B");
    ("server_bytes", "B");
  ]

(* The reference kernel's time on the host speed the scaled times are
   quoted at: about its median on an Intel Xeon VM with 2 vCPUs shared
   with other tenants. *)
let reference_kernel_s = 0.007

let per_layer =
  [
    ("fdbase.lattice_self_s", "s");
    ("fdbase.nodes", "count");
    ("core.single_s", "s");
    ("core.single_calls", "count");
    ("core.combine_s", "s");
    ("core.combine_calls", "count");
    ("core.release_s", "s");
    ("core.set_level_s", "s");
    ("core.set_level_calls", "count");
    ("core.outsource_s", "s");
    ("core.sort_backend.read_batch_s", "s");
    ("core.sort_backend.read_batch_calls", "count");
    ("core.sort_backend.write_batch_s", "s");
    ("core.sort_backend.write_batch_calls", "count");
    ("osort.self_s", "s");
    ("servsim.blocks", "count");
    ("servsim.blocks_per_combine", "count");
    ("servsim.modeled_lan_s", "s");
    ("servsim.wire_overhead_s", "s");
    ("service.frames", "count");
    ("service.p50_us", "us");
    ("service.p99_us", "us");
    ("service.syscalls_per_frame", "count");
    ("service.daemon_cpu_s", "s");
    ("gc.minor_words", "count");
    ("gc.major_collections", "count");
    ("client.cpu_s", "s");
    ("client.blocked_s", "s");
    ("trace.overhead_s", "s");
    ("trace.spans", "count");
  ]

let fi = float_of_int
let per a b = if b = 0 then 0.0 else a /. fi b

(* Stats deltas around an interval (counters are daemon-lifetime). *)
let service (a, b) ~daemon_cpu_s =
  let open Servsim.Wire in
  let frames = b.frames - a.frames - 1 in
  let syscalls = b.loop_reads - a.loop_reads + (b.loop_writes - a.loop_writes) in
  [
    ("service.frames", fi frames);
    ("service.p50_us", fi b.p50_us);
    ("service.p99_us", fi b.p99_us);
    ("service.syscalls_per_frame", per (fi syscalls) frames);
    ("service.daemon_cpu_s", daemon_cpu_s);
  ]

let static_end_to_end (o : Pb_static.outcome) =
  let ds = o.Pb_static.discoveries in
  let walls = List.map (fun d -> d.Pb_static.wall_s) ds in
  let mean l = List.fold_left ( +. ) 0.0 l /. fi (List.length l) in
  let kernel = mean (List.concat_map (fun d -> d.Pb_static.kernel) ds) in
  let speed = reference_kernel_s /. kernel in
  [
    ("setup_s", speed *. Pb_util.median o.setups);
    ("op_ref_ms", speed *. 1e3 *. mean walls);
    ("setup_wall_s", Pb_util.median o.setups);
    ("op_wall_mean_ms", 1e3 *. mean walls);
    ("op_wall_p50_ms", 1e3 *. Pb_util.median walls);
    ("op_wall_min_ms", 1e3 *. List.fold_left Float.min Float.infinity walls);
    ("kernel_mean_ms", 1e3 *. kernel);
    ("first_query_s", (List.hd ds).wall_s);
    ("bytes_per_op", Pb_util.median (List.map (fun d -> fi (Pb_static.moved d)) ds));
    ("round_trips_per_op", Pb_util.median (List.map (fun d -> fi (Pb_static.round_trips d)) ds));
    ("client_peak_bytes", Pb_util.median (List.map (fun d -> fi d.Pb_static.cost1.Servsim.Cost.client_peak_bytes) ds));
    ("server_bytes", Pb_util.median (List.map (fun d -> fi d.Pb_static.cost1.Servsim.Cost.server_bytes) ds));
  ]

let static_per_layer (o : Pb_static.outcome) =
  match o.Pb_static.traced with
  | None -> []
  | Some (d, spans) ->
      let f = Pb_spans.fold spans in
      let untraced = List.hd o.discoveries in
      let step_bytes = Pb_static.moved d and step_round_trips = Pb_static.round_trips d in
      let modeled =
        Core.Protocol.modeled_network_seconds
          {
            Core.Protocol.fds = d.fds;
            sets_checked = d.nodes;
            plan = [];
            cost = d.cost1;
            elapsed_s = d.wall_s;
            trace_full = d.digests.Pb_check.full;
            trace_shape = d.digests.Pb_check.shape;
            trace_count = d.digests.Pb_check.count;
            step_round_trips;
            step_bytes;
          }
      in
      let oracle = (f "core.single").total_s +. (f "core.combine").total_s +. (f "core.release").total_s in
      let b = d.backend in
      [
        ("fdbase.lattice_self_s", (f "fdbase.lattice").self_s);
        ("fdbase.nodes", fi d.nodes);
        ("core.single_s", (f "core.single").total_s);
        ("core.single_calls", fi (f "core.single").calls);
        ("core.combine_s", (f "core.combine").total_s);
        ("core.combine_calls", fi (f "core.combine").calls);
        ("core.release_s", (f "core.release").total_s);
        ("core.set_level_s", (f "core.set_level").total_s);
        ("core.set_level_calls", fi d.set_level_calls);
        ("core.outsource_s", d.setup.outsource_s);
        ("core.sort_backend.read_batch_s", b.read_batch_s);
        ("core.sort_backend.read_batch_calls", fi b.read_batch_calls);
        ("core.sort_backend.write_batch_s", b.write_batch_s);
        ("core.sort_backend.write_batch_calls", fi b.write_batch_calls);
        ("osort.self_s", if b.read_batch_calls = 0 then 0.0 else oracle -. Pb_static.backend_s b);
        ("servsim.blocks", fi d.blocks);
        ("servsim.blocks_per_combine", per (fi (f "core.combine").blocks) (f "core.combine").calls);
        ("servsim.modeled_lan_s", modeled);
        ( "servsim.wire_overhead_s",
          match o.in_process with
          | Some r -> untraced.wall_s -. r.Core.Protocol.elapsed_s
          | None -> 0.0 );
        ("gc.minor_words", d.minor_words);
        ("gc.major_collections", fi d.major_collections);
        ("client.cpu_s", d.cpu_s);
        ("client.blocked_s", d.wall_s -. d.cpu_s);
        ("trace.overhead_s", d.wall_s -. untraced.wall_s);
        ("trace.spans", fi (Pb_spans.count spans));
      ]
      @ match d.stats with Some s -> service s ~daemon_cpu_s:d.daemon_cpu_s | None -> []

let dynamic_end_to_end (o : Pb_dynamic.outcome) =
  let updates = o.Pb_dynamic.insert_ms @ o.delete_ms in
  let lib = o.lib in
  [
    ("setup_s", Pb_util.median o.setups);
    ("op_min_ms", List.fold_left Float.min Float.infinity updates);
    ("op_p50_ms", Pb_util.median updates);
    ("op_p99_ms", Pb_util.quantile 0.99 updates);
    ("updates_per_s", fi o.updates /. o.stream_s);
    ("first_query_s", o.first_revalidate_s);
    ("bytes_per_op", per (fi lib.update_bytes) o.updates);
    ("round_trips_per_op", per (fi lib.update_round_trips) o.updates);
    ("client_peak_bytes", fi lib.client_peak_bytes);
    ("server_bytes", fi lib.server_bytes);
  ]

let dynamic_per_layer (o : Pb_dynamic.outcome) =
  match o.Pb_dynamic.traced with
  | None -> []
  | Some (t, spans) ->
      let mean l = per (fi (Pb_util.isum l)) (List.length l) in
      let st0, st1 = o.stats in
      let client_p50 = Pb_util.median (o.insert_ms @ o.delete_ms) in
      [
        ("core.dynamic.start_s", t.start_s);
        ("core.dynamic.insert_ms", Pb_util.median t.insert_ms);
        ("core.dynamic.delete_ms", Pb_util.median t.delete_ms);
        ("core.dynamic.revalidate_ms", Pb_util.median (List.tl t.revalidate_ms));
        ("servsim.blocks", fi o.blocks);
        ("servsim.blocks_per_insert", mean t.blocks_insert);
        ("servsim.blocks_per_delete", mean t.blocks_delete);
        ("servsim.wire_wait_ms", client_p50 -. (fi st1.Servsim.Wire.p50_us /. 1e3));
        ("service.daemon_start_s", o.daemon_start_s);
        ("store.rehydrate_s", o.rehydrate_s);
        ("store.recover_s", o.recover_s);
        ("store.disk_bytes_per_update", per (fi o.disk_bytes) o.updates);
        ("store.snapshots", fi o.snapshots);
        ("client.insert_p50_ms", Pb_util.median o.insert_ms);
        ("client.delete_p50_ms", Pb_util.median o.delete_ms);
        ("client.revalidate_p50_ms", Pb_util.median o.revalidate_ms);
        ("gc.minor_words", o.minor_words);
        ("gc.major_collections", fi o.major_collections);
        ("client.cpu_s", o.cpu_s);
        ("client.blocked_s", o.stream_s -. o.cpu_s);
        ("trace.overhead_s", t.wall_s -. o.lib.wall_s);
        ("trace.spans", fi (Pb_spans.count spans));
      ]
      @ service (st0, st1) ~daemon_cpu_s:o.daemon_cpu_s

(* Every metric of [names], 0 where the workload does not exercise the
   layer (e.g. the Sort backend on oram-remote). *)
let select names measured =
  List.map
    (fun (name, unit_) ->
      let v = Option.value ~default:0.0 (List.assoc_opt name measured) in
      (name, Pb_util.Obj [ ("value", Pb_util.Num v); ("unit", Pb_util.Str unit_) ]))
    names

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--selftest" ] then begin
    let kernel_words = Pb_calib.words () in
    let kernel =
      if kernel_words = 0.0 then []
      else [ Printf.sprintf "reference kernel allocated %.0f minor words" kernel_words ]
    in
    match Pb_check.selftest () @ kernel with
    | [] ->
        print_endline
          "checker self-test: OK (rejects corrupted FDs, flipped digests, frame-count mismatches; \
           reference kernel allocates nothing)";
        exit 0
    | errors ->
        List.iter (fun e -> prerr_endline ("checker self-test FAILED: " ^ e)) errors;
        exit 1
  end;
  let rec parse acc = function
    | k :: v :: tl when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) tl
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload = get "workload" and seed = int_of_string (get "seed") in
  let seconds = float_of_string (get "seconds") and trace = get "trace" = "1" in
  let exe = get "fdserved" and work = get "work" in
  Pb_util.mkdir_p work;
  let run_dir = Filename.concat work (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ())) in
  Pb_util.mkdir_p run_dir;
  let check = Pb_check.create () in
  let wall0 = Pb_util.now () in
  let e2e, layers, spans, samples =
    match workload with
    | "oram-remote" | "sort-local" ->
        let cfg =
          if workload = "oram-remote" then Pb_static.oram_remote exe else Pb_static.sort_local
        in
        let o = Pb_static.run cfg ~work:run_dir ~seed ~seconds ~trace ~check in
        ( static_end_to_end o,
          static_per_layer o,
          Option.map snd o.traced,
          [
            ("setup_s", o.setups);
            ("op_ms", List.map (fun d -> 1e3 *. d.Pb_static.wall_s) o.discoveries);
            ( "kernel_ms",
              List.concat_map (fun d -> List.map (fun k -> 1e3 *. k) d.Pb_static.kernel) o.discoveries );

          ] )
    | "dynamic-stream" ->
        let o = Pb_dynamic.run ~exe ~work:run_dir ~seed ~trace ~check in
        ( dynamic_end_to_end o,
          dynamic_per_layer o,
          Option.map snd o.traced,
          [ ("setup_s", o.setups); ("revalidate_ms", o.revalidate_ms) ] )
    | _ -> usage ()
  in
  let correct = Pb_check.failed check = 0 in
  let metrics = if trace then select per_layer layers else select end_to_end e2e in
  let num l = Pb_util.Obj (List.map (fun (k, v) -> (k, Pb_util.Num v)) l) in
  let record =
    Pb_util.Obj
      [
        ("workload", Pb_util.Str workload);
        ("seed", Pb_util.Int seed);
        ("seconds", Pb_util.Num seconds);
        ("trace", Pb_util.Bool trace);
        ("nproc", Pb_util.Int (nproc ()));
        ("clients", Pb_util.Int 1);
        ("loop", Pb_util.Str "closed");
        ("run_wall_s", Pb_util.Num (Pb_util.now () -. wall0));
        ("correct", Pb_util.Bool correct);
        ("attempted", Pb_util.Int (Pb_check.attempted check));
        ("failed", Pb_util.Int (Pb_check.failed check));
        ("problems", Pb_util.Arr (List.map (fun p -> Pb_util.Str p) (Pb_check.problems check)));
        ("end_to_end", num e2e);
        ("per_layer", num layers);
        ( "samples",
          Pb_util.Obj
            (List.map (fun (k, l) -> (k, Pb_util.Arr (List.map (fun v -> Pb_util.Num v) l))) samples) );
      ]
  in
  let base = Filename.concat work (Printf.sprintf "%s-seed%d-trace%d" workload seed (Bool.to_int trace)) in
  Pb_util.write_file (base ^ ".json") (Pb_util.json_to_string record ^ "\n");
  Option.iter (fun s -> Pb_spans.write s (base ^ ".spans.jsonl")) spans;
  Pb_util.rm_rf run_dir;
  List.iter (fun p -> prerr_endline ("CHECK FAILED: " ^ p)) (Pb_check.problems check);
  print_endline
    (Pb_util.json_to_string
       (Pb_util.Obj
          [
            ("correct", Pb_util.Bool correct);
            ("attempted", Pb_util.Int (Pb_check.attempted check));
            ("failed", Pb_util.Int (Pb_check.failed check));
            ("metrics", Pb_util.Obj metrics);
          ]));
  exit (if correct then 0 else 1)
