type store = { mutable blocks : string array; mutable len : int }

let reservoir_size = 1024

(* A live dynamic FD session, behind closures so this module (which the
   discovery engine itself depends on for its block stores) needs no
   dependency on the engine.  The concrete implementation lives in
   [Dynserve], which installs itself through {!set_dyn_provider}. *)
type dyn = {
  dyn_dispatch : Wire.request -> Wire.response;
  dyn_release : unit -> unit;
}

type state = {
  stores : (string, store) Hashtbl.t;
  trace : Trace.t;
  cost : Cost.t;
  started : float;
  mutable bytes : int;
  lat : float array; (* ring of the most recent service latencies, seconds *)
  mutable lat_n : int; (* total latencies ever recorded *)
  mutable dyn : dyn option;
  mutable dyn_history : Wire.request list; (* newest first; see [export_dyn] *)
  mutable inserts : int;
  mutable deletes : int;
  mutable revalidates : int;
}

let create_state () =
  {
    stores = Hashtbl.create 32;
    trace = Trace.create ();
    cost = Cost.create ();
    started = Unix.gettimeofday ();
    bytes = 0;
    lat = Array.make reservoir_size 0.;
    lat_n = 0;
    dyn = None;
    dyn_history = [];
    inserts = 0;
    deletes = 0;
    revalidates = 0;
  }

(* {2 Dynamic-session provider}

   Process-global: there is one engine implementation, and whether it is
   linked in is a property of the executable, not of a session.  The
   provider receives the [Begin_dynamic] request and returns the live
   session plus the response to that request, or a client-fault
   message. *)

let dyn_provider : (Wire.request -> (dyn * Wire.response, string) result) option ref = ref None
let set_dyn_provider f = dyn_provider := Some f
let dynamic_available () = Option.is_some !dyn_provider

let dynamic_verb = function
  | Wire.Begin_dynamic _ | Wire.Insert_row _ | Wire.Delete_row _ | Wire.Revalidate -> true
  | _ -> false

let has_dyn st = Option.is_some st.dyn
let dyn_counters st = (st.inserts, st.deletes, st.revalidates)
let export_dyn st = List.rev st.dyn_history

let release_dyn st =
  match st.dyn with
  | None -> ()
  | Some d ->
      st.dyn <- None;
      d.dyn_release ()

let trace st = st.trace
let cost st = st.cost
let total_bytes st = st.bytes
let started st = st.started

(* Session-level frames ([Hello] before the session exists, and the
   version byte) are connection setup, not served requests: the client's
   [Remote.frames] counter skips them, so the server-side ledger must
   too, or the frames == ledger invariant breaks. *)
let counted = function Wire.Hello _ -> false | _ -> true

let account_request st ~bytes =
  Cost.round_trip st.cost;
  Cost.sent_to_server st.cost bytes

let account_response st ~bytes =
  Cost.sent_to_client st.cost bytes;
  Cost.set_server_bytes st.cost st.bytes

let record_latency st s =
  st.lat.(st.lat_n mod reservoir_size) <- s;
  st.lat_n <- st.lat_n + 1

(* Nearest-rank percentiles over the reservoir; (0, 0, 0) before any
   latency has been recorded. *)
let latency_percentiles st =
  let n = min st.lat_n reservoir_size in
  if n = 0 then (0., 0., 0.)
  else begin
    let a = Array.sub st.lat 0 n in
    Array.sort compare a;
    let pick q = a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))) in
    (pick 0.50, pick 0.95, pick 0.99)
  end

let find st name =
  match Hashtbl.find_opt st.stores name with
  | Some s -> s
  | None -> raise (Wire.Protocol_error ("no such store: " ^ name))

let ensure s n =
  if n > Array.length s.blocks then begin
    let cap = ref (max 16 (Array.length s.blocks)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let blocks = Array.make !cap "" in
    Array.blit s.blocks 0 blocks 0 s.len;
    s.blocks <- blocks
  end;
  if n > s.len then s.len <- n

(* [Stats] answer for serving modes without daemon-side metrics (the
   legacy one-client fork server): the session ledger is exact and the
   percentiles come from the session's own latency reservoir — real
   numbers as long as the serving loop calls {!record_latency}. *)
let basic_stats st =
  let c = Cost.snapshot st.cost in
  let p50, p95, p99 = latency_percentiles st in
  let us s = min 0xFFFFFFFF (int_of_float (s *. 1e6)) in
  Wire.Stats_reply
    {
      uptime_us = Int64.of_float ((Unix.gettimeofday () -. st.started) *. 1e6);
      sessions = 1;
      frames = c.Cost.round_trips;
      bytes_in = c.Cost.bytes_to_server;
      bytes_out = c.Cost.bytes_to_client;
      p50_us = us p50;
      p95_us = us p95;
      p99_us = us p99;
      (* No event loop in this serving mode; the daemon fills these. *)
      loop_reads = 0;
      loop_writes = 0;
      loop_wakeups = 0;
      loop_rounds = 0;
      inserts = st.inserts;
      deletes = st.deletes;
      revalidates = st.revalidates;
      dyn_sessions = (if Option.is_some st.dyn then 1 else 0);
    }

let in_bounds s i = i >= 0 && i < s.len

(* Resolve every store of a write batch up front: a missing store raises
   before anything is mutated. *)
let resolve st groups = List.map (fun (name, items) -> (name, find st name, items)) groups

let groups_in_bounds resolved =
  List.for_all (fun (_, s, items) -> List.for_all (fun (i, _) -> in_bounds s i) items) resolved

let apply_puts st resolved =
  List.iter
    (fun (name, s, items) ->
      List.iter
        (fun (i, c) ->
          st.bytes <- st.bytes - String.length s.blocks.(i) + String.length c;
          s.blocks.(i) <- c;
          Trace.record st.trace
            { Trace.store = name; op = Trace.Write; addr = i; len = String.length c })
        items)
    resolved

(* Writes ([Put], [Multi_put], [Scatter_put]): validated whole before
   anything is mutated, so a batch lands whole or not at all. *)
let scatter_put st groups =
  let resolved = resolve st groups in
  if not (groups_in_bounds resolved) then Wire.Error "index out of bounds"
  else begin
    apply_puts st resolved;
    Wire.Ok
  end

(* The client's deferred writes, then one batched read ([Multi_get] is the
   case with no writes).  Every store and index — put and get part alike
   — is validated before the first mutation or trace event; the writes
   are applied and traced before the reads, the order in which the
   client issued them. *)
let put_get st puts name idxs =
  let resolved = resolve st puts in
  let s = find st name in
  if not (groups_in_bounds resolved && List.for_all (in_bounds s) idxs) then
    Wire.Error "index out of bounds"
  else begin
    apply_puts st resolved;
    Wire.Values
      (List.map
         (fun i ->
           let c = s.blocks.(i) in
           Trace.record st.trace
             { Trace.store = name; op = Trace.Read; addr = i; len = String.length c };
           c)
         idxs)
  end

let handle st = function
  | Wire.Create_store name ->
      if Hashtbl.mem st.stores name then Wire.Error ("store exists: " ^ name)
      else begin
        Hashtbl.replace st.stores name { blocks = Array.make 16 ""; len = 0 };
        Wire.Ok
      end
  | Wire.Drop_store name ->
      (match Hashtbl.find_opt st.stores name with
      | None -> ()
      | Some s ->
          for i = 0 to s.len - 1 do
            st.bytes <- st.bytes - String.length s.blocks.(i)
          done;
          Hashtbl.remove st.stores name);
      Wire.Ok
  | Wire.Ensure (name, n) ->
      ensure (find st name) n;
      Wire.Ok
  | Wire.Get (name, i) ->
      let s = find st name in
      if not (in_bounds s i) then Wire.Error "index out of bounds"
      else begin
        let c = s.blocks.(i) in
        Trace.record st.trace { Trace.store = name; op = Trace.Read; addr = i; len = String.length c };
        Wire.Value c
      end
  | Wire.Put (name, i, c) -> scatter_put st [ (name, [ (i, c) ]) ]
  | Wire.Multi_get (name, idxs) -> put_get st [] name idxs
  | Wire.Multi_put (name, items) -> scatter_put st [ (name, items) ]
  | Wire.Scatter_put groups -> scatter_put st groups
  | Wire.Put_get { puts; store; idxs } -> put_get st puts store idxs
  | Wire.Begin_dynamic _ as req -> (
      match st.dyn with
      | Some _ -> Wire.Error "dynamic session already active"
      | None -> (
          match !dyn_provider with
          | None -> Wire.Error "dynamic sessions unavailable: no engine linked in"
          | Some create -> (
              match create req with
              | Result.Ok (d, resp) ->
                  (* Recorded only on success: the history must replay to
                     exactly this state, and a failed begin leaves none. *)
                  st.dyn <- Some d;
                  st.dyn_history <- req :: st.dyn_history;
                  resp
              | Result.Error msg -> Wire.Error msg)))
  | (Wire.Insert_row _ | Wire.Delete_row _ | Wire.Revalidate) as req -> (
      match st.dyn with
      | None -> Wire.Error "no dynamic session: send Begin_dynamic first"
      | Some d ->
          (* Recorded and counted even when the engine rejects the op
             (arity mismatch, capacity): rejection is deterministic and
             touches no engine state, so replaying it is harmless — and
             necessary, because the serving path journaled the frame. *)
          st.dyn_history <- req :: st.dyn_history;
          (match req with
          | Wire.Insert_row _ -> st.inserts <- st.inserts + 1
          | Wire.Delete_row _ -> st.deletes <- st.deletes + 1
          | _ -> st.revalidates <- st.revalidates + 1);
          d.dyn_dispatch req)
  | Wire.Digest ->
      Wire.Digests
        {
          full = Trace.full_digest st.trace;
          shape = Trace.shape_digest st.trace;
          count = Trace.count st.trace;
        }
  | Wire.Total_bytes -> Wire.Bytes_total st.bytes
  | Wire.Hello _ -> Wire.Ok
  | Wire.Ping -> Wire.Pong
  | Wire.Stats -> basic_stats st
  | Wire.Bye -> Wire.Ok

(* Re-dispatch one journaled request with exactly the accounting the
   daemon's serving path performs.  The codec is canonical, so
   [Wire.request_size]/[response_size] reproduce the on-the-wire byte
   counts, and dispatch is deterministic (errors included) — replaying a
   journal therefore rebuilds trace digests and cost ledgers
   bit-identically to the original run. *)
let replay st req =
  let c = counted req in
  if c then account_request st ~bytes:(Wire.request_size req);
  let resp = try handle st req with Wire.Protocol_error msg -> Wire.Error msg in
  if c then account_response st ~bytes:(Wire.response_size resp)

let export_stores st =
  Hashtbl.fold (fun name s acc -> (name, Array.sub s.blocks 0 s.len) :: acc) st.stores []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
