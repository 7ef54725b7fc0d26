type storage =
  | Local_mem of { mutable blocks : string array }
  | Remote_conn of { conn : Remote.t; mutable lengths : int array }
      (* [lengths] shadows the remote block sizes so the byte ledger can
         be maintained without extra round trips. *)

(* The write outbox as the cost ledger sees it, shared by every store of
   one server.  Writes are never sent on their own: remotely they queue
   in the connection's outbox ({!Remote.queue_put}) until the next read
   carries them ([Put_get]) or another request sends them first.  A
   frame is paid by the operation that opens it — the write into an
   empty outbox — so in-process runs keep a flag mirroring "a paid frame
   is still open" and the two modes' ledgers agree op for op. *)
type outbox = { conn : Remote.t option; mutable open_frame : bool }

type t = {
  name : string;
  tname : Trace.name; (* interned once; the recorder folds it per event *)
  trace : Trace.t;
  cost : Cost.t;
  on_resize : int -> unit; (* notify owner of byte-count delta *)
  outbox : outbox;
  storage : storage;
  mutable len : int;
  mutable bytes : int;
}

let name t = t.name
let length t = t.len
let size_bytes t = t.bytes

let outbox ?remote () = { conn = remote; open_frame = false }

let pending o = match o.conn with Some conn -> Remote.pending conn | None -> o.open_frame

let flush o = match o.conn with Some conn -> Remote.flush conn | None -> o.open_frame <- false

(* Any request other than a block read or write: the remote [call] sends
   the outbox ahead of it, which closes the open frame.  The in-process
   flag follows only while the trace is on, like the rest of the ledger
   (multi-domain sections must not share-write it). *)
let request o ~traced req =
  match o.conn with
  | Some conn -> ignore (Remote.call conn req)
  | None -> if traced then o.open_frame <- false

let create ~name ~trace ~on_resize ~outbox cost =
  let storage =
    match outbox.conn with
    | Some conn -> Remote_conn { conn; lengths = Array.make 16 0 }
    | None -> Local_mem { blocks = Array.make 16 "" }
  in
  { name; tname = Trace.name name; trace; cost; on_resize; outbox; storage; len = 0; bytes = 0 }

let grow_pow2 cur n =
  let cap = ref (max 16 cur) in
  while !cap < n do
    cap := !cap * 2
  done;
  !cap

let ensure t n =
  (match t.storage with
  | Local_mem s ->
      if n > Array.length s.blocks then begin
        let blocks = Array.make (grow_pow2 (Array.length s.blocks) n) "" in
        Array.blit s.blocks 0 blocks 0 t.len;
        s.blocks <- blocks
      end
  | Remote_conn r ->
      if n > Array.length r.lengths then begin
        let lengths = Array.make (grow_pow2 (Array.length r.lengths) n) 0 in
        Array.blit r.lengths 0 lengths 0 t.len;
        r.lengths <- lengths
      end);
  if n > t.len then begin
    let traced = Trace.enabled t.trace in
    request t.outbox ~traced (Wire.Ensure (t.name, n));
    t.len <- n;
    (* Growing is one wire frame in remote mode; charge the same in the
       local sim so both ledgers agree. *)
    if traced then Cost.round_trip t.cost
  end

let check_bounds t i fname =
  if i < 0 || i >= t.len then
    invalid_arg
      (Printf.sprintf "Block_store.%s: index %d out of bounds (store %s, len %d)" fname i
         t.name t.len)

(* Store size is state, not cost: the byte ledger must stay accurate even
   while the trace (and with it cost accounting) is suspended, or
   [size_bytes]/[Server.total_bytes] go stale across multi-domain
   sections.  The [delta <> 0] guard keeps the parallel sort workers —
   whose exchanges rewrite fixed-width cells, so delta is always 0 — from
   contending on the owner's shared counter. *)
let resize t delta =
  if delta <> 0 then begin
    t.bytes <- t.bytes + delta;
    t.on_resize delta
  end

(* When the trace is disabled (multi-domain sections), cost accounting is
   suspended too: the shared counters would otherwise bounce between the
   domains' caches and serialise the workers.

   A read pays one round trip unless it carries an open write frame,
   which its opener already paid for. *)
let read_block_op t fname idxs fetch =
  List.iter (fun i -> check_bounds t i fname) idxs;
  let traced = Trace.enabled t.trace in
  let carried = pending t.outbox in
  let cs =
    match t.storage with
    | Local_mem s ->
        if traced then t.outbox.open_frame <- false;
        List.map (fun i -> s.blocks.(i)) idxs
    | Remote_conn r -> fetch r.conn
  in
  if traced then begin
    List.iter2
      (fun i c ->
        Trace.record_name t.trace t.tname Trace.Read ~addr:i ~len:(String.length c);
        Cost.sent_to_client t.cost (String.length c))
      idxs cs;
    if not carried then Cost.round_trip t.cost
  end;
  cs

let read t i =
  List.hd (read_block_op t "read" [ i ] (fun conn -> [ Remote.get conn ~store:t.name i ]))

(* Batched read: the trace still records one event per block (same order
   as the equivalent loop of singles, so obliviousness digests are
   unchanged), but the whole batch is one wire frame. *)
let read_many t idxs =
  if idxs = [] then []
  else read_block_op t "read_many" idxs (fun conn -> Remote.multi_get conn ~store:t.name idxs)

(* Every write — single or batch — lands in the outbox: applied
   (in-process) or mirrored (remote) now, traced now, one event per block
   in item order, and sent with the next frame.  It pays one round trip
   only when it opens the outbox, which all stores of one server share.
   The batch is bounds-checked whole before anything is mutated,
   mirroring the server-side handler. *)
let write_batch fname t items =
  if items <> [] then begin
    List.iter (fun (i, _) -> check_bounds t i fname) items;
    let traced = Trace.enabled t.trace in
    let opens = not (pending t.outbox) in
    (match t.outbox.conn with
    | Some conn -> Remote.queue_put conn ~store:t.name items
    | None -> if traced then t.outbox.open_frame <- true);
    List.iter
      (fun (i, c) ->
        let old =
          match t.storage with
          | Local_mem s ->
              let old = String.length s.blocks.(i) in
              s.blocks.(i) <- c;
              old
          | Remote_conn r ->
              let old = r.lengths.(i) in
              r.lengths.(i) <- String.length c;
              old
        in
        resize t (String.length c - old);
        if traced then begin
          Trace.record_name t.trace t.tname Trace.Write ~addr:i ~len:(String.length c);
          Cost.sent_to_server t.cost (String.length c)
        end)
      items;
    if traced && opens then Cost.round_trip t.cost
  end

let write t i c = write_batch "write" t [ (i, c) ]
let write_many t items = write_batch "write_many" t items
