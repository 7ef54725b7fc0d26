(* Non-recursive PathORAM.  Bucket b (heap order, root = 0) occupies slots
   [b*z .. b*z+z-1] of the block store; every slot always holds a
   ciphertext of the same fixed-width plaintext [flag | key | payload].

   Treetop caching (Stefanov et al. §6.1): with [cache_levels] = k > 0
   the top k levels of the tree — buckets 0 .. 2^k-2, a fixed prefix of
   the store — are held decrypted client-side and act as an extension of
   the stash.  An access then reads and rewrites only the path *suffix*,
   levels k..L, on the uniformly random leaf; the cached prefix is
   refilled client-side with no I/O.  The residual trace (suffix slots of
   a uniform leaf) is still independent of the key and operation, and the
   cached bytes are charged to the client ledger like the stash.  With
   k = 0 the code path, the trace, the IV stream and the ciphertexts are
   bit-identical to the pre-cache implementation. *)

let z = 4

type config = {
  capacity : int;
  key_len : int;
  payload_len : int;
}

type t = {
  cfg : config;
  levels : int; (* L: leaves = 2^L *)
  leaves : int;
  store : Servsim.Block_store.t;
  server : Servsim.Server.t;
  name : string;
  cipher : Crypto.Cell_cipher.t;
  rand_int : int -> int;
  pos : (string, int) Hashtbl.t; (* key -> leaf *)
  stash : (string, string) Hashtbl.t; [@secret] (* key -> payload; decrypted block plaintext *)
  cache_levels : int; (* effective k: top k levels held client-side; 0 = off *)
  topcache : (string * string) option array; [@secret]
      (* (2^k - 1) * z slots, indexed like the store prefix: decrypted
         (key, payload) residents of the cached buckets *)
  pbuf : Bytes.t; [@secret]
      (* reused plaintext path buffer, (L+1)*z blocks wide: fetch decrypts
         into it, evict encodes into it — no per-block plaintext copies *)
  mutable max_stash : int;
  mutable overflows : int;
  mutable accesses : int;
}

let ceil_log2 n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let block_pt_len cfg = 1 + cfg.key_len + cfg.payload_len

(* Path-buffer slot width: [decrypt_to] needs room for the padded CBC
   body, which is also plenty for encoding the plaintext on the way out. *)
let slot_stride cfg = (block_pt_len cfg / 16 * 16) + 16

(* Bucket index at level [lev] (root = level 0) on the path to [leaf]. *)
let node_at t ~leaf ~lev = (1 lsl lev) - 1 + (leaf lsr (t.levels - lev))

let stash_limit t = 7 * max 1 (ceil_log2 t.cfg.capacity)

let client_state_bytes t =
  let pos_bytes = Hashtbl.length t.pos * (t.cfg.key_len + 8) in
  let stash_bytes = Hashtbl.length t.stash * (t.cfg.key_len + t.cfg.payload_len) in
  (* The treetop cache is charged at capacity: every cached slot may hold
     a decrypted block, and the array itself is resident either way. *)
  let cache_bytes = Array.length t.topcache * (t.cfg.key_len + t.cfg.payload_len) in
  pos_bytes + stash_bytes + cache_bytes

let sync_client_cost t =
  Servsim.Cost.client_set (Servsim.Server.cost t.server) ~tag:t.name (client_state_bytes t)

let setup ~name ?(cache_levels = 0) cfg server cipher rand_int =
  if cfg.capacity < 1 then invalid_arg "Path_oram.setup: capacity must be >= 1";
  if cache_levels < 0 then invalid_arg "Path_oram.setup: cache_levels must be >= 0";
  let levels = max 1 (ceil_log2 cfg.capacity) in
  let leaves = 1 lsl levels in
  let buckets = (2 * leaves) - 1 in
  let store = Servsim.Server.create_store server name in
  Servsim.Block_store.ensure store (buckets * z);
  let dummy = String.make (block_pt_len cfg) '\000' in
  let cts = Crypto.Cell_cipher.encrypt_many cipher (List.init (buckets * z) (fun _ -> dummy)) in
  Servsim.Block_store.write_many store (List.mapi (fun slot ct -> (slot, ct)) cts);
  (* Clamp so the leaf level always stays on the server: every access
     keeps a non-empty, uniformly distributed server-visible suffix. *)
  let cache_levels = min cache_levels levels in
  let t =
    {
      cfg;
      levels;
      leaves;
      store;
      server;
      name;
      cipher;
      rand_int;
      pos = Hashtbl.create (2 * cfg.capacity);
      stash = Hashtbl.create 64;
      cache_levels;
      topcache = Array.make (((1 lsl cache_levels) - 1) * z) None;
      pbuf = Bytes.create ((levels + 1) * z * slot_stride cfg);
      max_stash = 0;
      overflows = 0;
      accesses = 0;
    }
  in
  if cache_levels > 0 then sync_client_cost t;
  t

(* Slots of the path suffix (levels [cache_levels]..L) to [leaf], root to
   leaf — with the cache off this is the whole path in the order the
   per-slot loop used to visit it, so the trace shape is unchanged. *)
let path_slots t leaf =
  List.concat_map
    (fun i ->
      let lev = t.cache_levels + i in
      let bucket = node_at t ~leaf ~lev in
      List.init z (fun s -> (bucket * z) + s))
    (List.init (t.levels + 1 - t.cache_levels) Fun.id)

(* Read the path to [leaf] into the stash.  Cached levels move their
   residents into the stash with no I/O; the suffix is one batched read
   (a single frame, carrying the previous write-back) decrypted into the
   reused path buffer — per-block work allocates only for live blocks
   entering the stash, never for dummies. *)
let fetch_path t leaf =
  for lev = 0 to t.cache_levels - 1 do
    let bucket = node_at t ~leaf ~lev in
    for s = 0 to z - 1 do
      let j = (bucket * z) + s in
      (match
         (t.topcache.(j)
         [@lint.declassify
           "client-local treetop cache refill: every resident of the cached path \
            buckets moves to the stash; no server I/O is involved"])
       with
      | None -> ()
      | Some (key, payload) -> Hashtbl.replace t.stash key payload);
      t.topcache.(j) <- None
    done
  done;
  let pt_len = block_pt_len t.cfg in
  let stride = slot_stride t.cfg in
  List.iteri
    (fun j ct ->
      let off = j * stride in
      if
        Crypto.Cell_cipher.decrypt_to t.cipher ct
          (t.pbuf
          [@lint.declassify
            "client-local CBC unpadding branches on decrypted plaintext inside the \
             trusted client; the server-visible trace is the fixed path-slot schedule"])
          off
        <> pt_len
      then invalid_arg "Path_oram: corrupt block";
      if
        ((Bytes.get t.pbuf off = '\001')
        [@lint.declassify
          "client-local stash refill: every block of the fetched path is decoded; \
           the trace is the fixed path-slot schedule"])
      then begin
        let key = Bytes.sub_string t.pbuf (off + 1) t.cfg.key_len in
        let payload = Bytes.sub_string t.pbuf (off + 1 + t.cfg.key_len) t.cfg.payload_len in
        Hashtbl.replace t.stash key payload
      end)
    (Servsim.Block_store.read_many t.store (path_slots t leaf))

(* Greedy eviction along the path to [leaf]: deepest buckets first.
   Suffix blocks are encoded into the path buffer and encrypted out of it
   (one ciphertext allocation per block, nothing else), then written as
   one batch in the same leaf-to-root slot order — and the same IV
   stream — the per-slot loop used; the batch waits in the write outbox
   and rides with the next frame.  Cached levels are refilled
   client-side with no I/O. *)
let evict_path t leaf =
  let pt_len = block_pt_len t.cfg in
  let stride = slot_stride t.cfg in
  let k = t.cache_levels in
  let nsuffix = (t.levels + 1 - k) * z in
  let slots = Array.make nsuffix 0 in
  let idx = ref 0 in
  for lev = t.levels downto 0 do
    let bucket = node_at t ~leaf ~lev in
    (* Stash blocks whose assigned leaf passes through [bucket]. *)
    let chosen = ref [] in
    let count = ref 0 in
    (try
       Hashtbl.iter
         (fun key payload ->
           if !count >= z then raise Exit;
           match
             (Hashtbl.find_opt t.pos key
             [@lint.declassify
               "greedy eviction fills the fetched path's fixed Z slots per bucket; the written \
                slot set is the whole path regardless of which stash blocks are chosen"])
           with
           | Some l when node_at t ~leaf:l ~lev = bucket ->
               chosen := (key, payload) :: !chosen;
               incr count
           | Some _ | None -> ())
         t.stash
     with Exit -> ());
    List.iter (fun (key, _) -> Hashtbl.remove t.stash key) !chosen;
    let blocks = Array.make z None in
    List.iteri (fun i kp -> blocks.(i) <- Some kp) !chosen;
    if lev >= k then
      for s = 0 to z - 1 do
        let off = !idx * stride in
        Bytes.fill t.pbuf off pt_len '\000';
        (match
           (blocks.(s)
           [@lint.declassify
             "eviction writes all Z slots of every path bucket: dummy vs resident \
              only changes the encrypted plaintext, never the slot schedule"])
         with
        | None -> ()
        | Some (key, payload) ->
            Bytes.set t.pbuf off '\001';
            Bytes.blit_string key 0 t.pbuf (off + 1) t.cfg.key_len;
            Bytes.blit_string payload 0 t.pbuf (off + 1 + t.cfg.key_len) t.cfg.payload_len);
        slots.(!idx) <- (bucket * z) + s;
        incr idx
      done
    else
      for s = 0 to z - 1 do
        t.topcache.((bucket * z) + s) <- blocks.(s)
      done
  done;
  (* Encrypt in append (leaf-to-root) order — the order the per-slot loop
     used, so the IV stream and the trace are both unchanged with the
     cache off; the whole suffix is one batch. *)
  let ct_len = Crypto.Cell_cipher.ciphertext_len ~plaintext_len:pt_len in
  Servsim.Block_store.write_many t.store
    (List.init nsuffix (fun j ->
         let ct = Bytes.create ct_len in
         let _ = Crypto.Cell_cipher.encrypt_from t.cipher t.pbuf ~off:(j * stride) ~len:pt_len ct 0 in
         (* [ct] is freshly allocated and never written again: freezing it
            avoids one copy per block. *)
         (slots.(j), (Bytes.unsafe_to_string ct [@lint.allow "R2:bytes-unsafe"]))))

let finish_access t =
  let occupancy = Hashtbl.length t.stash in
  if occupancy > t.max_stash then t.max_stash <- occupancy;
  if occupancy > stash_limit t then t.overflows <- t.overflows + 1;
  t.accesses <- t.accesses + 1;
  (* Round trips are counted by the block store: the fetch carries the
     previous access's write-back and the evict opens a new frame — one
     wire frame per access in steady state. *)
  sync_client_cost t

let access t ~key update =
  if String.length key <> t.cfg.key_len then
    invalid_arg
      (Printf.sprintf "Path_oram.access: key length %d, expected %d (store %s)"
         (String.length key) t.cfg.key_len t.name);
  let leaf =
    match Hashtbl.find_opt t.pos key with
    | Some l -> l
    | None -> t.rand_int t.leaves
  in
  fetch_path t leaf;
  let old =
    (Hashtbl.find_opt t.stash key
    [@lint.declassify
      "client-local stash hit check; the surrounding fetch/evict trace is one full\
        path either way"])
  in
  (match update old with
  | Some v ->
      if String.length v <> t.cfg.payload_len then
        invalid_arg
          (Printf.sprintf "Path_oram.access: payload length %d, expected %d (store %s)"
             (String.length v) t.cfg.payload_len t.name);
      Hashtbl.replace t.stash key v;
      Hashtbl.replace t.pos key (t.rand_int t.leaves)
  | None ->
      Hashtbl.remove t.stash key;
      Hashtbl.remove t.pos key);
  evict_path t leaf;
  finish_access t;
  old

let dummy_access t =
  let leaf = t.rand_int t.leaves in
  fetch_path t leaf;
  evict_path t leaf;
  finish_access t

(* Write the cached buckets back through the normal encrypted write path
   (joining the outbox), then send the outbox, so the server-side tree is
   a complete checkpoint of the ORAM state (modulo the stash, which
   persists client-side like the position map).  The cache stays
   authoritative — subsequent accesses keep serving the treetop
   client-side.  With the cache off only the pending write-back is sent:
   the trace and digests are untouched. *)
let flush t =
  let n = Array.length t.topcache in
  if n > 0 then begin
    let pt_len = block_pt_len t.cfg in
    let ct_len = Crypto.Cell_cipher.ciphertext_len ~plaintext_len:pt_len in
    Servsim.Block_store.write_many t.store
      (List.init n (fun j ->
           Bytes.fill t.pbuf 0 pt_len '\000';
           (match
              (t.topcache.(j)
              [@lint.declassify
                "flush writes every cached slot, resident or dummy: the written slot \
                 set is the fixed cache prefix regardless of contents"])
            with
           | None -> ()
           | Some (key, payload) ->
               Bytes.set t.pbuf 0 '\001';
               Bytes.blit_string key 0 t.pbuf 1 t.cfg.key_len;
               Bytes.blit_string payload 0 t.pbuf (1 + t.cfg.key_len) t.cfg.payload_len);
           let ct = Bytes.create ct_len in
           let _ = Crypto.Cell_cipher.encrypt_from t.cipher t.pbuf ~off:0 ~len:pt_len ct 0 in
           (j, (Bytes.unsafe_to_string ct [@lint.allow "R2:bytes-unsafe"]))))
  end;
  Servsim.Server.flush t.server

let read t ~key = access t ~key (fun old -> old)
let write t ~key v = ignore (access t ~key (fun _ -> Some v))
let remove t ~key = ignore (access t ~key (fun _ -> None))

let live_blocks t = Hashtbl.length t.pos
let levels t = t.levels
let cache_levels t = t.cache_levels
let max_stash_seen t = t.max_stash
let stash_overflows t = t.overflows
let access_count t = t.accesses

let destroy t =
  Servsim.Server.drop_store t.server t.name;
  Servsim.Cost.client_set (Servsim.Server.cost t.server) ~tag:t.name 0
