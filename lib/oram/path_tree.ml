(* Bucket b (heap order, root = 0) occupies slots [b*z .. b*z+z-1] of
   the block store.  With [cache_levels] = k > 0, buckets 0 .. 2^k-2 (a
   fixed prefix of the store) live decrypted in [topcache], indexed like
   the store, and act as an extension of the stash. *)

let z = 4

type ('k, 'v) codec = {
  body_len : int;
  read_key : Bytes.t -> int -> 'k;
  read_value : Bytes.t -> int -> 'v;
  write_block : Bytes.t -> int -> 'k -> 'v -> unit;
  leaf_of : 'k -> 'v -> int;
}

type ('k, 'v) t = {
  codec : ('k, 'v) codec;
  name : string;
  server : Servsim.Server.t;
  store : Servsim.Block_store.t;
  cipher : Crypto.Cell_cipher.t;
  levels : int; (* L: leaves = 2^L *)
  pt_len : int; (* 1 + body_len *)
  stride : int;
      (* path-buffer slot width: [decrypt_to] needs room for the padded
         CBC body, which is also plenty for encoding on the way out *)
  stash : ('k, 'v) Hashtbl.t; [@secret] (* decrypted block plaintext *)
  cache_levels : int; (* effective k: top k levels held client-side; 0 = off *)
  topcache : ('k * 'v) option array; [@secret]
      (* (2^k - 1) * z slots, indexed like the store prefix: decrypted
         residents of the cached buckets *)
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

(* Bucket index at level [lev] (root = level 0) on the path to [leaf]. *)
let node_at t ~leaf ~lev = (1 lsl lev) - 1 + (leaf lsr (t.levels - lev))

let create ~name ~capacity ~cache_levels ~stash_size codec server cipher =
  let levels = max 1 (ceil_log2 capacity) in
  let buckets = (2 lsl levels) - 1 in
  let store = Servsim.Server.create_store server name in
  Servsim.Block_store.ensure store (buckets * z);
  let pt_len = 1 + codec.body_len in
  let dummy = String.make pt_len '\000' in
  let cts = Crypto.Cell_cipher.encrypt_many cipher (List.init (buckets * z) (fun _ -> dummy)) in
  Servsim.Block_store.write_many store (List.mapi (fun slot ct -> (slot, ct)) cts);
  (* Clamp so the leaf level always stays on the server: every access
     keeps a non-empty, uniformly distributed server-visible suffix. *)
  let cache_levels = min cache_levels levels in
  let stride = (pt_len / 16 * 16) + 16 in
  {
    codec;
    name;
    server;
    store;
    cipher;
    levels;
    pt_len;
    stride;
    stash = Hashtbl.create stash_size;
    cache_levels;
    topcache = Array.make (((1 lsl cache_levels) - 1) * z) None;
    pbuf = Bytes.create ((levels + 1) * z * stride);
    max_stash = 0;
    overflows = 0;
    accesses = 0;
  }

(* Slots of the path suffix (levels [cache_levels]..L) to [leaf], root to
   leaf — with the cache off this is the whole path. *)
let path_slots t leaf =
  List.concat_map
    (fun i ->
      let lev = t.cache_levels + i in
      let bucket = node_at t ~leaf ~lev in
      List.init z (fun s -> (bucket * z) + s))
    (List.init (t.levels + 1 - t.cache_levels) Fun.id)

(* Cached levels move their residents into the stash with no I/O; the
   suffix is one batched read decrypted into the reused path buffer —
   per-block work allocates only for live blocks entering the stash,
   never for dummies. *)
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
      | Some (key, v) -> Hashtbl.replace t.stash key v);
      t.topcache.(j) <- None
    done
  done;
  List.iteri
    (fun j ct ->
      let off = j * t.stride in
      if
        Crypto.Cell_cipher.decrypt_to t.cipher ct
          (t.pbuf
          [@lint.declassify
            "client-local CBC unpadding branches on decrypted plaintext inside the \
             trusted client; the server-visible trace is the fixed path-slot schedule"])
          off
        <> t.pt_len
      then invalid_arg (Printf.sprintf "Path ORAM: corrupt block (store %s)" t.name);
      if
        ((Bytes.get t.pbuf off = '\001')
        [@lint.declassify
          "client-local stash refill: every block of the fetched path is decoded; \
           the trace is the fixed path-slot schedule"])
      then
        Hashtbl.replace t.stash
          (t.codec.read_key t.pbuf (off + 1))
          (t.codec.read_value t.pbuf (off + 1)))
    (Servsim.Block_store.read_many t.store (path_slots t leaf))

(* Encode one slot of the path buffer: a resident, or an all-zero dummy. *)
let encode_slot t off block =
  Bytes.fill t.pbuf off t.pt_len '\000';
  match
    (block
    [@lint.declassify
      "every written slot is encoded, resident or dummy: the choice only changes \
       the encrypted plaintext, never the slot schedule"])
  with
  | None -> ()
  | Some (key, v) ->
      Bytes.set t.pbuf off '\001';
      t.codec.write_block t.pbuf (off + 1) key v

let encrypt_slot t off =
  let ct = Bytes.create (Crypto.Cell_cipher.ciphertext_len ~plaintext_len:t.pt_len) in
  let _ = Crypto.Cell_cipher.encrypt_from t.cipher t.pbuf ~off ~len:t.pt_len ct 0 in
  (* [ct] is freshly allocated and never written again: freezing it
     avoids one copy per block. *)
  (Bytes.unsafe_to_string ct [@lint.allow "R2:bytes-unsafe"])

(* Greedy eviction along the path to [leaf]: deepest buckets first.
   Suffix blocks are encoded into the path buffer and encrypted out of it
   in leaf-to-root slot order, then written as one batch that waits in
   the write outbox and rides with the next frame.  Cached levels are
   refilled client-side with no I/O. *)
let evict_path t leaf =
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
         (fun key v ->
           if !count >= z then raise Exit;
           if
             ((node_at t ~leaf:(t.codec.leaf_of key v) ~lev = bucket)
             [@lint.declassify
               "greedy eviction fills the fetched path's fixed Z slots per bucket; the \
                written slot set is the whole path regardless of which stash blocks are \
                chosen"])
           then begin
             chosen := (key, v) :: !chosen;
             incr count
           end)
         t.stash
     with Exit -> ());
    List.iter (fun (key, _) -> Hashtbl.remove t.stash key) !chosen;
    let blocks = Array.make z None in
    List.iteri (fun i kv -> blocks.(i) <- Some kv) !chosen;
    if lev >= k then
      for s = 0 to z - 1 do
        encode_slot t (!idx * t.stride) blocks.(s);
        slots.(!idx) <- (bucket * z) + s;
        incr idx
      done
    else
      for s = 0 to z - 1 do
        t.topcache.((bucket * z) + s) <- blocks.(s)
      done
  done;
  (* Encrypt in append (leaf-to-root) order, so the IV stream and the
     trace are those of the uncached tree when the cache is off. *)
  Servsim.Block_store.write_many t.store
    (List.init nsuffix (fun j -> (slots.(j), encrypt_slot t (j * t.stride))));
  let occupancy = Hashtbl.length t.stash in
  if occupancy > t.max_stash then t.max_stash <- occupancy;
  if occupancy > 7 * t.levels then t.overflows <- t.overflows + 1;
  t.accesses <- t.accesses + 1

let access t leaf key f =
  fetch_path t leaf;
  let old =
    (Hashtbl.find_opt t.stash key
    [@lint.declassify
      "client-local stash hit check; the surrounding fetch/evict trace is one full \
       path either way"])
  in
  (match f old with
  | Some v -> Hashtbl.replace t.stash key v
  | None -> Hashtbl.remove t.stash key);
  evict_path t leaf;
  old

let dummy_access t leaf =
  fetch_path t leaf;
  evict_path t leaf

let flush_cache t =
  Servsim.Block_store.write_many t.store
    (List.init (Array.length t.topcache) (fun j ->
         encode_slot t 0 t.topcache.(j);
         (j, encrypt_slot t 0)))

let levels t = t.levels
let leaves t = 1 lsl t.levels
let cache_levels t = t.cache_levels

(* The treetop cache is charged at capacity: every cached slot may hold a
   decrypted block, and the array itself is resident either way. *)
let client_bytes t = (Hashtbl.length t.stash + Array.length t.topcache) * t.codec.body_len

let max_stash_seen t = t.max_stash
let stash_limit t = 7 * t.levels
let stash_overflows t = t.overflows
let access_count t = t.accesses
let destroy t = Servsim.Server.drop_store t.server t.name
