(* Recursive PathORAM.  Tree 0 holds the data blocks; tree i >= 1 holds
   the position map of tree i-1, [fanout] positions per block; the top
   map (positions of the last tree) is a small client-side array.

   Block plaintext layout (uniform within a tree):
     flag (1) | id (8) | leaf (8) | payload (payload_len)
   The assigned leaf rides inside the block so eviction can place stash
   residents without consulting the maps.

   Treetop caching: with [cache_levels] = k > 0 every tree (data and map
   trees alike) keeps its top min(k, levels) levels decrypted
   client-side; an access reads only the path suffix of each tree, and
   all trees' suffix evictions are deferred into one cross-store batch
   at the end of the access, which the server's write outbox sends with
   the next frame.  The fetches stay
   one frame per tree: the leaf of tree i-1 is stored inside tree i's
   blocks, so the reads form a data-dependent chain that cannot be
   batched without a different construction.  With k = 0 the code path,
   trace, IV stream and ciphertexts are bit-identical to the pre-cache
   implementation. *)

let z = 4

type config = {
  capacity : int;
  payload_len : int;
  fanout : int;
  top_cutoff : int;
}

type tree = {
  store : Servsim.Block_store.t;
  name : string;
  levels : int;
  leaves : int;
  payload_len : int; (* payload bytes for this tree's blocks *)
  stash : (int, int * Bytes.t) Hashtbl.t; [@secret] (* id -> (leaf, payload) plaintext *)
  cache_levels : int; (* effective k for this tree: min(requested, levels) *)
  topcache : (int * int * Bytes.t) option array; [@secret]
      (* (2^k - 1) * z slots: decrypted (id, leaf, payload) residents of
         the cached buckets *)
  pbuf : Bytes.t; [@secret] (* reused plaintext path buffer *)
}

type t = {
  cfg : config;
  server : Servsim.Server.t;
  cipher : Crypto.Cell_cipher.t;
  rand_int : int -> int;
  trees : tree array; (* trees.(0) = data; trees.(i) = map of tree i-1 *)
  top : int array; (* positions of the last tree's blocks *)
  session_name : string;
  defer : bool; (* cache on: defer evictions into one Scatter_put per access *)
  mutable pending : (Servsim.Block_store.t * (int * string) list) list;
      (* deferred suffix evictions of the in-flight access, newest first *)
  mutable live : int;
}

let invalid_pos = -1

let ceil_log2 n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let block_pt_len tree = 1 + 8 + 8 + tree.payload_len
let slot_stride tree = (block_pt_len tree / 16 * 16) + 16

let node_at tree ~leaf ~lev = (1 lsl lev) - 1 + (leaf lsr (tree.levels - lev))

let make_tree server cipher ~name ~capacity ~payload_len ~cache_levels =
  let levels = max 1 (ceil_log2 capacity) in
  let leaves = 1 lsl levels in
  let buckets = (2 * leaves) - 1 in
  let store = Servsim.Server.create_store server name in
  Servsim.Block_store.ensure store (buckets * z);
  (* Clamp per tree so the leaf level always stays on the server. *)
  let cache_levels = min cache_levels levels in
  let tree =
    {
      store;
      name;
      levels;
      leaves;
      payload_len;
      stash = Hashtbl.create 32;
      cache_levels;
      topcache = Array.make (((1 lsl cache_levels) - 1) * z) None;
      pbuf = Bytes.create ((levels + 1) * z * (((1 + 8 + 8 + payload_len) / 16 * 16) + 16));
    }
  in
  let dummy = String.make (block_pt_len tree) '\000' in
  let cts = Crypto.Cell_cipher.encrypt_many cipher (List.init (buckets * z) (fun _ -> dummy)) in
  Servsim.Block_store.write_many store (List.mapi (fun slot ct -> (slot, ct)) cts);
  tree

let client_state_bytes t =
  let per_tree =
    Array.fold_left
      (fun acc tree ->
        acc
        + (Hashtbl.length tree.stash * (16 + tree.payload_len))
        (* treetop cache charged at capacity, like the path ORAM's *)
        + (Array.length tree.topcache * (16 + tree.payload_len)))
      0 t.trees
  in
  (Array.length t.top * 8) + per_tree

let sync_client_cost t =
  Servsim.Cost.client_set (Servsim.Server.cost t.server) ~tag:t.session_name
    (client_state_bytes t)

let setup ~name ?(cache_levels = 0) cfg server cipher rand_int =
  if cfg.capacity < 1 then invalid_arg "Recursive_path_oram.setup: capacity must be >= 1";
  if cfg.fanout < 2 then invalid_arg "Recursive_path_oram.setup: fanout must be >= 2";
  if cache_levels < 0 then invalid_arg "Recursive_path_oram.setup: cache_levels must be >= 0";
  (* Sizes of the recursion levels: n, ceil(n/f), ceil(n/f^2), ... *)
  let sizes = ref [ cfg.capacity ] in
  while List.hd !sizes > cfg.top_cutoff do
    sizes := ((List.hd !sizes + cfg.fanout - 1) / cfg.fanout) :: !sizes
  done;
  let sizes = Array.of_list (List.rev !sizes) in
  (* sizes.(0) = capacity = data tree; sizes.(i) = block count of map tree
     i (which packs the positions of tree i-1).  A tree exists for every
     entry; the client's top map holds the positions of the last tree —
     sizes.(last) entries, <= top_cutoff by construction. *)
  let ntrees = Array.length sizes in
  let trees =
    Array.init ntrees (fun i ->
        let payload_len = if i = 0 then cfg.payload_len else cfg.fanout * 8 in
        make_tree server cipher
          ~name:(Printf.sprintf "%s-t%d" name i)
          ~capacity:sizes.(i) ~payload_len ~cache_levels)
  in
  let top_size = sizes.(ntrees - 1) in
  let t =
    {
      cfg;
      server;
      cipher;
      rand_int;
      trees;
      top = Array.make top_size invalid_pos;
      session_name = name;
      defer = cache_levels > 0;
      pending = [];
      live = 0;
    }
  in
  if cache_levels > 0 then sync_client_cost t;
  t

(* Slots of the path suffix (levels [tree.cache_levels]..L) to [leaf],
   root to leaf — the whole path, in the per-slot loop order, with the
   cache off. *)
let path_slots tree leaf =
  List.concat_map
    (fun i ->
      let lev = tree.cache_levels + i in
      let bucket = node_at tree ~leaf ~lev in
      List.init z (fun s -> (bucket * z) + s))
    (List.init (tree.levels + 1 - tree.cache_levels) Fun.id)

(* One frame per path fetch (a single Multi_get, or Put_get carrying the
   write outbox),
   decrypted into the tree's reused path buffer; cached levels move
   their residents to the stash with no I/O. *)
let fetch_path t tree leaf =
  for lev = 0 to tree.cache_levels - 1 do
    let bucket = node_at tree ~leaf ~lev in
    for s = 0 to z - 1 do
      let j = (bucket * z) + s in
      (match
         (tree.topcache.(j)
         [@lint.declassify
           "client-local treetop cache refill: every resident of the cached path \
            buckets moves to the stash; no server I/O is involved"])
       with
      | None -> ()
      | Some (id, l, payload) -> Hashtbl.replace tree.stash id (l, payload));
      tree.topcache.(j) <- None
    done
  done;
  let pt_len = block_pt_len tree in
  let stride = slot_stride tree in
  List.iteri
    (fun j ct ->
      let off = j * stride in
      if
        Crypto.Cell_cipher.decrypt_to t.cipher ct
          (tree.pbuf
          [@lint.declassify
            "client-local CBC unpadding branches on decrypted plaintext inside the \
             trusted client; the server-visible trace is the fixed path-slot schedule"])
          off
        <> pt_len
      then invalid_arg "Recursive_path_oram: corrupt block";
      if
        ((Bytes.get tree.pbuf off = '\001')
        [@lint.declassify
          "client-local stash refill: every block of the fetched path is decoded; \
           the trace is the fixed path-slot schedule"])
      then begin
        let id = Int64.to_int (Relation.Codec.get_int64_bytes tree.pbuf (off + 1)) in
        let l = Int64.to_int (Relation.Codec.get_int64_bytes tree.pbuf (off + 9)) in
        let payload = Bytes.sub tree.pbuf (off + 17) tree.payload_len in
        Hashtbl.replace tree.stash id (l, payload)
      end)
    (Servsim.Block_store.read_many tree.store (path_slots tree leaf))

(* Greedy eviction along the path to [leaf], deepest buckets first:
   suffix blocks are encoded into the path buffer and encrypted out of it
   in the same leaf-to-root slot order — and the same IV stream — the
   per-slot loop used; cached levels are refilled client-side.  Returns
   the suffix (slot, ciphertext) writes instead of performing them, so
   the caller can either write them at once (cache off: one batch per
   tree, the historical trace order) or defer the whole access into a
   single cross-store batch. *)
let evict_collect t tree leaf =
  let pt_len = block_pt_len tree in
  let stride = slot_stride tree in
  let k = tree.cache_levels in
  let nsuffix = (tree.levels + 1 - k) * z in
  let slots = Array.make nsuffix 0 in
  let idx = ref 0 in
  for lev = tree.levels downto 0 do
    let bucket = node_at tree ~leaf ~lev in
    let chosen = ref [] in
    let count = ref 0 in
    (try
       Hashtbl.iter
         (fun id (l, payload) ->
           if !count >= z then raise Exit;
           if
             ((node_at tree ~leaf:l ~lev = bucket)
             [@lint.declassify
               "greedy eviction fills the fetched path's fixed Z slots per bucket; the \
                written slot set is the whole path regardless of the choice"])
           then begin
             chosen := (id, l, payload) :: !chosen;
             incr count
           end)
         tree.stash
     with Exit -> ());
    List.iter (fun (id, _, _) -> Hashtbl.remove tree.stash id) !chosen;
    let blocks = Array.make z None in
    List.iteri (fun i b -> blocks.(i) <- Some b) !chosen;
    if lev >= k then
      for s = 0 to z - 1 do
        let off = !idx * stride in
        Bytes.fill tree.pbuf off pt_len '\000';
        (match
           (blocks.(s)
           [@lint.declassify
             "eviction writes all Z slots of every path bucket: dummy vs resident \
              only changes the encrypted plaintext, never the slot schedule"])
         with
        | None -> ()
        | Some (id, l, payload) ->
            Bytes.set tree.pbuf off '\001';
            Relation.Codec.put_int64 tree.pbuf (off + 1) (Int64.of_int id);
            Relation.Codec.put_int64 tree.pbuf (off + 9) (Int64.of_int l);
            Bytes.blit payload 0 tree.pbuf (off + 17) tree.payload_len);
        slots.(!idx) <- (bucket * z) + s;
        incr idx
      done
    else
      for s = 0 to z - 1 do
        tree.topcache.((bucket * z) + s) <- blocks.(s)
      done
  done;
  let ct_len = Crypto.Cell_cipher.ciphertext_len ~plaintext_len:pt_len in
  List.init nsuffix (fun j ->
      let ct = Bytes.create ct_len in
      let _ = Crypto.Cell_cipher.encrypt_from t.cipher tree.pbuf ~off:(j * stride) ~len:pt_len ct 0 in
      (* [ct] is freshly allocated and never written again: freezing it
         avoids one copy per block. *)
      (slots.(j), (Bytes.unsafe_to_string ct [@lint.allow "R2:bytes-unsafe"])))

let evict_path t tree leaf =
  let items = evict_collect t tree leaf in
  if t.defer then t.pending <- (tree.store, items) :: t.pending
  else Servsim.Block_store.write_many tree.store items

(* Write the access's deferred evictions: all trees' path suffixes in one
   cross-store batch, groups in eviction order (deepest map tree first,
   data tree last). *)
let flush_pending t =
  if t.pending <> [] then begin
    Servsim.Block_store.write_scatter (List.rev t.pending);
    t.pending <- []
  end

(* Read-and-reassign the position of block [idx] of tree [lvl - 1]:
   returns its old leaf and records [new_leaf].  For lvl = depth the
   positions live in the client's top map; otherwise in tree [lvl]. *)
let rec update_position t ~lvl ~idx ~new_leaf =
  if lvl >= Array.length t.trees then begin
    let old = t.top.(idx) in
    t.top.(idx) <- new_leaf;
    old
  end
  else begin
    let tree = t.trees.(lvl) in
    let blk = idx / t.cfg.fanout and slot = idx mod t.cfg.fanout in
    let my_new = t.rand_int tree.leaves in
    let my_old = update_position t ~lvl:(lvl + 1) ~idx:blk ~new_leaf:my_new in
    let my_old =
      if
        ((my_old = invalid_pos)
        [@lint.declassify
          "fresh map blocks get a uniformly random leaf, so the fetched leaf is \
           uniform either way; the trace is one path fetch"])
      then t.rand_int tree.leaves
      else my_old
    in
    fetch_path t tree
      (my_old
      [@lint.declassify
        "Path ORAM invariant: the fetched leaf is uniformly random and independent \
         of the access sequence"]);
    let payload =
      match
        (Hashtbl.find_opt tree.stash blk
        [@lint.declassify
          "client-local stash lookup; both branches produce the same single \
           fetch/evict of one path"])
      with
      | Some (_, payload) -> payload
      | None ->
          (* Fresh map block: all positions invalid. *)
          let b = Bytes.create tree.payload_len in
          for s = 0 to t.cfg.fanout - 1 do
            Relation.Codec.put_int64 b (s * 8) (Int64.of_int invalid_pos)
          done;
          b
    in
    let old = Int64.to_int (Relation.Codec.get_int64_bytes payload (slot * 8)) in
    Relation.Codec.put_int64 payload (slot * 8) (Int64.of_int new_leaf);
    Hashtbl.replace tree.stash blk (my_new, payload);
    evict_path t tree
      (my_old
      [@lint.declassify
        "Path ORAM invariant: the fetched leaf is uniformly random and independent \
         of the access sequence"]);
    old
  end

let access t ~key update =
  if key < 0 || key >= t.cfg.capacity then
    invalid_arg "Recursive_path_oram.access: key out of [0, capacity)";
  let data = t.trees.(0) in
  let new_leaf = t.rand_int data.leaves in
  let old_leaf = update_position t ~lvl:1 ~idx:key ~new_leaf in
  let old_leaf =
    if
      ((old_leaf = invalid_pos)
      [@lint.declassify
        "fresh blocks get a uniformly random leaf, so the fetched leaf is uniform \
         either way; the trace is one path fetch"])
    then t.rand_int data.leaves
    else old_leaf
  in
  fetch_path t data
    (old_leaf
    [@lint.declassify
      "Path ORAM invariant: the fetched leaf is uniformly random and independent \
       of the access sequence"]);
  let old =
    (Option.map (fun (_, p) -> Bytes.to_string p) (Hashtbl.find_opt data.stash key)
    [@lint.declassify
      "client-local stash hit check; the surrounding fetch/evict trace is one full \
       path either way"])
  in
  (match update old with
  | Some v ->
      if String.length v <> t.cfg.payload_len then
        invalid_arg "Recursive_path_oram.access: bad payload length";
      if old = None then t.live <- t.live + 1;
      Hashtbl.replace data.stash key (new_leaf, Bytes.of_string v)
  | None ->
      if old <> None then t.live <- t.live - 1;
      Hashtbl.remove data.stash key);
  evict_path t data
    (old_leaf
    [@lint.declassify
      "Path ORAM invariant: the fetched leaf is uniformly random and independent \
       of the access sequence"]);
  flush_pending t;
  sync_client_cost t;
  old

let read t ~key = access t ~key (fun old -> old)
let write t ~key v = ignore (access t ~key (fun _ -> Some v))
let remove t ~key = ignore (access t ~key (fun _ -> None))

(* Write every tree's cached buckets back through the normal encrypted
   write path — one cross-store batch — and send the outbox, so the
   server-side trees are a complete checkpoint (modulo stashes and the
   top map, which persist client-side).  The caches stay authoritative.
   With the cache off only the pending write-backs are sent. *)
let flush t =
  let groups =
    Array.to_list t.trees
    |> List.map (fun tree ->
           let n = Array.length tree.topcache in
           let pt_len = block_pt_len tree in
           let ct_len = Crypto.Cell_cipher.ciphertext_len ~plaintext_len:pt_len in
           ( tree.store,
             List.init n (fun j ->
                 Bytes.fill tree.pbuf 0 pt_len '\000';
                 (match
                    (tree.topcache.(j)
                    [@lint.declassify
                      "flush writes every cached slot, resident or dummy: the written \
                       slot set is the fixed cache prefix regardless of contents"])
                  with
                 | None -> ()
                 | Some (id, l, payload) ->
                     Bytes.set tree.pbuf 0 '\001';
                     Relation.Codec.put_int64 tree.pbuf 1 (Int64.of_int id);
                     Relation.Codec.put_int64 tree.pbuf 9 (Int64.of_int l);
                     Bytes.blit payload 0 tree.pbuf 17 tree.payload_len);
                 let ct = Bytes.create ct_len in
                 let _ = Crypto.Cell_cipher.encrypt_from t.cipher tree.pbuf ~off:0 ~len:pt_len ct 0 in
                 (j, (Bytes.unsafe_to_string ct [@lint.allow "R2:bytes-unsafe"]))) ))
  in
  Servsim.Block_store.write_scatter groups;
  Servsim.Server.flush t.server

let recursion_depth t = Array.length t.trees

let cache_levels t = Array.fold_left (fun acc tree -> max acc tree.cache_levels) 0 t.trees

let live_blocks t = t.live

let destroy t =
  Array.iter (fun tree -> Servsim.Server.drop_store t.server tree.name) t.trees;
  Servsim.Cost.client_set (Servsim.Server.cost t.server) ~tag:t.session_name 0
