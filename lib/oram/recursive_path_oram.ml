(* Recursive PathORAM.  Tree 0 holds the data blocks; tree i >= 1 holds
   the position map of tree i-1, [fanout] positions per block; the top
   map (positions of the last tree) is a small client-side array.  Every
   tree is one {!Path_tree} of

     flag (1) | id (8) | leaf (8) | payload (payload_len)

   blocks: the assigned leaf rides inside the block, so eviction places
   stash residents without consulting the maps.

   The fetches are one frame per tree: the leaf of tree i-1 is stored
   inside tree i's blocks, so the reads form a data-dependent chain that
   cannot be batched without a different construction.  Each tree's
   eviction rides with the next tree's fetch, so an access costs one
   round trip per tree at any cache depth. *)

type config = {
  capacity : int;
  payload_len : int;
  fanout : int;
  top_cutoff : int;
}

type t = {
  cfg : config;
  server : Servsim.Server.t;
  rand_int : int -> int;
  trees : (int, int * Bytes.t) Path_tree.t array;
      (* trees.(0) = data; trees.(i) = map of tree i-1; stash values are
         (leaf, payload) *)
  top : int array; (* positions of the last tree's blocks *)
  session_name : string;
  mutable live : int;
}

let invalid_pos = -1

let codec payload_len =
  {
    Path_tree.body_len = 8 + 8 + payload_len;
    read_key = (fun b off -> Int64.to_int (Relation.Codec.get_int64_bytes b off));
    read_value =
      (fun b off ->
        ( Int64.to_int (Relation.Codec.get_int64_bytes b (off + 8)),
          Bytes.sub b (off + 16) payload_len ));
    write_block =
      (fun b off id (l, payload) ->
        Relation.Codec.put_int64 b off (Int64.of_int id);
        Relation.Codec.put_int64 b (off + 8) (Int64.of_int l);
        Bytes.blit payload 0 b (off + 16) payload_len);
    leaf_of = (fun _ (l, _) -> l);
  }

let client_state_bytes t =
  Array.fold_left
    (fun acc tree -> acc + Path_tree.client_bytes tree)
    (Array.length t.top * 8) t.trees

let sync_client_cost t =
  Servsim.Cost.client_set (Servsim.Server.cost t.server) ~tag:t.session_name
    (client_state_bytes t)

let setup ~name ?(cache_levels = 0) cfg server cipher rand_int =
  if cfg.capacity < 1 then invalid_arg "Recursive_path_oram.setup: capacity must be >= 1";
  if cfg.fanout < 2 then invalid_arg "Recursive_path_oram.setup: fanout must be >= 2";
  if cache_levels < 0 then invalid_arg "Recursive_path_oram.setup: cache_levels must be >= 0";
  (* Sizes of the recursion levels: n, ceil(n/f), ceil(n/f^2), ... *)
  let rec sizes n =
    n :: (if n > cfg.top_cutoff then sizes ((n + cfg.fanout - 1) / cfg.fanout) else [])
  in
  let sizes = Array.of_list (sizes cfg.capacity) in
  (* sizes.(0) = capacity = data tree; sizes.(i) = block count of map tree
     i (which packs the positions of tree i-1).  A tree exists for every
     entry; the client's top map holds the positions of the last tree —
     sizes.(last) entries, <= top_cutoff by construction. *)
  let ntrees = Array.length sizes in
  let trees =
    Array.init ntrees (fun i ->
        let payload_len = if i = 0 then cfg.payload_len else cfg.fanout * 8 in
        Path_tree.create
          ~name:(Printf.sprintf "%s-t%d" name i)
          ~capacity:sizes.(i) ~cache_levels ~stash_size:32 (codec payload_len) server cipher)
  in
  let t =
    {
      cfg;
      server;
      rand_int;
      trees;
      top = Array.make sizes.(ntrees - 1) invalid_pos;
      session_name = name;
      live = 0;
    }
  in
  if cache_levels > 0 then sync_client_cost t;
  t

(* The leaf of block [id] of tree [i], reassigned to [new_leaf] one tree
   up; a fresh block gets a uniformly random one. *)
let rec block_leaf t i ~id ~new_leaf =
  let l = position t ~lvl:(i + 1) ~idx:id ~new_leaf in
  let l =
    if
      ((l = invalid_pos)
      [@lint.declassify
        "fresh blocks get a uniformly random leaf, so the fetched leaf is uniform \
         either way; the trace is one path fetch"])
    then t.rand_int (Path_tree.leaves t.trees.(i))
    else l
  in
  (l
  [@lint.declassify
    "Path ORAM invariant: the fetched leaf is uniformly random and independent of the \
     access sequence"])

(* The leaf of block [idx] of tree [lvl - 1], reassigned to [new_leaf]:
   past the last tree it lives in the client's top map, otherwise in
   block [idx / fanout] of tree [lvl]. *)
and position t ~lvl ~idx ~new_leaf =
  if lvl >= Array.length t.trees then begin
    let old = t.top.(idx) in
    t.top.(idx) <- new_leaf;
    old
  end
  else begin
    let tree = t.trees.(lvl) in
    let blk = idx / t.cfg.fanout and slot = idx mod t.cfg.fanout * 8 in
    let my_new = t.rand_int (Path_tree.leaves tree) in
    let leaf = block_leaf t lvl ~id:blk ~new_leaf:my_new in
    let old = ref invalid_pos in
    ignore
      (Path_tree.access tree leaf blk (fun block ->
           let payload =
             match block with
             | Some (_, p) -> p
             | None ->
                 (* Fresh map block: all positions invalid. *)
                 let b = Bytes.create (t.cfg.fanout * 8) in
                 for s = 0 to t.cfg.fanout - 1 do
                   Relation.Codec.put_int64 b (s * 8) (Int64.of_int invalid_pos)
                 done;
                 b
           in
           old := Int64.to_int (Relation.Codec.get_int64_bytes payload slot);
           Relation.Codec.put_int64 payload slot (Int64.of_int new_leaf);
           Some (my_new, payload)));
    !old
  end

let access t ~key update =
  if key < 0 || key >= t.cfg.capacity then
    invalid_arg "Recursive_path_oram.access: key out of [0, capacity)";
  let data = t.trees.(0) in
  let new_leaf = t.rand_int (Path_tree.leaves data) in
  let leaf = block_leaf t 0 ~id:key ~new_leaf in
  let old = ref None in
  ignore
    (Path_tree.access data leaf key (fun block ->
         old := Option.map (fun (_, p) -> Bytes.to_string p) block;
         match update !old with
         | Some v ->
             if String.length v <> t.cfg.payload_len then
               invalid_arg "Recursive_path_oram.access: bad payload length";
             if !old = None then t.live <- t.live + 1;
             Some (new_leaf, Bytes.of_string v)
         | None ->
             if !old <> None then t.live <- t.live - 1;
             None));
  sync_client_cost t;
  !old

let read t ~key = access t ~key (fun old -> old)
let write t ~key v = ignore (access t ~key (fun _ -> Some v))
let remove t ~key = ignore (access t ~key (fun _ -> None))

(* Every tree's cached buckets join the write outbox, in tree order, and
   the outbox is sent: the server-side trees are a complete checkpoint
   (modulo stashes and the top map, which persist client-side). *)
let flush t =
  Array.iter Path_tree.flush_cache t.trees;
  Servsim.Server.flush t.server

let recursion_depth t = Array.length t.trees

let cache_levels t =
  Array.fold_left (fun acc tree -> max acc (Path_tree.cache_levels tree)) 0 t.trees

let live_blocks t = t.live

let destroy t =
  Array.iter Path_tree.destroy t.trees;
  Servsim.Cost.client_set (Servsim.Server.cost t.server) ~tag:t.session_name 0
