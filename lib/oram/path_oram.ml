(* Non-recursive PathORAM: one {!Path_tree} of [flag | key | payload]
   blocks plus the client's position map (key -> leaf), which is how
   eviction finds a stash resident's leaf. *)

type config = {
  capacity : int;
  key_len : int;
  payload_len : int;
}

type t = {
  cfg : config;
  name : string;
  server : Servsim.Server.t;
  rand_int : int -> int;
  pos : (string, int) Hashtbl.t; (* key -> leaf *)
  tree : (string, string) Path_tree.t;
}

let client_state_bytes t =
  (Hashtbl.length t.pos * (t.cfg.key_len + 8)) + Path_tree.client_bytes t.tree

let sync_client_cost t =
  Servsim.Cost.client_set (Servsim.Server.cost t.server) ~tag:t.name (client_state_bytes t)

let setup ~name ?(cache_levels = 0) cfg server cipher rand_int =
  if cfg.capacity < 1 then invalid_arg "Path_oram.setup: capacity must be >= 1";
  if cache_levels < 0 then invalid_arg "Path_oram.setup: cache_levels must be >= 0";
  let pos = Hashtbl.create (2 * cfg.capacity) in
  let codec =
    {
      Path_tree.body_len = cfg.key_len + cfg.payload_len;
      read_key = (fun b off -> Bytes.sub_string b off cfg.key_len);
      read_value = (fun b off -> Bytes.sub_string b (off + cfg.key_len) cfg.payload_len);
      write_block =
        (fun b off key payload ->
          Bytes.blit_string key 0 b off cfg.key_len;
          Bytes.blit_string payload 0 b (off + cfg.key_len) cfg.payload_len);
      leaf_of = (fun key _ -> Hashtbl.find pos key);
    }
  in
  let tree =
    Path_tree.create ~name ~capacity:cfg.capacity ~cache_levels ~stash_size:64 codec server
      cipher
  in
  let t = { cfg; name; server; rand_int; pos; tree } in
  if cache_levels > 0 then sync_client_cost t;
  t

let access t ~key update =
  if String.length key <> t.cfg.key_len then
    invalid_arg
      (Printf.sprintf "Path_oram.access: key length %d, expected %d (store %s)"
         (String.length key) t.cfg.key_len t.name);
  let leaves = Path_tree.leaves t.tree in
  let leaf =
    match Hashtbl.find_opt t.pos key with
    | Some l -> l
    | None -> t.rand_int leaves
  in
  let old =
    Path_tree.access t.tree leaf key (fun old ->
        match update old with
        | Some v ->
            if String.length v <> t.cfg.payload_len then
              invalid_arg
                (Printf.sprintf "Path_oram.access: payload length %d, expected %d (store %s)"
                   (String.length v) t.cfg.payload_len t.name);
            Hashtbl.replace t.pos key (t.rand_int leaves);
            Some v
        | None ->
            Hashtbl.remove t.pos key;
            None)
  in
  sync_client_cost t;
  old

let dummy_access t =
  Path_tree.dummy_access t.tree (t.rand_int (Path_tree.leaves t.tree));
  sync_client_cost t

(* The cached buckets join the write outbox, which is then sent: the
   server-side tree is a complete checkpoint of the ORAM state (modulo
   the stash, which persists client-side like the position map). *)
let flush t =
  Path_tree.flush_cache t.tree;
  Servsim.Server.flush t.server

let read t ~key = access t ~key (fun old -> old)
let write t ~key v = ignore (access t ~key (fun _ -> Some v))
let remove t ~key = ignore (access t ~key (fun _ -> None))

let live_blocks t = Hashtbl.length t.pos
let levels t = Path_tree.levels t.tree
let cache_levels t = Path_tree.cache_levels t.tree
let max_stash_seen t = Path_tree.max_stash_seen t.tree
let stash_limit t = Path_tree.stash_limit t.tree
let stash_overflows t = Path_tree.stash_overflows t.tree
let access_count t = Path_tree.access_count t.tree

let destroy t =
  Path_tree.destroy t.tree;
  Servsim.Cost.client_set (Servsim.Server.cost t.server) ~tag:t.name 0
