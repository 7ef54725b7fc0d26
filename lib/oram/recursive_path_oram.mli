(** Recursive PathORAM over integer keys.

    The paper's methods keep a client-side position map of O(n) entries
    per ORAM and note (§VII-C) that "the storage requirement can be
    reduced by adopting more advanced ORAMs at the cost of runtime".
    This module is that trade-off, concretely: positions of the data tree
    are packed [fanout] to a block and stored in a smaller PathORAM,
    recursively, until the top-level map fits under [top_cutoff] entries,
    which the client holds directly.  Client state shrinks from O(n) to
    O(log n) blocks (top map + stashes); every logical access costs one
    path per recursion level instead of one.

    Keys are integers in [0, capacity) — sufficient for the ID-keyed
    ORAMs of the FD methods (r[ID] is a row number).  The value-keyed
    Key-Label ORAMs would additionally need an oblivious map on top; that
    is out of the paper's scope and ours.

    Every tree is a {!Path_tree}, the engine {!Path_oram} uses too.  Each
    server-side block stores its own assigned leaf alongside the payload,
    so eviction never needs map lookups for stash residents. *)

type t

type config = {
  capacity : int;
  payload_len : int;
  fanout : int;  (** positions packed per map block (e.g. 16) *)
  top_cutoff : int;  (** max entries of the client-held top map (e.g. 64) *)
}

val setup :
  name:string ->
  ?cache_levels:int ->
  config -> Servsim.Server.t -> Crypto.Cell_cipher.t -> (int -> int) -> t
(** [cache_levels] (default 0) asks every tree of the recursion — data
    and position-map trees alike — to keep its top
    [min cache_levels levels] levels decrypted client-side: accesses
    read/write only the path suffix below the cached prefix.  Each
    tree's eviction joins the write outbox and rides with the next
    tree's fetch, so an access costs one round trip per tree at any
    cache depth.  With [cache_levels = 0] the trace and ciphertext
    stream are bit-identical to the uncached implementation. *)

val access : t -> key:int -> (string option -> string option) -> string option [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
val read : t -> key:int -> string option [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
val write : t -> key:int -> string -> unit [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
val remove : t -> key:int -> unit [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]

val recursion_depth : t -> int
(** Number of ORAM trees (data tree + map trees). *)

val flush : t -> unit
(** Write every tree's cached top levels back to the server through the
    normal encrypted write path, in tree order, then send the server's
    write outbox (one frame), so the server-side trees form a complete
    checkpoint.  The caches stay authoritative.  With
    [cache_levels = 0] no block is written: only the pending
    write-backs are sent. *)

val cache_levels : t -> int
(** The largest effective treetop-cache depth across the recursion's
    trees (0 when caching is off). *)

val client_state_bytes : t -> int
val live_blocks : t -> int
val destroy : t -> unit
