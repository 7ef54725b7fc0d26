(** One Path ORAM tree (Stefanov et al., JACM 2018; the paper's
    Definition 4): the engine under {!Path_oram} and
    {!Recursive_path_oram}.

    The server holds a complete binary tree of Z = 4 buckets per node in
    one block store; every slot always holds a ciphertext of the same
    fixed-width plaintext [flag | body].  The client holds the stash, the
    optional treetop cache and a reused path buffer.  An {!access} to a
    leaf is one path read and one path write of that leaf, which the
    caller must draw uniformly at random.  The write goes straight into
    the server's write outbox and rides with the next frame, so each tree
    costs one round trip per access at any cache depth.

    The two ORAMs differ only in the block body and in how a stash
    resident's leaf is found; both are the {!codec}. *)

type ('k, 'v) codec = {
  body_len : int;  (** plaintext bytes after the one-byte occupied flag *)
  read_key : Bytes.t -> int -> 'k;  (** decode a resident's key from the body at the offset *)
  read_value : Bytes.t -> int -> 'v;  (** decode its value from the body at the offset *)
  write_block : Bytes.t -> int -> 'k -> 'v -> unit;
      (** encode a resident's body at the offset (the flag is the engine's) *)
  leaf_of : 'k -> 'v -> int;  (** the leaf a stash resident is assigned to *)
}

type ('k, 'v) t

val create :
  name:string ->
  capacity:int ->
  cache_levels:int ->
  stash_size:int ->
  ('k, 'v) codec ->
  Servsim.Server.t ->
  Crypto.Cell_cipher.t ->
  ('k, 'v) t
(** [create ~name ~capacity ~cache_levels ~stash_size codec server
    cipher] builds a tree of 2^L leaves, L = max 1 ⌈log2 capacity⌉, in a
    fresh store [name] and fills every slot with an encrypted dummy.

    [cache_levels] is clamped to L, so the leaf level always stays on the
    server: the top k levels are then held decrypted client-side and an
    access reads and rewrites only the path suffix below them.  With 0
    the trace, IV stream and ciphertexts are those of the uncached tree.

    [stash_size] is the initial size of the stash table.  Its
    [Hashtbl.iter] order drives greedy eviction, so it fixes which
    ciphertexts a run writes. *)

val access : ('k, 'v) t -> int -> 'k -> ('v option -> 'v option) -> 'v option
(** [access t leaf key f] is one Path ORAM access.  It moves every
    resident of the path to [leaf] into the stash: the cached levels with
    no I/O, the suffix in one batched read (a single frame, carrying any
    open write-back).  It replaces [key]'s stashed value [old] (None:
    absent) by [f old] (None: remove).  It then greedily writes the stash
    back along the same path, deepest bucket first, filling all Z slots
    of every bucket: the suffix joins the write outbox as one batch, the
    cached levels are refilled client-side.  Returns [old]. *)

val dummy_access : ('k, 'v) t -> int -> unit
(** [dummy_access t leaf] reads and rewrites the path to [leaf] with no
    logical operation, indistinguishable from {!access} to the server. *)

val flush_cache : ('k, 'v) t -> unit
(** Write every cached slot, resident or dummy, to its store slot as one
    batch in the write outbox.  No I/O when the cache is off. *)

val levels : ('k, 'v) t -> int
(** Tree height L; the tree has 2^L leaves and 2^(L+1)-1 buckets. *)

val leaves : ('k, 'v) t -> int
val cache_levels : ('k, 'v) t -> int

val client_bytes : ('k, 'v) t -> int
(** Stash residents plus treetop-cache slots (charged at capacity),
    [body_len] bytes each. *)

val max_stash_seen : ('k, 'v) t -> int
(** High-water mark of stash occupancy (blocks), measured after eviction. *)

val stash_limit : ('k, 'v) t -> int
(** The paper's 7·⌈log2 capacity⌉ cap. *)

val stash_overflows : ('k, 'v) t -> int
(** Number of evictions after which the stash exceeded {!stash_limit}. *)

val access_count : ('k, 'v) t -> int
(** Number of {!access} and {!dummy_access} calls. *)

val destroy : ('k, 'v) t -> unit
(** Drop the tree's store from the server. *)
