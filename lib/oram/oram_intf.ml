(** Common interface of key-value ORAM constructions (Definition 4 of the
    paper).

    An ORAM stores encrypted (key, value) pairs on the server such that
    the server's view of an access is independent of the key accessed and
    of whether the access is a read, a write, or a removal.  All three
    logical operations are implemented by one physical [access]
    procedure; the [update] function runs inside the client and decides,
    invisibly to the server, what happens to the stored value.

    {!Path_oram} and {!Linear_oram} satisfy this signature (checked
    below); {!Recursive_path_oram} and {!Omap} have integer- and
    budgeted-value-keyed variants of the same shape.  Both Path ORAMs
    are built on one tree engine, {!Path_tree}: the non-recursive one
    adds a client position map, the recursive one a chain of map trees. *)

module type S = sig
  type t

  type config = {
    capacity : int;  (** maximum number of live (key, value) pairs *)
    key_len : int;  (** fixed byte width of keys *)
    payload_len : int;  (** fixed byte width of values *)
  }

  val setup :
    name:string ->
    ?cache_levels:int ->
    config -> Servsim.Server.t -> Crypto.Cell_cipher.t -> (int -> int) -> t
  (** [setup ~name cfg server cipher rand_int] initialises the
      server-side encrypted memory in a block store called [name] and the
      client-side secret state.  [rand_int bound] must return a uniform
      integer in [[0, bound)].  [cache_levels] (default 0) asks for
      treetop caching: the top k tree levels are held decrypted
      client-side and accesses touch only the path suffix below them.
      Constructions without a tree top (the linear scan) ignore it. *)

  val access : t -> key:string -> (string option -> string option) -> string option
  (** One oblivious access: the previous value bound to [key] (or [None])
      is passed to [update]; the result replaces it ([None] removes the
      binding).  Returns the previous value.  The server-visible behaviour
      is identical for all keys and all [update] functions. *)

  val dummy_access : t -> unit
  (** A physical access carrying no logical operation, indistinguishable
      from {!access} to the server. *)

  val read : t -> key:string -> string option
  val write : t -> key:string -> string -> unit
  val remove : t -> key:string -> unit

  val flush : t -> unit
  (** Write any client-side cached tree levels back to the server through
      the normal encrypted write path (checkpoint before persist/close).
      No-op when nothing is cached. *)

  val live_blocks : t -> int
  val client_state_bytes : t -> int
  val access_count : t -> int
  val destroy : t -> unit
end

(* Compile-time conformance checks. *)
module Check_path : S = Path_oram
module Check_linear : S = Linear_oram
