(** A named, growable array of ciphertext blocks held by the server.

    Every read and write is recorded in the server's {!Trace} and counted
    against the channel in {!Cost} — this is the adversary's complete view
    of the store.  Blocks are opaque strings (ciphertexts); the store never
    interprets them.

    Writes are deferred (protocol v7): every write, single or batched,
    joins the server's write {!outbox} and travels with the next frame —
    the next read's [Put_get], or a [Scatter_put] ahead of any other
    request.  Round trips are counted here, one per wire frame, and a
    frame is paid by the operation that opens it:
    - a write into an empty outbox pays 1; a write joining an open
      outbox pays 0;
    - a read pays 1, or 0 when it carries an open outbox;
    - {!ensure} and store creation/removal pay 1 (their frame);
    - {!flush} pays 0 (its writes already paid).
    The ledger therefore equals the wire frames whenever the outbox is
    empty, in local and remote mode alike.  Structured access patterns
    (an ORAM path, a bulk initialization) should go through the batch
    API.

    While the trace is disabled ({!Trace.set_enabled}), cost accounting is
    suspended as well: the shared counters are not safe (or cheap) to
    mutate from multiple domains, and multi-domain sections are exactly
    when tracing is turned off.  Byte/storage totals are therefore only
    meaningful for single-domain runs. *)

type t

val name : t -> string

val length : t -> int
(** Number of block slots. *)

val size_bytes : t -> int
(** Total bytes currently stored. *)

val ensure : t -> int -> unit
(** [ensure t n] grows the store to at least [n] slots (empty blocks).
    Growing costs one round trip (it is one wire frame in remote mode,
    preceded by the outbox if one is open). *)

val read : t -> int -> string
(** [read t i] returns block [i], tracing the access and counting the
    bytes as server→client traffic.  One frame ([Get], or [Put_get]
    carrying the outbox). *)

val write : t -> int -> string -> unit
(** [write t i c] replaces block [i], tracing and counting client→server
    traffic; the block joins the outbox. *)

val read_many : t -> int list -> string list
(** [read_many t idxs] returns the blocks at [idxs] in order.  Traces one
    event per block — identical to the equivalent loop of {!read}s — in
    a single frame: [Multi_get], or [Put_get] carrying the outbox.  The
    empty list performs no I/O at all. *)

val write_many : t -> (int * string) list -> unit
(** [write_many t items] writes every (slot, block) pair in list order.
    One traced event per block; the batch joins the outbox.  The empty
    list performs no I/O at all. *)

(** {2 The write outbox} — one per server, shared by all its stores. *)

type outbox

val outbox : ?remote:Remote.t -> unit -> outbox
(** A fresh, empty outbox; with [?remote] it is that connection's
    ({!Remote.queue_put}). *)

val pending : outbox -> bool
(** Is a write frame open — paid for but not yet on the wire? *)

val flush : outbox -> unit
(** Send the open frame now (remote: one [Scatter_put]).  Costs no
    round trip in the ledger: the write that opened it paid. *)

val request : outbox -> traced:bool -> Wire.request -> unit
(** Issue a request other than a block read or write ([Create_store],
    [Drop_store], [Ensure]): remotely a synchronous {!Remote.call},
    which sends the outbox first.  The caller charges the round trip. *)

(** {2 Construction} — normally via {!Server.create_store}. *)

val create :
  name:string -> trace:Trace.t -> on_resize:(int -> unit) -> outbox:outbox -> Cost.t -> t
(** With a remote [outbox], blocks live in the connected server process
    and every read (or batch) is a wire frame; the client still records
    its own trace and cost view (block sizes are mirrored locally). *)
