type t = {
  trace : Trace.t;
  cost : Cost.t;
  stores : (string, Block_store.t) Hashtbl.t;
  remote : Remote.t option;
  outbox : Block_store.outbox; (* shared by every store: see Block_store *)
  mutable bytes : int;
}

let create ?keep_events ?remote () =
  {
    trace = Trace.create ?keep_events ();
    cost = Cost.create ();
    stores = Hashtbl.create 32;
    remote;
    outbox = Block_store.outbox ?remote ();
    bytes = 0;
  }

let trace t = t.trace
let cost t = t.cost
let remote t = t.remote

let sync_cost t = Cost.set_server_bytes t.cost t.bytes

let create_store t name =
  if Hashtbl.mem t.stores name then
    invalid_arg (Printf.sprintf "Server.create_store: store %s already exists" name);
  let traced = Trace.enabled t.trace in
  Block_store.request t.outbox ~traced (Wire.Create_store name);
  let on_resize delta =
    t.bytes <- t.bytes + delta;
    sync_cost t
  in
  let store = Block_store.create ~name ~trace:t.trace ~on_resize ~outbox:t.outbox t.cost in
  Hashtbl.replace t.stores name store;
  (* One wire frame in remote mode; charged identically in the local sim. *)
  if traced then Cost.round_trip t.cost;
  store

let find_store t name =
  match Hashtbl.find_opt t.stores name with
  | Some s -> s
  | None -> raise Not_found

let drop_store t name =
  match Hashtbl.find_opt t.stores name with
  | None -> ()
  | Some s ->
      let traced = Trace.enabled t.trace in
      Block_store.request t.outbox ~traced (Wire.Drop_store name);
      t.bytes <- t.bytes - Block_store.size_bytes s;
      sync_cost t;
      if traced then Cost.round_trip t.cost;
      Hashtbl.remove t.stores name

let pending t = Block_store.pending t.outbox
let flush t = Block_store.flush t.outbox

let total_bytes t = t.bytes

let store_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.stores [] |> List.sort compare
