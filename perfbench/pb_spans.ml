(* Span recorder for the traced run.

   Spans live in memory while the workload runs (id, parent, name,
   start, end, and the change in bytes moved, server blocks touched and
   minor words allocated between start and end) and are written out as
   JSON lines at the end.  [fold] turns them into per-name total and
   self times (a span's self time is its duration minus its children's).

   When the recorder is off, [span] is a plain call, so the untraced
   run pays nothing. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start : float;
  mutable stop : float;
  bytes0 : int;
  mutable dbytes : int;
  blocks0 : int;
  mutable dblocks : int;
  words0 : float;
  mutable dwords : float;
}

type t = {
  on : bool;
  mutable next : int;
  mutable stack : span list;
  mutable finished : span list;
  mutable bytes : unit -> int;  (** bytes moved so far on the current session *)
  mutable blocks : unit -> int;  (** server accesses recorded so far *)
}

let zero () = 0
let create ~on = { on; next = 0; stack = []; finished = []; bytes = zero; blocks = zero }
let on t = t.on

(* Point the Δbytes / Δblocks probes at the session now being measured. *)
let set_probes t ~bytes ~blocks =
  t.bytes <- bytes;
  t.blocks <- blocks

let span t name f =
  if not t.on then f ()
  else begin
    let parent = match t.stack with s :: _ -> s.id | [] -> 0 in
    t.next <- t.next + 1;
    let s =
      {
        id = t.next;
        parent;
        name;
        start = Pb_util.now ();
        stop = 0.0;
        bytes0 = t.bytes ();
        dbytes = 0;
        blocks0 = t.blocks ();
        dblocks = 0;
        words0 = Gc.minor_words ();
        dwords = 0.0;
      }
    in
    t.stack <- s :: t.stack;
    let close () =
      s.stop <- Pb_util.now ();
      s.dbytes <- t.bytes () - s.bytes0;
      s.dblocks <- t.blocks () - s.blocks0;
      s.dwords <- Gc.minor_words () -. s.words0;
      t.stack <- (match t.stack with _ :: tl -> tl | [] -> []);
      t.finished <- s :: t.finished
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let duration s = s.stop -. s.start

type folded = { calls : int; total_s : float; self_s : float; blocks : int }

let empty = { calls = 0; total_s = 0.0; self_s = 0.0; blocks = 0 }

(* Per-name aggregate over every finished span. *)
let fold t =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    t.finished;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let f = Option.value ~default:empty (Hashtbl.find_opt by_name s.name) in
      let self = duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      Hashtbl.replace by_name s.name
        {
          calls = f.calls + 1;
          total_s = f.total_s +. duration s;
          self_s = f.self_s +. self;
          blocks = f.blocks + s.dblocks;
        })
    t.finished;
  fun name -> Option.value ~default:empty (Hashtbl.find_opt by_name name)

let count t = List.length t.finished

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Pb_util.json_to_string
           (Pb_util.Obj
              [
                ("id", Pb_util.Int s.id);
                ("parent", Pb_util.Int s.parent);
                ("name", Pb_util.Str s.name);
                ("start", Pb_util.Num s.start);
                ("end", Pb_util.Num s.stop);
                ("dbytes", Pb_util.Int s.dbytes);
                ("dblocks", Pb_util.Int s.dblocks);
                ("dminor_words", Pb_util.Num s.dwords);
              ]));
      output_char oc '\n')
    (List.rev t.finished);
  close_out oc
