(* Correctness gate for every timed operation.

   Each timed operation (a discovery, an update, a revalidation, a
   recovery) is one attempted operation; it is failed when any of the
   checks attached to it fails.  perfbench refuses to report a passing
   result when [failed t > 0].

   The predicates below are the whole of the gate's logic, so the
   self-test feeds each of them a corrupted input (an FD list with one
   FD changed, a digest with one bit flipped, a frame count off by one)
   and requires a rejection. *)

type t = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let create () = { attempted = 0; failed = 0; problems = [] }

(* Record one timed operation and the verdicts of its checks. *)
let op t ~what checks =
  t.attempted <- t.attempted + 1;
  match List.filter (fun (_, ok) -> not ok) checks with
  | [] -> ()
  | bad ->
      t.failed <- t.failed + 1;
      t.problems <- (what ^ ": " ^ String.concat ", " (List.map fst bad)) :: t.problems

let attempted t = t.attempted
let failed t = t.failed
let problems t = List.rev t.problems

(* Same minimal FDs, in any order. *)
let fds_equal a b =
  List.equal Fdbase.Fd.equal (Fdbase.Fd.sort_canonical a) (Fdbase.Fd.sort_canonical b)

type digests = { full : int64; shape : int64; count : int }

let digests_of_trace tr =
  {
    full = Servsim.Trace.full_digest tr;
    shape = Servsim.Trace.shape_digest tr;
    count = Servsim.Trace.count tr;
  }

let digests_equal a b = Int64.equal a.full b.full && Int64.equal a.shape b.shape && a.count = b.count

(* Reconcile the client's cost ledger with the frames that crossed the
   wire.  Every round trip in [Cost] is one wire frame except the
   set-level checks, which model an out-of-band ciphertext exchange and
   send no frame; and the daemon must have served exactly the frames the
   client sent.  All four figures are deltas over the same interval. *)
let frames_reconcile ~round_trips ~set_level_calls ~client_frames ~server_frames =
  round_trips = client_frames + set_level_calls && server_frames = client_frames

(* The (FD, valid) statuses of a Revalidate that disagree with a direct
   check on the plaintext shadow of the live rows. *)
let wrong_statuses shadow statuses =
  List.filter (fun (fd, ok) -> Fdbase.Validator.holds_fd shadow fd <> ok) statuses

(* A check verdict naming the wrong statuses, if any. *)
let statuses_check what shadow statuses =
  match wrong_statuses shadow statuses with
  | [] -> (what, true)
  | wrong ->
      ( Format.asprintf "%s (%d wrong:%a)" what (List.length wrong)
          (Format.pp_print_list (fun ppf (fd, ok) -> Format.fprintf ppf " %a reported %b" Fdbase.Fd.pp fd ok))
          wrong,
        false )

(* The checker must reject corrupted answers; returns the failures of
   the self-test (empty when it passes). *)
let selftest () =
  let errors = ref [] in
  let expect what cond = if not cond then errors := what :: !errors in
  let table = Datasets.Examples.employee () in
  let fds = Fdbase.Tane.fds table in
  expect "employee table has FDs" (fds <> []);
  expect "accepts the true FDs" (fds_equal fds (List.rev fds));
  (match fds with
  | fd :: rest ->
      let m = Relation.Table.cols table in
      let moved = { fd with Fdbase.Fd.rhs = (fd.Fdbase.Fd.rhs + 1) mod m } in
      expect "rejects an FD with a changed RHS" (not (fds_equal fds (moved :: rest)));
      expect "rejects a dropped FD" (not (fds_equal fds rest));
      let invalid = (moved, true) :: List.map (fun fd -> (fd, true)) rest in
      expect "accepts true statuses" (wrong_statuses table (List.map (fun fd -> (fd, true)) fds) = []);
      expect "rejects a wrong status"
        (Fdbase.Validator.holds_fd table moved || wrong_statuses table invalid <> [])
  | [] -> ());
  let d = { full = 0x1234_5678_9abc_def0L; shape = 0x0fed_cba9_8765_4321L; count = 42 } in
  expect "accepts equal digests" (digests_equal d { d with count = 42 });
  expect "rejects a flipped full digest" (not (digests_equal d { d with full = Int64.logxor d.full 1L }));
  expect "rejects a flipped shape digest"
    (not (digests_equal d { d with shape = Int64.logxor d.shape 0x100L }));
  expect "rejects a wrong access count" (not (digests_equal d { d with count = 43 }));
  expect "accepts reconciled frames"
    (frames_reconcile ~round_trips:113_293 ~set_level_calls:169 ~client_frames:113_124
       ~server_frames:113_124);
  expect "rejects a client frame count off by one"
    (not
       (frames_reconcile ~round_trips:113_293 ~set_level_calls:169 ~client_frames:113_125
          ~server_frames:113_125));
  expect "rejects a server frame count off by one"
    (not
       (frames_reconcile ~round_trips:113_293 ~set_level_calls:169 ~client_frames:113_124
          ~server_frames:113_123));
  let g = create () in
  op g ~what:"good" [ ("ok", true) ];
  op g ~what:"bad" [ ("ok", true); ("broken", false) ];
  expect "counts a failed operation" (attempted g = 2 && failed g = 1);
  List.rev !errors
