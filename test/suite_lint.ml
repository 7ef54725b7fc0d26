(* Tests for the fdlint static-analysis pass (lib/lint).

   The fixture corpus under test/lint_fixtures/ carries one positive
   (rule fires) and one negative (rule silent) snippet per rule.  Each
   fixture is self-describing: its first line is
     (* fdlint-fixture path=<virtual path> expect=<rule name|none> *)
   where the virtual path places the snippet inside the rule's scope.
   R3 (mli-completeness) is a whole-tree rule, so its fixtures are the
   directory trees r3_pos/ and r3_neg/. *)

open Lint

let fixtures_dir = "lint_fixtures"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let strings_of fs = List.map Finding.to_string fs

let parse_header file content =
  let line =
    match String.index_opt content '\n' with
    | Some i -> String.sub content 0 i
    | None -> content
  in
  let tok prefix =
    String.split_on_char ' ' line
    |> List.find_map (fun w ->
           let lp = String.length prefix in
           if String.length w > lp && String.equal prefix (String.sub w 0 lp) then
             Some (String.sub w lp (String.length w - lp))
           else None)
  in
  match (tok "path=", tok "expect=") with
  | Some p, Some e -> (p, e)
  | _ -> Alcotest.failf "%s: missing fdlint-fixture header" file

let fixture_case file =
  Alcotest.test_case ("fixture " ^ file) `Quick (fun () ->
      let content = read_file (Filename.concat fixtures_dir file) in
      let vpath, expect = parse_header file content in
      let fs = Driver.lint_string ~path:vpath content in
      match expect with
      | "none" -> Alcotest.(check (list string)) "silent" [] (strings_of fs)
      | rule ->
          Alcotest.(check bool) "fires" true (fs <> []);
          List.iter
            (fun (f : Finding.t) -> Alcotest.(check string) "finding rule" rule f.rule)
            fs)

(* The per-file cases are named from the rule registry, so building the
   suite touches no file: the corpus directory is read only inside the
   lint cases, and any other suite runs from any working directory. *)
let fixture_files =
  List.concat_map
    (fun (r : Rule.t) ->
      let low = String.lowercase_ascii r.id in
      match r.check with Rule.Ast _ -> [ low ^ "_neg.ml"; low ^ "_pos.ml" ] | Rule.Tree _ -> [])
    Rules.all
  |> List.sort String.compare

(* Every AST rule must be represented by a rN_pos.ml / rN_neg.ml pair,
   and every .ml fixture on disk must belong to one; R3's
   positive/negative live in the r3_pos/ and r3_neg/ trees. *)
let test_corpus_complete () =
  let on_disk =
    Sys.readdir fixtures_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "one .ml fixture per AST rule case" fixture_files on_disk;
  List.iter
    (fun (r : Rule.t) ->
      match r.check with
      | Rule.Tree _ ->
          let low = String.lowercase_ascii r.id in
          Alcotest.(check bool) (r.id ^ " tree fixtures") true
            (Sys.is_directory (Filename.concat fixtures_dir (low ^ "_pos"))
            && Sys.is_directory (Filename.concat fixtures_dir (low ^ "_neg")))
      | Rule.Ast _ -> ())
    Rules.all

let test_mli_trees () =
  let pos, n = Driver.lint_tree ~root:(Filename.concat fixtures_dir "r3_pos") () in
  Alcotest.(check int) "r3_pos scans one file" 1 n;
  (match pos with
  | [ f ] ->
      Alcotest.(check string) "rule" "mli-completeness" f.Finding.rule;
      Alcotest.(check string) "path" "lib/x/a.ml" f.Finding.path
  | fs -> Alcotest.failf "r3_pos: expected exactly one finding, got %d" (List.length fs));
  let neg, n = Driver.lint_tree ~root:(Filename.concat fixtures_dir "r3_neg") () in
  Alcotest.(check int) "r3_neg scans three files" 3 n;
  Alcotest.(check (list string)) "r3_neg clean" [] (strings_of neg)

let test_suppression_site () =
  let code = "let a x = Obj.magic x\nlet b x = Obj.magic x [@@lint.allow \"R2\"]\n" in
  match Driver.lint_string ~path:"lib/core/x.ml" code with
  | [ f ] ->
      Alcotest.(check int) "unsuppressed line" 1 f.Finding.line;
      Alcotest.(check string) "rule" "no-unsafe-casts" f.Finding.rule
  | fs -> Alcotest.failf "expected one surviving finding, got %d" (List.length fs)

let test_suppression_tag () =
  (* A ":tag"-narrowed suppression must not cover the rule's other
     sub-checks. *)
  let code = "let f b x = ignore (Bytes.unsafe_get b 0); Obj.magic x\n[@@lint.allow \"no-unsafe-casts:bytes-unsafe\"]\n" in
  match Driver.lint_string ~path:"lib/core/x.ml" code with
  | [ f ] -> Alcotest.(check string) "only obj-magic survives" "obj-magic" f.Finding.tag
  | fs -> Alcotest.failf "expected one surviving finding, got %d" (List.length fs)

let test_suppression_nested () =
  (* An allow on an enclosing module must cover findings of inner
     bindings, including ones that carry their own (different) allow. *)
  let code =
    "module M = struct\n\
    \  let a x = Obj.magic x\n\
    \  let b y = ignore (Bytes.unsafe_get y 0) [@@lint.allow \"R2:bytes-unsafe\"]\n\
     end\n\
     [@@lint.allow \"R2\"]\n\
     let outside z = Obj.magic z\n"
  in
  match Driver.lint_string ~path:"lib/core/x.ml" code with
  | [ f ] ->
      Alcotest.(check int) "only the binding outside the region fires" 6 f.Finding.line
  | fs -> Alcotest.failf "expected one surviving finding, got %d" (List.length fs)

let test_suppression_multi_spec () =
  (* One payload, several comma-separated specs: both named checks are
     silenced, anything else keeps firing. *)
  let code =
    "let f b x = ignore (Bytes.unsafe_get b 0) ; Obj.magic x\n\
     [@@lint.allow \"R2:bytes-unsafe, R6\"]\n"
  in
  match Driver.lint_string ~path:"lib/core/x.ml" code with
  | [ f ] -> Alcotest.(check string) "obj-magic survives the pair" "obj-magic" f.Finding.tag
  | fs -> Alcotest.failf "expected one surviving finding, got %d" (List.length fs)

let test_suppression_floating () =
  (* The floating whole-file form covers every finding after (and
     before) it, with tag narrowing still honoured. *)
  let whole = "[@@@lint.allow \"R2\"]\n\nlet f x = Obj.magic x\nlet g b = Bytes.unsafe_get b 0\n" in
  Alcotest.(check (list string))
    "whole-file allow" []
    (strings_of (Driver.lint_string ~path:"lib/core/x.ml" whole));
  let narrowed =
    "[@@@lint.allow \"no-unsafe-casts:bytes-unsafe\"]\n\nlet f x = Obj.magic x\n"
  in
  match Driver.lint_string ~path:"lib/core/x.ml" narrowed with
  | [ f ] -> Alcotest.(check string) "narrowed floating allow" "obj-magic" f.Finding.tag
  | fs -> Alcotest.failf "expected one surviving finding, got %d" (List.length fs)

let conf directives =
  match Config.parse directives with Ok c -> c | Error e -> Alcotest.fail e

let test_config () =
  let code = "let f x = Obj.magic x\n" in
  let run config = Driver.lint_string ~config ~path:"lib/oram/x.ml" code in
  Alcotest.(check int) "baseline fires" 1 (List.length (run Config.default));
  Alcotest.(check int) "disable R2" 0 (List.length (run (conf "disable R2")));
  Alcotest.(check int) "disable by name" 0
    (List.length (run (conf "disable no-unsafe-casts")));
  Alcotest.(check int) "allow under path" 0
    (List.length (run (conf "allow no-unsafe-casts lib/oram/")));
  Alcotest.(check int) "allow elsewhere keeps firing" 1
    (List.length (run (conf "allow no-unsafe-casts lib/crypto/")));
  Alcotest.(check int) "allow wrong tag keeps firing" 1
    (List.length (run (conf "allow R2:bytes-unsafe lib/oram/")));
  Alcotest.(check int) "scope directive restricts" 0
    (List.length (run (conf "scope R2 lib/never/")));
  Alcotest.(check int) "component-aware prefix does not match lib/ora"
    1
    (List.length (run (conf "allow R2 lib/ora")));
  match Config.parse "frobnicate x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed directive must be rejected"

let test_config_exclude () =
  let config = conf "exclude lib/" in
  let fs, n = Driver.lint_tree ~config ~root:(Filename.concat fixtures_dir "r3_pos") () in
  Alcotest.(check int) "no files scanned" 0 n;
  Alcotest.(check (list string)) "no findings" [] (strings_of fs)

let test_parse_error () =
  match Driver.lint_string ~path:"lib/x.ml" "let let let\n" with
  | [ f ] -> Alcotest.(check string) "rule" Driver.parse_error_rule f.Finding.rule
  | fs -> Alcotest.failf "expected one parse-error finding, got %d" (List.length fs)

let test_format () =
  match Driver.lint_string ~path:"lib/oram/x.ml" "let f x = Obj.magic x\n" with
  | [ f ] ->
      Alcotest.(check string) "file:line:col [rule] msg"
        "lib/oram/x.ml:1:10 [no-unsafe-casts] Obj.magic defeats the type system"
        (Finding.to_string f)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_json_format () =
  (* The machine surface of `fdlint --format json`: key order, key set
     and string escaping are all part of the contract. *)
  let f =
    Finding.v ~path:"lib/a.ml" ~line:3 ~col:7 ~rule:"secret-flow" ~tag:"branch"
      "he said \"no\"\tthen\nleft \\ \x01"
  in
  Alcotest.(check string) "pinned json object"
    {|{"path":"lib/a.ml","line":3,"col":7,"rule":"secret-flow","tag":"branch","msg":"he said \"no\"\tthen\nleft \\ \u0001"}|}
    (Finding.to_json f);
  let plain = Finding.v ~path:"lib/b.ml" ~line:1 ~col:0 ~rule:"r" "m" in
  Alcotest.(check string) "empty tag still present"
    {|{"path":"lib/b.ml","line":1,"col":0,"rule":"r","tag":"","msg":"m"}|}
    (Finding.to_json plain)

(* ---- R11 (secret-flow) ---- *)

let r11_rules = List.filter (fun (r : Rule.t) -> String.equal r.id "R11") Rules.all

let test_r11_trees () =
  let pos, n =
    Driver.lint_tree ~rules:r11_rules ~root:(Filename.concat fixtures_dir "r11_pos") ()
  in
  Alcotest.(check int) "r11_pos scans all files" 12 n;
  let got =
    List.sort_uniq compare (List.map (fun (f : Finding.t) -> (f.path, f.tag)) pos)
  in
  let expect =
    [
      ("lib/oram/alloc.ml", "alloc");
      ("lib/oram/branch.ml", "branch");
      ("lib/oram/index.ml", "index");
      ("lib/oram/lab.ml", "branch");
      ("lib/oram/loop.ml", "loop-bound");
      ("lib/oram/noreason.ml", "declassify-missing-reason");
      ("lib/oram/out.ml", "output");
      ("lib/oram/par.ml", "branch");
    ]
  in
  Alcotest.(check (list (pair string string))) "every sink class fires" expect got;
  List.iter
    (fun (f : Finding.t) -> Alcotest.(check string) "rule" "secret-flow" f.rule)
    pos;
  let neg, n =
    Driver.lint_tree ~rules:r11_rules ~root:(Filename.concat fixtures_dir "r11_neg") ()
  in
  Alcotest.(check int) "r11_neg scans all files" 11 n;
  Alcotest.(check (list string)) "r11_neg clean" [] (strings_of neg)

(* Generative coverage: a secret source piped through a chain of k
   forwarding functions must still reach the branch sink (the summary
   fixpoint cannot lose taint with depth), and the declassified variant
   must stay silent at every depth. *)
let qcheck_r11_chain =
  QCheck.Test.make ~name:"R11 taint survives call chains of any depth" ~count:20
    QCheck.(int_range 0 8)
    (fun k ->
      let b = Buffer.create 256 in
      Buffer.add_string b "let src () = \"s\" [@@secret]\n";
      Buffer.add_string b "let hop0 x = x\n";
      for i = 1 to k do
        Buffer.add_string b (Printf.sprintf "let hop%d x = hop%d x\n" i (i - 1))
      done;
      let sink declassified =
        Printf.sprintf "let top () = if (hop%d (src ()) = \"\")%s then 1 else 0\n" k
          (if declassified then " [@lint.declassify \"qcheck fixture\"]" else "")
      in
      let lint code =
        fst (Driver.lint_vtree ~rules:r11_rules [ ("lib/oram/chain.ml", Buffer.contents b ^ code) ])
      in
      let fired = lint (sink false) and silent = lint (sink true) in
      List.length fired = 1
      && List.for_all (fun (f : Finding.t) -> String.equal f.tag "branch") fired
      && silent = [])

let test_smoke_all () =
  List.iter
    (fun (r : Rule.t) -> Alcotest.(check bool) (r.id ^ " smoke fires") true (Driver.smoke r))
    Rules.all

(* End-to-end: the real tree must be lint-clean under its checked-in
   .fdlint.  Tests run unsandboxed from _build/default/test, so walk up
   to the repository root (the directory containing .git). *)
let rec find_root dir =
  if Sys.file_exists (Filename.concat dir ".git") then Some dir
  else
    let parent = Filename.dirname dir in
    if String.equal parent dir then None else find_root parent

let test_real_tree_clean () =
  match find_root (Sys.getcwd ()) with
  | None -> Alcotest.skip ()
  | Some root ->
      let config =
        match Config.load (Filename.concat root ".fdlint") with
        | Ok c -> c
        | Error e -> Alcotest.fail e
      in
      let fs, n = Driver.lint_tree ~config ~root () in
      Alcotest.(check bool) "scanned a real tree" true (n > 100);
      Alcotest.(check (list string)) "zero findings on the real tree" [] (strings_of fs)

(* End-to-end exit codes of the installed binary: 0 clean, 1 findings,
   >= 2 usage/config error.  Tests run from _build/default/test, where
   the dune dep rule places a copy of the linted tree's binary at
   ../bin/fdlint.exe. *)
let fdlint_exe = Filename.concat (Filename.concat ".." "bin") "fdlint.exe"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let test_exit_codes () =
  if not (Sys.file_exists fdlint_exe) then Alcotest.skip ()
  else begin
    let clean = "exitcode_clean" in
    mkdir_p clean;
    Alcotest.(check int) "empty tree exits 0" 0
      (Sys.command (Filename.quote_command fdlint_exe [ "--quiet"; "--root"; clean ]));
    let dirty = "exitcode_dirty" in
    mkdir_p (Filename.concat dirty (Filename.concat "lib" "core"));
    Out_channel.with_open_bin
      (Filename.concat dirty (Filename.concat "lib" (Filename.concat "core" "x.ml")))
      (fun oc -> Out_channel.output_string oc "let f x = Obj.magic x\n");
    Alcotest.(check int) "findings exit 1" 1
      (Sys.command (Filename.quote_command fdlint_exe [ "--quiet"; "--root"; dirty ]));
    Alcotest.(check int) "unknown flag exits 2" 2
      (Sys.command
         (Filename.quote_command fdlint_exe [ "--definitely-not-a-flag" ]
         ^ " >/dev/null 2>&1"));
    Alcotest.(check int) "unexpected argument exits 2" 2
      (Sys.command
         (Filename.quote_command fdlint_exe [ "stray-arg" ] ^ " >/dev/null 2>&1"))
  end

let suite =
  List.map fixture_case fixture_files
  @ [
      Alcotest.test_case "fixture corpus covers every rule" `Quick test_corpus_complete;
      Alcotest.test_case "mli-completeness trees" `Quick test_mli_trees;
      Alcotest.test_case "per-site suppression" `Quick test_suppression_site;
      Alcotest.test_case "tag-narrowed suppression" `Quick test_suppression_tag;
      Alcotest.test_case "nested suppression regions" `Quick test_suppression_nested;
      Alcotest.test_case "multi-spec suppression payload" `Quick test_suppression_multi_spec;
      Alcotest.test_case "floating whole-file suppression" `Quick test_suppression_floating;
      Alcotest.test_case "config directives" `Quick test_config;
      Alcotest.test_case "config exclude" `Quick test_config_exclude;
      Alcotest.test_case "parse error is a finding" `Quick test_parse_error;
      Alcotest.test_case "finding format" `Quick test_format;
      Alcotest.test_case "json finding format" `Quick test_json_format;
      Alcotest.test_case "secret-flow fixture trees" `Quick test_r11_trees;
      QCheck_alcotest.to_alcotest qcheck_r11_chain;
      Alcotest.test_case "smoke: every rule fires" `Quick test_smoke_all;
      Alcotest.test_case "fdlint exit codes" `Quick test_exit_codes;
      Alcotest.test_case "real tree is clean" `Quick test_real_tree_clean;
    ]
