(* Small helpers shared by the benchmark modules: clocks, order
   statistics, file-system chores and a minimal JSON writer. *)

let now () = Unix.gettimeofday ()

(* User + system CPU of this process, seconds. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Linear-interpolated quantile of a non-empty sample ([q] in [0, 1]). *)
let quantile q samples =
  match samples with
  | [] -> invalid_arg "Pb_util.quantile: empty sample"
  | _ ->
      let a = Array.of_list samples in
      Array.sort Float.compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median samples = quantile 0.5 samples
let isum l = List.fold_left ( + ) 0 l

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* Total size of the regular files under [path], bytes. *)
let rec disk_bytes path =
  if not (Sys.file_exists path) then 0
  else if Sys.is_directory path then
    Array.fold_left (fun acc e -> acc + disk_bytes (Filename.concat path e)) 0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* JSON values, just enough for the result line and the run record. *)
type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec json_to_buffer b = function
  | Num f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Str s ->
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          json_to_buffer b v)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          json_to_buffer b (Str k);
          Buffer.add_string b ": ";
          json_to_buffer b v)
        kvs;
      Buffer.add_char b '}'

let json_to_string v =
  let b = Buffer.create 256 in
  json_to_buffer b v;
  Buffer.contents b
