(* Reference kernel: a fixed piece of work that belongs to the
   benchmark, not to the program, timed between a discovery's steps to
   measure how fast the host runs at that moment.

   On a shared host the speed of one CPU drifts by 2x and more over
   minutes, for every instruction the process runs: the process's CPU
   time stays equal to its wall time, so neither CPU time nor the
   fastest of many runs removes the drift.  Neighbours slow it in two
   ways, by sharing the core's execution units and by sharing the
   last-level cache and memory, and a discovery feels both.  The kernel
   therefore gives about equal time to table-driven block-cipher rounds
   over a buffer, a compare-exchange sorting network and hash-table
   probes on one side, and to a chain of cache-missing loads and
   streaming block copies on the other.  A discovery's wall time
   divided by the kernel's, sampled evenly over the same interval,
   drifts far less than either.  The kernel allocates nothing, so its time does not
   depend on the program's heap, and no change to the program can
   change it. *)

(* Four 256-entry tables of 32-bit words, like AES's T-tables, laid
   end to end. *)
let tables =
  Array.init 1024 (fun i ->
      let t = i lsr 8 and i = i land 255 in
      let x = ((i * 0x9e37) + (t * 0x79b9) + 0x1234) land 0xffff in
      ((x * 0x85eb) lxor (i lsl 13) lxor (t lsl 29)) land 0xffffffff)

let block_bytes = 8192
let passes = 16
let seed = Bytes.init block_bytes (fun i -> Char.chr ((i * 31) land 255))
let buf_a = Bytes.create block_bytes
let buf_b = Bytes.create block_bytes
let state = Array.make 4 0

let mix a b c d k =
  tables.((a lsr 24) land 255)
  lxor tables.(256 + ((b lsr 16) land 255))
  lxor tables.(512 + ((c lsr 8) land 255))
  lxor tables.(768 + (d land 255))
  lxor k

(* One round over [state.(0..3)]. *)
let round k =
  let s0 = state.(0) and s1 = state.(1) and s2 = state.(2) and s3 = state.(3) in
  state.(0) <- mix s0 s1 s2 s3 k;
  state.(1) <- mix s1 s2 s3 s0 k;
  state.(2) <- mix s2 s3 s0 s1 k;
  state.(3) <- mix s3 s0 s1 s2 k

(* Ten rounds over every 16-byte block of [a] into [b]. *)
let cipher a b =
  for blk = 0 to (block_bytes / 16) - 1 do
    let o = 16 * blk in
    for i = 0 to 3 do
      state.(i) <- Int32.to_int (Bytes.get_int32_le a (o + (4 * i))) land 0xffffffff
    done;
    for r = 1 to 10 do
      round ((r * 0x1b1b1b1b) land 0xffffffff)
    done;
    for i = 0 to 3 do
      Bytes.set_int32_le b (o + (4 * i)) (Int32.of_int state.(i))
    done
  done

let keys = Array.make 4096 0

(* Bitonic sorting network over [keys]. *)
let bitonic () =
  let n = Array.length keys in
  let k = ref 2 in
  while !k <= n do
    let j = ref (!k / 2) in
    while !j > 0 do
      for i = 0 to n - 1 do
        let l = i lxor !j in
        if l > i then begin
          let up = i land !k = 0 in
          let x = keys.(i) and y = keys.(l) in
          if x > y = up then begin
            keys.(i) <- y;
            keys.(l) <- x
          end
        end
      done;
      j := !j / 2
    done;
    k := 2 * !k
  done

(* Open-addressing table, cleared and filled on every run. *)
let slots = Array.make 16384 (-1)

let rec insert key h mask =
  let s = slots.(h) in
  if s = key then 1
  else if s = -1 then begin
    slots.(h) <- key;
    0
  end
  else insert key ((h + 1) land mask) mask

let probe_all () =
  Array.fill slots 0 (Array.length slots) (-1);
  let mask = Array.length slots - 1 in
  let hits = ref 0 in
  for i = 0 to Array.length keys - 1 do
    let key = keys.(i) in
    hits := !hits + insert key (((key * 0x2545f491) lsr 7) land mask) mask
  done;
  !hits

(* A random cycle through 2^20 slots (8 MiB, outside the OCaml heap),
   made by Sattolo's shuffle: following it misses the caches on almost
   every load. *)
let chain =
  let n = 1 lsl 20 in
  let a = Bigarray.(Array1.create int32 c_layout n) in
  for i = 0 to n - 1 do
    a.{i} <- Int32.of_int i
  done;
  let st = ref 12345 in
  for i = n - 1 downto 1 do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    let j = !st mod i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

let chase steps =
  let p = ref 0 in
  for _ = 1 to steps do
    p := Int32.to_int (Bigarray.Array1.unsafe_get chain !p)
  done;
  !p

(* Two 4 MiB buffers outside the OCaml heap, copied into each other:
   the streaming writes and reads a program's allocation and block
   copies make. *)
let stream_bytes = 4 lsl 20

let streams =
  Array.init 2 (fun k ->
      let a = Bigarray.(Array1.create char c_layout stream_bytes) in
      for i = 0 to stream_bytes - 1 do
        a.{i} <- Char.chr ((i + k) land 255)
      done;
      a)

let stream () =
  Bigarray.Array1.blit streams.(0) streams.(1);
  Bigarray.Array1.blit streams.(1) streams.(0);
  Char.code streams.(0).{stream_bytes / 3}

(* One run of the kernel; returns a checksum of what it computed. *)
let kernel () =
  Bytes.blit seed 0 buf_a 0 block_bytes;
  for _ = 1 to passes / 2 do
    cipher buf_a buf_b;
    cipher buf_b buf_a
  done;
  for i = 0 to Array.length keys - 1 do
    keys.(i) <- (Int32.to_int (Bytes.get_int32_le buf_a (4 * (i land 2047))) lxor i) land 0xfffff
  done;
  bitonic ();
  let acc = ref (probe_all () + chase 12_000 + stream ()) in
  for i = 0 to Array.length keys - 1 do
    acc := ((!acc * 31) + keys.(i)) land 0xffffffff
  done;
  !acc

let checksum = lazy (kernel ())

(* Minor-heap words one kernel run allocates (the self-test wants 0). *)
let words () =
  ignore (Lazy.force checksum);
  let w0 = Gc.minor_words () in
  ignore (kernel ());
  Gc.minor_words () -. w0

(* Wall time of one kernel run, seconds.  The checksum must not change
   from run to run. *)
let time () =
  let expected = Lazy.force checksum in
  let t0 = Pb_util.now () in
  let c = kernel () in
  let dt = Pb_util.now () -. t0 in
  if c <> expected then failwith "reference kernel: checksum changed";
  dt

