(* The four xoshiro256** words live unboxed in one 32-byte buffer (s0..s3
   at byte offsets 0, 8, 16, 24), read and written through the unboxed
   64-bit bytes primitives.  A step keeps the words in let-bound locals,
   which the native compiler holds in registers, so [bits53] and every
   [int]-returning draw allocate nothing; [int64] fields of a record would
   be boxed, one allocation per word per step. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* SplitMix64: used only to expand a seed into the four xoshiro words, and to
   derive split streams. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let state = ref seed64 in
  let t = Bytes.create 32 in
  for word = 0 to 3 do
    set64 t (8 * word) (splitmix_next state)
  done;
  t

let create seed = of_seed64 (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] int64 t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  result

let split t = of_seed64 (int64 t)

let[@inline] bits30 t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (int64 t) 11)

let rec int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound <= 1 lsl 30 then begin
    (* Rejection sampling to avoid modulo bias. *)
    let r = bits30 t in
    let v = r mod bound in
    if r - v + (bound - 1) < 1 lsl 30 then v else int t bound
  end
  else begin
    let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
    let v = r mod bound in
    if r - v + (bound - 1) >= 0 then v else int t bound
  end

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t = float_of_int (bits53 t) *. 0x1p-53

let bool t = Int64.compare (Int64.logand (int64 t) 1L) 0L <> 0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
