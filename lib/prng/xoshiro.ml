(* The four state words live unboxed in one 32-byte buffer, s0..s3 at byte
   offsets 0, 8, 16, 24: a step reads and writes them in place, so its
   int64 arithmetic stays in registers and [next_bits] allocates nothing.
   The buffer is abstract and always 32 bytes, so the unchecked
   native-endian accessors are safe; only these two touch it, so the
   byte order never shows. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get t i = get64 t (i * 8)

let[@inline] set t i v = set64 t (i * 8) v

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let of_state s0 s1 s2 s3 =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro.of_state: all-zero state";
  make s0 s1 s2 s3

let of_splitmix sm =
  let s0 = Splitmix64.next_int64 sm in
  let s1 = Splitmix64.next_int64 sm in
  let s2 = Splitmix64.next_int64 sm in
  let s3 = Splitmix64.next_int64 sm in
  (* SplitMix64 output is equidistributed so an all-zero draw is all but
     impossible, but the xoshiro state must never be all zero. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then make 1L s1 s2 s3 else make s0 s1 s2 s3

let create seed = of_splitmix (Splitmix64.create seed)

let of_int seed = create (Int64.of_int seed)

(* xoshiro256** next(): the state transition is a linear map on GF(2)^256;
   the star-star scrambler breaks its linearity in the output. Every
   intermediate is a local, so the compiler keeps it unboxed. *)
let[@inline] next t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 1 (Int64.logxor s1 s2);
  set t 0 (Int64.logxor s0 s3);
  set t 2 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 3 (rotl s3 45);
  result

let next_int64 t = next t

let next_bits t shift = Int64.to_int (Int64.shift_right_logical (next t) shift)

let copy = Bytes.copy

let split t =
  (* Derive an independent stream by reseeding SplitMix64 from the parent.
     The derived stream's trajectory is decorrelated from the parent's. *)
  let sm = Splitmix64.create (next_int64 t) in
  of_splitmix sm

(* Skip-ahead. The transition T is linear over GF(2), so T^k = r(T) for
   r = x^k mod p, where p is T's characteristic polynomial (degree 256,
   Cayley-Hamilton). Polynomials of degree < 256 are eight 32-bit limbs,
   little-endian, in OCaml ints: bit b of limb l is the coefficient of
   x^(32l + b). *)
let limbs_of_words words =
  Array.init 8 (fun l ->
      Int64.to_int
        (Int64.logand (Int64.shift_right_logical words.(l / 2) (32 * (l land 1))) 0xFFFF_FFFFL))

let words_of_limbs limbs =
  Array.init 4 (fun w ->
      Int64.logor
        (Int64.of_int limbs.(2 * w))
        (Int64.shift_left (Int64.of_int limbs.((2 * w) + 1)) 32))

(* p - x^256, found by Berlekamp-Massey over the sequence of one state
   bit. The test suite checks x^(2^128) mod p against the reference
   implementation's JUMP constant. A fresh array per call: the limbs are
   never shared between domains. *)
let char_poly () =
  limbs_of_words
    [| 0x9d116f2bb0f0f001L; 0x0280002bcefd1a5eL; 0x04b4edcf26259f85L; 0x0003c03c3f3ecb19L |]

let[@inline] coefficient a i = (a.(i lsr 5) lsr (i land 31)) land 1 = 1

(* r^2 mod p. Over GF(2) squaring moves the coefficient of x^i to x^2i;
   each term x^(256+s) left above degree 255 is then folded back as
   x^s (p - x^256), from the top down. A limb shifted left by at most 31
   bits fits the 63-bit int. *)
let square_mod p r =
  let sq = Array.make 16 0 in
  for i = 0 to 255 do
    if coefficient r i then sq.(i lsr 4) <- sq.(i lsr 4) lor (1 lsl ((2 * i) land 31))
  done;
  for i = 510 downto 256 do
    if coefficient sq i then begin
      sq.(i lsr 5) <- sq.(i lsr 5) lxor (1 lsl (i land 31));
      let q = (i - 256) lsr 5 and b = (i - 256) land 31 in
      for l = 0 to 7 do
        let v = p.(l) lsl b in
        sq.(q + l) <- sq.(q + l) lxor (v land 0xFFFF_FFFF);
        sq.(q + l + 1) <- sq.(q + l + 1) lxor (v lsr 32)
      done
    end
  done;
  Array.sub sq 0 8

(* t <- r(T) t, the sum of T^i t over the coefficients of r: one pass of
   256 steps over a copy, accumulating its states. *)
let apply t r =
  let cur = copy t and acc = Bytes.make 32 '\000' in
  for i = 0 to 255 do
    if coefficient r i then
      for w = 0 to 3 do
        set acc w (Int64.logxor (get acc w) (get cur w))
      done;
    ignore (next cur)
  done;
  Bytes.blit acc 0 t 0 32

(* The polynomial x. *)
let x_poly () = Array.init 8 (fun l -> if l = 0 then 2 else 0)

(* T^k is the product of T^(2^j) over the set bits j of k, and
   x^(2^j) mod p is x squared j times. *)
let advance t k =
  if k < 0 then invalid_arg "Xoshiro.advance: negative step count";
  let p = char_poly () and r = ref (x_poly ()) and k = ref k in
  while !k > 0 do
    if !k land 1 = 1 then apply t !r;
    k := !k lsr 1;
    if !k > 0 then r := square_mod p !r
  done

let jump_poly j =
  if j < 0 then invalid_arg "Xoshiro.jump_poly: negative exponent";
  let p = char_poly () and r = ref (x_poly ()) in
  for _ = 1 to j do
    r := square_mod p !r
  done;
  words_of_limbs !r
