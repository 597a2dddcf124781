type t = Xoshiro.t

let create ?(seed = 0x5EEDL) () = Xoshiro.create seed

let of_int seed = Xoshiro.of_int seed

let split = Xoshiro.split

let copy = Xoshiro.copy

let advance = Xoshiro.advance

let bits64 = Xoshiro.next_int64

(* Non-negative 62-bit integer: the output's top 62 bits, so the result
   always fits OCaml's 63-bit int without sign surprises. *)
let bits t = Xoshiro.next_bits t 2

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits t land (bound - 1)
  else begin
    (* Rejection sampling to avoid modulo bias. *)
    let max_usable = 0x3FFF_FFFF_FFFF_FFFF / bound * bound in
    let v = ref (bits t) in
    while !v >= max_usable do
      v := bits t
    done;
    !v mod bound
  end

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 random bits scaled to [0,1). *)
  float_of_int (Xoshiro.next_bits t 11) *. 0x1.0p-53

let float_range t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let bool t = Xoshiro.next_bits t 0 land 1 = 1

let bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle_in_place t arr =
  (* Fisher–Yates. *)
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t n =
  let arr = Array.init n (fun i -> i) in
  shuffle_in_place t arr;
  arr
