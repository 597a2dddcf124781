(* Discrete samplers built on Rng. All tables are immutable once built so a
   single table can be shared by many generators/threads. *)

type cdf = { cumulative : float array }

let cdf_of_weights weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Sample.cdf_of_weights: empty weights";
  let cumulative = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let w = weights.(i) in
    if w < 0.0 || Float.is_nan w then
      invalid_arg "Sample.cdf_of_weights: negative or NaN weight";
    total := !total +. w;
    cumulative.(i) <- !total
  done;
  if !total <= 0.0 then invalid_arg "Sample.cdf_of_weights: zero total weight";
  for i = 0 to n - 1 do
    cumulative.(i) <- cumulative.(i) /. !total
  done;
  cumulative.(n - 1) <- 1.0;
  { cumulative }

let cdf_size { cumulative } = Array.length cumulative

(* First index i with cumulative.(i) > u; u in [0,1). *)
let cdf_draw { cumulative } rng =
  let u = Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length cumulative - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cumulative.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let cdf_probability { cumulative } i =
  if i < 0 || i >= Array.length cumulative then
    invalid_arg "Sample.cdf_probability: index out of range";
  if i = 0 then cumulative.(0) else cumulative.(i) -. cumulative.(i - 1)

let exponential rng ~rate =
  if rate <= 0.0 then invalid_arg "Sample.exponential: rate must be positive";
  (* 1 - u avoids log 0. *)
  -.log (1.0 -. Rng.float rng) /. rate

let geometric rng ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Sample.geometric: p must be in (0,1]";
  if Float.equal p 1.0 then 1
  else
    (* Number of Bernoulli(p) trials up to and including the first success. *)
    let u = 1.0 -. Rng.float rng in
    1 + int_of_float (floor (log u /. log (1.0 -. p)))

let poisson rng ~lambda =
  if lambda < 0.0 then invalid_arg "Sample.poisson: lambda must be non-negative";
  if Float.equal lambda 0.0 then 0
  else if lambda < 30.0 then begin
    (* Knuth's product-of-uniforms method. *)
    let limit = exp (-.lambda) in
    let rec go k prod =
      let prod = prod *. Rng.float rng in
      if prod <= limit then k else go (k + 1) prod
    in
    go 0 1.0
  end
  else begin
    (* Split: Poisson(a+b) = Poisson(a) + Poisson(b). Keeps each chunk in
       the numerically safe range of the product method. *)
    let chunk = 20.0 in
    let rec go remaining acc =
      if remaining > chunk then go (remaining -. chunk) (acc + poisson_chunk rng chunk)
      else acc + poisson_chunk rng remaining
    and poisson_chunk rng lambda =
      let limit = exp (-.lambda) in
      let rec inner k prod =
        let prod = prod *. Rng.float rng in
        if prod <= limit then k else inner (k + 1) prod
      in
      inner 0 1.0
    in
    go lambda 0
  end

let binomial rng ~n ~p =
  if n < 0 then invalid_arg "Sample.binomial: n must be non-negative";
  if p < 0.0 || p > 1.0 then invalid_arg "Sample.binomial: p must be in [0,1]";
  (* Direct Bernoulli sum; n in our workloads is small (node degrees). *)
  let count = ref 0 in
  for _ = 1 to n do
    if Rng.float rng < p then incr count
  done;
  !count

type power_law = {
  max_length : int;
  prefix : float array; (* prefix.(i) = sum_{d=1..i+1} d^-exponent *)
  exponent : float;
  offset : float; (* C in prefix.(d-1) ~ F(d) + C, fitted at d = max_length *)
}

(* F, the antiderivative of x^-exponent: the prefix sum grows like F(d)
   plus a constant. *)
let antiderivative exponent x =
  if Float.equal exponent 1.0 then log x
  else Float.pow x (1.0 -. exponent) /. (1.0 -. exponent)

let power_law ~exponent ~max_length =
  if max_length < 1 then invalid_arg "Sample.power_law: max_length must be >= 1";
  let prefix = Array.make max_length 0.0 in
  let acc = ref 0.0 in
  (* pow d 1 is d exactly, so the harmonic table skips the [pow] call,
     most of the table's cost, and stays bit for bit the same. *)
  let harmonic = Float.equal exponent 1.0 in
  for d = 1 to max_length do
    let x = float_of_int d in
    acc := !acc +. (1.0 /. if harmonic then x else Float.pow x exponent);
    prefix.(d - 1) <- !acc
  done;
  let offset = !acc -. antiderivative exponent (float_of_int max_length) in
  { max_length; prefix; exponent; offset }

let power_law_total t ~upto =
  if upto < 0 || upto > t.max_length then
    invalid_arg "Sample.power_law_total: out of range";
  if upto = 0 then 0.0 else t.prefix.(upto - 1)

(* Where the answer to [target] should be: the x solving F(x) + C = target,
   less the half step that the Euler-Maclaurin term d^-exponent / 2 adds
   to the prefix sum, as an index clamped to [0, last]. It only sets where
   the search starts; a NaN or infinite x just starts it at an end. *)
let[@inline] guess t target last =
  let x =
    if Float.equal t.exponent 1.0 then exp (target -. t.offset)
    else
      (* v <= 0 when the target lies outside F's range; pow (0, 1/e) is
         then 0 for e > 0 and +inf for e < 0, the end it lies beyond. *)
      let e = 1.0 -. t.exponent in
      let v = (target -. t.offset) *. e in
      Float.pow (if v > 0.0 then v else 0.0) (1.0 /. e)
  in
  let g = x -. 0.5 in
  if g >= float_of_int last then last else if g >= 1.0 then int_of_float g else 0

(* The answer is the first index i < last with prefix.(i) > target, or
   [last] if there is none, plus one. Every probe tests that predicate and
   the search narrows a bracket (lo, hi] that holds the answer: lo = -1
   or fails it, hi = last or passes it. For a nondecreasing table the
   predicate is monotone, so the answer is the one the plain binary search
   over [0, last] finds; the guess only decides how many probes it takes.
   From the guess, gallop outward by 1, 2, 4, ... until the bracket
   closes, then bisect it. Inlined into both entry points, so [target]
   is never boxed: a draw allocates nothing. *)
let[@inline] search t ~last target =
  let prefix = t.prefix in
  let g = guess t target last in
  let lo = ref (-1) and hi = ref last in
  if g = last || prefix.(g) > target then begin
    hi := g;
    let step = ref 1 in
    while !lo < 0 && g - !step >= 0 do
      let i = g - !step in
      if prefix.(i) > target then begin
        hi := i;
        step := 2 * !step
      end
      else lo := i
    done
  end
  else begin
    lo := g;
    let step = ref 1 in
    while !hi = last && g + !step < last do
      let i = g + !step in
      if prefix.(i) > target then hi := i
      else begin
        lo := i;
        step := 2 * !step
      end
    done
  end;
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if prefix.(mid) > target then hi := mid else lo := mid
  done;
  !hi + 1

let power_law_quantile t ~upto u =
  if upto < 1 || upto > t.max_length then
    invalid_arg "Sample.power_law_quantile: upto out of range";
  search t ~last:(upto - 1) (u *. t.prefix.(upto - 1))

let power_law_draw t rng ~upto =
  if upto < 1 || upto > t.max_length then
    invalid_arg "Sample.power_law_draw: upto out of range";
  search t ~last:(upto - 1) (Rng.float rng *. t.prefix.(upto - 1))
