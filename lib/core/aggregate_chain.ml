module Rng = Ftr_prng.Rng

(* A ∆ distribution in the sense of Section 4.2.2: every node's offset set
   is drawn independently, always contains ±1, and includes each further
   offset ±d independently with probability [p d].

   Simulations never need the whole ∆ — greedy steps only consume the
   included offsets nearest the current position. Because inclusions are
   independent, the extreme included offset of a range can be drawn
   directly by inverting the exact survival function
   P[no inclusion in (y, x]] = prod_{d in (y, x]} (1 - p d), whose log is
   precomputed as a prefix sum — O(log n) per draw instead of O(n)
   Bernoulli trials. *)
type dist = {
  max_offset : int;
  p : int -> float;
  certain_upto : int; (* p d = 1 for every d <= certain_upto (at least 1) *)
  log_survival : float array;
      (* log_survival.(d) = sum over k in (certain_upto, d] of ln(1 - p k);
         0 for d <= certain_upto; a non-increasing sequence *)
}

let make ~max_offset ~p =
  if max_offset < 1 then invalid_arg "Aggregate_chain.make: max_offset must be >= 1";
  let clamp d =
    let v = p d in
    if Float.is_nan v || v < 0.0 || v > 1.0 then
      invalid_arg "Aggregate_chain.make: inclusion probability outside [0,1]";
    v
  in
  let certain_upto =
    let rec scan d = if d <= max_offset && clamp d >= 1.0 then scan (d + 1) else d - 1 in
    max 1 (scan 1)
  in
  let log_survival = Array.make (max_offset + 1) 0.0 in
  for d = certain_upto + 1 to max_offset do
    let pd = clamp d in
    (* A later certain offset would break the prefix trick; treat it as a
       (measure-zero) near-certainty instead. *)
    let pd = Float.min pd (1.0 -. 1e-12) in
    log_survival.(d) <- log_survival.(d - 1) +. log1p (-.pd)
  done;
  { max_offset; p; certain_upto; log_survival }

(* Largest included offset <= upto; at least 1 always exists. *)
let largest_included dist rng ~upto =
  if upto < 1 then invalid_arg "Aggregate_chain.largest_included: upto must be >= 1";
  let upto = min upto dist.max_offset in
  if upto <= dist.certain_upto then upto
  else begin
    (* P[largest < y] = P[no inclusion in [y, upto]]
                      = exp(ls.(upto) - ls.(y - 1)) for y > certain_upto. *)
    let u = Rng.float rng in
    if u < exp (dist.log_survival.(upto) -. dist.log_survival.(dist.certain_upto)) then
      dist.certain_upto
    else begin
      (* Largest y with exp(ls.(upto) - ls.(y - 1)) <= u, i.e. the
         inclusion at y "survived" the u-threshold. G(y) is monotone
         increasing in y; binary search the crossing. *)
      let target = dist.log_survival.(upto) -. log u in
      (* want largest y with ls.(y - 1) >= target... ls decreasing, so the
         set of valid y is a prefix; binary search its end. *)
      let lo = ref (dist.certain_upto + 1) and hi = ref upto in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if dist.log_survival.(mid - 1) >= target then lo := mid else hi := mid - 1
      done;
      !lo
    end
  end

(* Smallest included offset in (above, max_offset]; None if the whole
   range came up empty. *)
let smallest_included_above dist rng ~above =
  if above >= dist.max_offset then None
  else if above < dist.certain_upto then Some (above + 1)
  else begin
    let base = max above dist.certain_upto in
    let u = Rng.float rng in
    if u < exp (dist.log_survival.(dist.max_offset) -. dist.log_survival.(base)) then None
    else begin
      (* P[smallest > z] = exp(ls.(z) - ls.(base)); find smallest z whose
         inclusion crosses the u-threshold. *)
      let target = dist.log_survival.(base) +. log u in
      (* smallest z in (base, max] with ls.(z) <= target. *)
      let lo = ref (base + 1) and hi = ref dist.max_offset in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if dist.log_survival.(mid) <= target then hi := mid else lo := mid + 1
      done;
      Some !lo
    end
  end

(* The harmonic distribution matching the paper's upper-bound model: offset
   ±d present with probability min(1, c/d), scaled so the expected number
   of long offsets per side is about [links]. *)
let harmonic ~links ~max_offset =
  if links < 1 then invalid_arg "Aggregate_chain.harmonic: links must be >= 1";
  let h = Ftr_stats.Harmonic.number max_offset in
  let c = float_of_int links /. h in
  make ~max_offset ~p:(fun d ->
      if d = 1 then 1.0 else Float.min 1.0 (c /. float_of_int d))

let uniform ~links ~max_offset =
  if links < 1 then invalid_arg "Aggregate_chain.uniform: links must be >= 1";
  let p = Float.min 1.0 (float_of_int links /. float_of_int max_offset) in
  make ~max_offset ~p:(fun d -> if d = 1 then 1.0 else p)

let mean_size dist =
  (* E|∆| counting both signs. *)
  let acc = ref 0.0 in
  for d = 1 to dist.max_offset do
    acc := !acc +. (2.0 *. dist.p d)
  done;
  !acc

(* Draw the positive half of a ∆ set, sorted ascending; 1 is always
   included. Sufficient for the one-sided chain, which never uses negative
   offsets. *)
let sample_positive dist rng =
  let acc = ref [] in
  for d = dist.max_offset downto 2 do
    if Rng.bernoulli rng (dist.p d) then acc := d :: !acc
  done;
  Array.of_list (1 :: !acc)

(* One-sided greedy single-point chain (Section 4.2.3): from x > 0 bound
   for 0, jump to x - δ for the largest sampled δ <= x. Counts steps to
   absorption. *)
let simulate_single_point dist rng ~start =
  if start < 0 then invalid_arg "Aggregate_chain.simulate_single_point: negative start";
  let steps = ref 0 and x = ref start in
  while !x > 0 do
    (* The only statistic of ∆ a one-sided greedy step consumes. *)
    x := !x - largest_included dist rng ~upto:!x;
    incr steps
  done;
  !steps

(* One-sided aggregate chain (Section 4.2.3): the state is the interval
   {1..k}, split by a fresh ∆ into subranges jumping by the same offset;
   the successor subrange is chosen with probability proportional to its
   size (equation 14). Absorbing state is {0}. *)
let simulate_aggregate dist rng ~start =
  if start < 1 then invalid_arg "Aggregate_chain.simulate_aggregate: start must be >= 1";
  let steps = ref 0 and k = ref start in
  while !k > 0 do
    (* Nodes x in [δ_i, min(k, δ_{i+1} - 1)] all jump by δ_i. Within that
       subrange, x = δ_i lands on 0 (σ = 0) and the rest land on
       {1 .. m_i} (σ = +). Choose among all non-empty pieces with
       probability proportional to size. *)
    let total = !k in
    let u = Rng.int rng total + 1 in
    (* u is the rank of a uniformly chosen node of {1..k}; find its piece
       and apply the jump, which is exactly the size-proportional choice. *)
    let x = u in
    let jump = largest_included dist rng ~upto:x in
    let landed = x - jump in
    if landed = 0 then k := 0
    else begin
      (* The subrange containing x is [jump, min(k, next - 1)]; its σ = +
         part maps onto {1 .. m} with m = min(k, next - 1) - jump. The
         greedy choice already rules inclusions in (jump, x] out, so the
         next-larger offset lives in (x, max]. *)
      let next =
        match smallest_included_above dist rng ~above:x with
        | Some d -> d
        | None -> max_int
      in
      let hi = min !k (if next = max_int then !k else next - 1) in
      k := hi - jump
    end;
    incr steps
  done;
  !steps

(* Empirical check of Lemma 6: Pr[|S^{t+1}| <= |S^t| / a] <= 3 ℓ / a,
   estimated over [trials] one-step transitions from state {1..k}. *)
let lemma6_drop_probability dist rng ~k ~a ~trials =
  if k < 1 then invalid_arg "Aggregate_chain.lemma6_drop_probability: k must be >= 1";
  if a < 1.0 then invalid_arg "Aggregate_chain.lemma6_drop_probability: a must be >= 1";
  if trials < 1 then invalid_arg "Aggregate_chain.lemma6_drop_probability: trials must be >= 1";
  let threshold = float_of_int k /. a in
  let drops = ref 0 in
  for _ = 1 to trials do
    let x = Rng.int rng k + 1 in
    let jump = largest_included dist rng ~upto:x in
    let landed = x - jump in
    let size =
      if landed = 0 then 1
      else begin
        let next =
          match smallest_included_above dist rng ~above:x with
          | Some d -> d
          | None -> max_int
        in
        let hi = min k (if next = max_int then k else next - 1) in
        hi - jump
      end
    in
    if float_of_int size <= threshold then incr drops
  done;
  float_of_int !drops /. float_of_int trials

let mean_steps ~simulate dist rng ~start ~trials =
  if trials < 1 then invalid_arg "Aggregate_chain.mean_steps: trials must be >= 1";
  let summary = Ftr_stats.Summary.create () in
  for _ = 1 to trials do
    Ftr_stats.Summary.add_int summary (simulate dist rng ~start)
  done;
  summary

let mean_single_point = mean_steps ~simulate:simulate_single_point

let mean_aggregate = mean_steps ~simulate:simulate_aggregate

(* Draw a full ∆ (both signs), sorted ascending, always containing ±1. *)
let sample_full dist rng =
  let acc = ref [ 1 ] in
  for d = 2 to dist.max_offset do
    if Rng.bernoulli rng (dist.p d) then acc := d :: !acc
  done;
  let neg = ref [ -1 ] in
  for d = 2 to dist.max_offset do
    if Rng.bernoulli rng (dist.p d) then neg := -d :: !neg
  done;
  let arr = Array.of_list (List.rev_append !neg !acc) in
  Array.sort Int.compare arr;
  arr

(* Two-sided greedy single-point chain (Section 4.2.1): from x bound for 0,
   jump to the x - δ of smallest absolute value; ties to the smaller
   magnitude of δ first encountered. |x| strictly decreases (δ = sign(x))
   so absorption is certain. *)
let simulate_two_sided dist rng ~start =
  if start < 0 then invalid_arg "Aggregate_chain.simulate_two_sided: negative start";
  let steps = ref 0 and x = ref start in
  while !x <> 0 do
    (* By symmetry treat x > 0; negative offsets only move a positive x
       away from 0, so the two candidates a greedy two-sided step can take
       are the nearest included offsets on either side of x. *)
    let ax = abs !x in
    let below = largest_included dist rng ~upto:ax in
    let above = smallest_included_above dist rng ~above:ax in
    let landed_below = ax - below in
    let landed =
      match above with
      | Some d when d - ax < landed_below -> ax - d (* overshoot, closer in absolute value *)
      | Some _ | None -> landed_below
    in
    x := (if !x > 0 then landed else -landed);
    incr steps
  done;
  !steps
