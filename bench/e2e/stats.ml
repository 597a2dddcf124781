(* ftr-lint: disable-file R1 T2 -- part of the benchmark harness, whose wall-clock reads are the measurement *)

(* The statistics the benchmark reports and the rules it compares runs
   by. Pure functions only, so test_e2e.ml can pin every edge case. *)

(* ------------------------------------------------------------------ *)
(* Weighted samples and nearest-rank percentiles                       *)
(* ------------------------------------------------------------------ *)

(* A multiset of values with integer multiplicities. Lookups that finish
   together share one latency (every pair of a routed window, every
   request issued in tick i and completed in tick j), so they are added
   once with their count. A failed or timed-out lookup is added as
   [infinity]: it misses every latency limit. *)
type samples = { mutable values : float array; mutable weights : int array; mutable len : int }

let samples () = { values = Array.make 64 0.0; weights = Array.make 64 0; len = 0 }

let add ?(weight = 1) s v =
  if weight < 0 then invalid_arg "Stats.add: negative weight";
  if Float.is_nan v then invalid_arg "Stats.add: NaN sample";
  if weight > 0 then begin
    if s.len = Array.length s.values then begin
      let grow a fill =
        let b = Array.make (2 * s.len) fill in
        Array.blit a 0 b 0 s.len;
        b
      in
      s.values <- grow s.values 0.0;
      s.weights <- grow s.weights 0
    end;
    s.values.(s.len) <- v;
    s.weights.(s.len) <- weight;
    s.len <- s.len + 1
  end

let count s =
  let c = ref 0 in
  for i = 0 to s.len - 1 do
    c := !c + s.weights.(i)
  done;
  !c

(* The smallest value v such that at least [q] of the total weight is
   <= v (nearest rank, no interpolation): with 1,000 samples p99 is the
   990th smallest, and once more than 1% of them are [infinity] p99 is
   [infinity] too. NaN on an empty set. *)
let percentile s q =
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q outside [0, 1]";
  let total = count s in
  if total = 0 then nan
  else begin
    let order = Array.init s.len Fun.id in
    Array.sort (fun a b -> Float.compare s.values.(a) s.values.(b)) order;
    let need = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let rec scan i cum =
      let k = order.(i) in
      let cum = cum + s.weights.(k) in
      if cum >= need || i = s.len - 1 then s.values.(k) else scan (i + 1) cum
    in
    scan 0 0
  end

(* Exact integer histogram (hop counts): mean and nearest-rank quantile. *)
type hist = { mutable bins : int array; mutable n : int; mutable sum : int }

let hist () = { bins = Array.make 64 0; n = 0; sum = 0 }

let hist_add h v =
  if v < 0 then invalid_arg "Stats.hist_add: negative value";
  if v >= Array.length h.bins then begin
    let b = Array.make (max (2 * Array.length h.bins) (v + 1)) 0 in
    Array.blit h.bins 0 b 0 (Array.length h.bins);
    h.bins <- b
  end;
  h.bins.(v) <- h.bins.(v) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum + v

let hist_mean h = if h.n = 0 then nan else float_of_int h.sum /. float_of_int h.n

let hist_quantile h q =
  if h.n = 0 then nan
  else begin
    let need = max 1 (int_of_float (Float.ceil (q *. float_of_int h.n))) in
    let rec scan v cum =
      let cum = cum + h.bins.(v) in
      if cum >= need then float_of_int v else scan (v + 1) cum
    in
    scan 0 0
  end

(* ------------------------------------------------------------------ *)
(* Run sets                                                            *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method) computes them, so the spread this tool
   prints is the spread a reader recomputes from the same values. A
   single value is its own quartiles. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  match Array.length a with
  | 0 -> (nan, nan, nan)
  | 1 -> (a.(0), a.(0), a.(0))
  | n ->
      let m = n + 1 in
      let cut i =
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
      in
      (cut 1, cut 2, cut 3)

(* Distance between the quartiles as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if Float.equal m 0.0 then nan else (q3 -. q1) /. Float.abs m

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg (Printf.sprintf "Stats.better_of_string: %S" s)

(* How much worse [cand]'s median is than [base]'s, as a share of the
   base median (negative when it is better). *)
let worse_share ~better ~base ~cand =
  let mb = median base and mc = median cand in
  let d = match better with Lower -> mc -. mb | Higher -> mb -. mc in
  d /. Float.abs mb

(* The regression rule BENCHMARK.json's bounds define: [cand] regresses
   when its median is worse than [base]'s by more than [bound]. *)
let regresses ~better ~bound ~base ~cand = worse_share ~better ~base ~cand > bound

(* Every candidate run reads better than every base run: the one case in
   which a metric whose spread exceeds its bound still counts as better
   rather than unresolved. *)
let all_better ~better ~base ~cand =
  match better with
  | Lower -> List.fold_left Float.max neg_infinity cand < List.fold_left Float.min infinity base
  | Higher -> List.fold_left Float.min infinity cand > List.fold_left Float.max neg_infinity base

(* The gain rule for alternating pairs (base_i, cand_i): the candidate
   must win at least nine tenths of all pairs (ties count for neither)
   and the medians must differ by more than the base's own quartile
   distance. *)
let wins ~better ~base ~cand =
  let pairs = List.length base in
  if pairs = 0 || pairs <> List.length cand then invalid_arg "Stats.wins: need equal, non-empty sets";
  let won =
    List.length
      (List.filter Fun.id
         (List.map2 (fun b c -> match better with Lower -> c < b | Higher -> c > b) base cand))
  in
  let q1, _, q3 = quartiles base in
  let gap = Float.abs (median cand -. median base) in
  10 * won >= 9 * pairs && gap > q3 -. q1
