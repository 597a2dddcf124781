module Splitmix64 = Ftr_prng.Splitmix64
module Xoshiro = Ftr_prng.Xoshiro
module Rng = Ftr_prng.Rng
module Sample = Ftr_prng.Sample

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* SplitMix64                                                          *)
(* ------------------------------------------------------------------ *)

(* Published reference outputs for seed 0 (Steele/Lea/Flood; also used as
   the test vector set of the xoshiro distribution). *)
let splitmix_seed0_vectors () =
  let sm = Splitmix64.create 0L in
  List.iter
    (fun expected ->
      Alcotest.(check int64) "seed-0 stream" expected (Splitmix64.next_int64 sm))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL; 0xF88BB8A8724C81ECL ]

let splitmix_determinism () =
  let a = Splitmix64.of_int 99 and b = Splitmix64.of_int 99 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed same stream" (Splitmix64.next_int64 a)
      (Splitmix64.next_int64 b)
  done

let splitmix_copy_independent () =
  let a = Splitmix64.of_int 5 in
  ignore (Splitmix64.next_int64 a);
  let b = Splitmix64.copy a in
  let va = Splitmix64.next_int64 a in
  let vb = Splitmix64.next_int64 b in
  Alcotest.(check int64) "copy continues identically" va vb;
  ignore (Splitmix64.next_int64 a);
  Alcotest.(check bool) "states advanced separately" true
    (Splitmix64.state a <> Splitmix64.state b)

let splitmix_distinct_seeds () =
  let a = Splitmix64.of_int 1 and b = Splitmix64.of_int 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Splitmix64.next_int64 a <> Splitmix64.next_int64 b)

(* ------------------------------------------------------------------ *)
(* xoshiro256**                                                        *)
(* ------------------------------------------------------------------ *)

let xoshiro_rejects_zero_state () =
  Alcotest.check_raises "all-zero state" (Invalid_argument "Xoshiro.of_state: all-zero state")
    (fun () -> ignore (Xoshiro.of_state 0L 0L 0L 0L))

let xoshiro_determinism () =
  let a = Xoshiro.of_int 7 and b = Xoshiro.of_int 7 in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same stream" (Xoshiro.next_int64 a) (Xoshiro.next_int64 b)
  done

let xoshiro_split_decorrelates () =
  let parent = Xoshiro.of_int 7 in
  let child = Xoshiro.split parent in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Xoshiro.next_int64 parent = Xoshiro.next_int64 child then incr matches
  done;
  Alcotest.(check int) "no matching outputs in 64 draws" 0 !matches

let xoshiro_copy () =
  let a = Xoshiro.of_int 3 in
  ignore (Xoshiro.next_int64 a);
  let b = Xoshiro.copy a in
  Alcotest.(check int64) "copy replays" (Xoshiro.next_int64 a) (Xoshiro.next_int64 b)

(* Skip-ahead. The reference implementation's jump functions apply a
   fixed polynomial in the transition, x^(2^128) (JUMP) and x^(2^192)
   (LONG_JUMP) mod the characteristic polynomial, as four words: the
   polynomial [Xoshiro.advance] reduces by must reproduce them. *)
let xoshiro_jump_constants () =
  let words = Alcotest.(array int64) in
  Alcotest.check words "x^(2^128) mod p is JUMP"
    [| 0x180ec6d33cfd0abaL; 0xd5a61266f0c9392cL; 0xa9582618e03fc9aaL; 0x39abdc4529b1661cL |]
    (Xoshiro.jump_poly 128);
  Alcotest.check words "x^(2^192) mod p is LONG_JUMP"
    [| 0x76e15d3efefdcbbfL; 0xc5004e441c522fb3L; 0x77710069854ee241L; 0x39109bb02acbe635L |]
    (Xoshiro.jump_poly 192);
  Alcotest.check words "x^(2^0) is x" [| 2L; 0L; 0L; 0L |] (Xoshiro.jump_poly 0)

(* The next four outputs of a copy: they pin the state without advancing
   the generator itself. *)
let peek t =
  let c = Xoshiro.copy t in
  List.init 4 (fun _ -> Xoshiro.next_int64 c)

let xoshiro_advance_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Xoshiro.advance: negative step count")
    (fun () -> Xoshiro.advance (Xoshiro.of_int 1) (-1))

let prop_advance_is_steps =
  QCheck.Test.make ~name:"Xoshiro.advance k = k single steps" ~count:60
    QCheck.(pair small_int (int_bound 100_000))
    (fun (seed, k) ->
      let a = Xoshiro.of_int seed in
      let b = Xoshiro.copy a in
      Xoshiro.advance a k;
      for _ = 1 to k do
        ignore (Xoshiro.next_int64 b)
      done;
      peek a = peek b)

let prop_advance_composes =
  QCheck.Test.make ~name:"Xoshiro.advance a; advance b = advance (a+b); advance 0 = id"
    ~count:200
    QCheck.(triple small_int (int_bound (1 lsl 40)) (int_bound (1 lsl 40)))
    (fun (seed, a, b) ->
      let x = Xoshiro.of_int seed in
      let y = Xoshiro.copy x and z = Xoshiro.copy x in
      Xoshiro.advance x a;
      Xoshiro.advance x b;
      Xoshiro.advance y (a + b);
      let before = peek z in
      Xoshiro.advance z 0;
      peek x = peek y && peek z = before)

(* ------------------------------------------------------------------ *)
(* Rng helpers                                                         *)
(* ------------------------------------------------------------------ *)

let rng_int_bounds () =
  let rng = Rng.of_int 11 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let rng_int_rejects_nonpositive () =
  let rng = Rng.of_int 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let rng_int_uniformity () =
  (* Chi-square against uniform over 8 cells; threshold is the 99.9%
     quantile of chi2 with 7 dof (24.3) with margin. *)
  let rng = Rng.of_int 5 in
  let cells = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let v = Rng.int rng 8 in
    cells.(v) <- cells.(v) + 1
  done;
  let expected = Array.make 8 (float_of_int trials /. 8.0) in
  let chi2 = Ftr_stats.Gof.chi_square ~observed:cells ~expected in
  Alcotest.(check bool) (Printf.sprintf "chi2 %.1f < 30" chi2) true (chi2 < 30.0)

let rng_int_power_of_two_path () =
  let rng = Rng.of_int 6 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 16 in
    Alcotest.(check bool) "in [0,16)" true (v >= 0 && v < 16)
  done

let rng_int_in_range () =
  let rng = Rng.of_int 2 in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  Alcotest.(check int) "degenerate range" 3 (Rng.int_in_range rng ~lo:3 ~hi:3)

let rng_float_range () =
  let rng = Rng.of_int 13 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let rng_float_mean () =
  let rng = Rng.of_int 17 in
  let s = Ftr_stats.Summary.create () in
  for _ = 1 to 50_000 do
    Ftr_stats.Summary.add s (Rng.float rng)
  done;
  Alcotest.(check bool) "mean near 0.5" true (abs_float (Ftr_stats.Summary.mean s -. 0.5) < 0.01)

let rng_bernoulli_edges () =
  let rng = Rng.of_int 19 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let rng_bernoulli_rate () =
  let rng = Rng.of_int 23 in
  let hits = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (rate -. 0.3) < 0.01)

let rng_pick () =
  let rng = Rng.of_int 29 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "picked element" true (Array.mem (Rng.pick rng arr) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

let rng_permutation_valid () =
  let rng = Rng.of_int 31 in
  let p = Rng.permutation rng 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let rng_permutation_uniform_small () =
  (* All 6 permutations of 3 elements appear with roughly equal rates. *)
  let rng = Rng.of_int 37 in
  let counts = Hashtbl.create 6 in
  let trials = 12_000 in
  for _ = 1 to trials do
    let p = Rng.permutation rng 3 in
    let key = (p.(0) * 100) + (p.(1) * 10) + p.(2) in
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  Alcotest.(check int) "six permutations" 6 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      Alcotest.(check bool) "each near trials/6" true
        (abs (c - (trials / 6)) < trials / 12))
    counts

let rng_float_range_bounds () =
  let rng = Rng.of_int 44 in
  for _ = 1 to 1000 do
    let v = Rng.float_range rng ~lo:(-2.5) ~hi:7.5 in
    Alcotest.(check bool) "in range" true (v >= -2.5 && v < 7.5)
  done

let rng_copy_replays () =
  let a = Rng.of_int 45 in
  ignore (Rng.int a 100);
  let b = Rng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int) "copy replays" (Rng.int a 1000) (Rng.int b 1000)
  done

let cdf_probability_bounds () =
  let cdf = Sample.cdf_of_weights [| 1.0; 1.0 |] in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sample.cdf_probability: index out of range") (fun () ->
      ignore (Sample.cdf_probability cdf 2))

let rng_split_streams_differ () =
  let parent = Rng.of_int 41 in
  let child = Rng.split parent in
  let equal = ref 0 in
  for _ = 1 to 100 do
    if Rng.int parent 1_000_000 = Rng.int child 1_000_000 then incr equal
  done;
  Alcotest.(check bool) "at most coincidences" true (!equal <= 2)

(* The first 10^5 outputs of every helper for seed 2002, digested. The
   digests were recorded when the state was four boxed int64 fields, so
   they pin each helper's stream bit for bit across state layouts. *)
let stream_digest ?(prepare = Fun.id) draw =
  let rng = prepare (Rng.of_int 2002) in
  let buf = Buffer.create (1 lsl 21) in
  for _ = 1 to 100_000 do
    Buffer.add_string buf (draw rng);
    Buffer.add_char buf '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let rng_stream_digests () =
  let bits64 r = Int64.to_string (Rng.bits64 r) in
  List.iter
    (fun (name, expected, digest) -> Alcotest.(check string) name expected (digest ()))
    [
      ("bits64", "a05421bbaadac3b6e257e4de6e2745bb", fun () -> stream_digest bits64);
      ( "bits",
        "d36c3f1f627bd949fd3ac533db245bae",
        fun () -> stream_digest (fun r -> string_of_int (Rng.bits r)) );
      ( "float",
        "1ec8e2885f1b18808af607144b74cb37",
        fun () -> stream_digest (fun r -> Printf.sprintf "%h" (Rng.float r)) );
      ( "int 1000",
        "fbf9042b3139fa60a8c2e0c109b2b74b",
        fun () -> stream_digest (fun r -> string_of_int (Rng.int r 1000)) );
      ( "int 1024",
        "5f31c68e5e942825d6230912eb361b60",
        fun () -> stream_digest (fun r -> string_of_int (Rng.int r 1024)) );
      ( "bool",
        "aa50b645341626f0d32c772ddbd3ddfc",
        fun () -> stream_digest (fun r -> string_of_bool (Rng.bool r)) );
      ( "split child",
        "2aca1b0e75edc6149bbab5776685d3ba",
        fun () -> stream_digest ~prepare:Rng.split bits64 );
      ( "copy",
        "45d3d9a3e3c38012b8bfb968e97cca34",
        fun () ->
          stream_digest
            ~prepare:(fun r ->
              ignore (Rng.bits64 r);
              Rng.copy r)
            bits64 );
    ]

(* Minor words allocated by [k] calls of [f], after one warm-up call. *)
let minor_words k f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to k do
    f ()
  done;
  Gc.minor_words () -. before

(* The generator step keeps its state unboxed: the int-returning helpers
   allocate nothing, and neither does a power-law draw, whose quantile
   search is inlined so the uniform it scales never leaves a register.
   The slack covers the measurement itself.

   The [Rng.float] row is the canary for cross-module inlining: used
   unboxed (compared, not [ignore]d, which boxes in any build), it
   allocates nothing only when this module is compiled against rng.cmx.
   Under dune's dev profile every module is compiled with -opaque, the
   call goes through the module block and returns a boxed float: 2 minor
   words per call (see dune-workspace). *)
let allocation_budget () =
  let k = 100_000 and slack = 64.0 in
  let rng = Rng.of_int 2002 in
  let pl = Sample.power_law ~exponent:1.0 ~max_length:(1 lsl 16) in
  let low = ref 0 in
  List.iter
    (fun (name, budget, f) ->
      let words = minor_words k f in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words in %d calls (budget %.0f per call)" name words k
           budget)
        true
        (words <= (budget *. float_of_int k) +. slack))
    [
      ("Rng.bits", 0.0, fun () -> ignore (Rng.bits rng));
      ("Rng.int 1024", 0.0, fun () -> ignore (Rng.int rng 1024));
      ("Rng.int 1000", 0.0, fun () -> ignore (Rng.int rng 1000));
      ("Rng.bool", 0.0, fun () -> ignore (Rng.bool rng));
      ("Rng.float", 0.0, fun () -> if Rng.float rng < 0.5 then incr low);
      ( "Sample.power_law_draw",
        0.0,
        fun () -> ignore (Sample.power_law_draw pl rng ~upto:(1 lsl 16)) );
    ]

(* ------------------------------------------------------------------ *)
(* Samplers                                                            *)
(* ------------------------------------------------------------------ *)

let cdf_respects_weights () =
  let cdf = Sample.cdf_of_weights [| 1.0; 3.0; 6.0 |] in
  check_float "p0" 0.1 (Sample.cdf_probability cdf 0);
  check_float "p1" 0.3 (Sample.cdf_probability cdf 1);
  check_float "p2" 0.6 (Sample.cdf_probability cdf 2);
  Alcotest.(check int) "size" 3 (Sample.cdf_size cdf)

let cdf_draw_frequencies () =
  let cdf = Sample.cdf_of_weights [| 1.0; 3.0; 6.0 |] in
  let rng = Rng.of_int 43 in
  let counts = Array.make 3 0 in
  let trials = 60_000 in
  for _ = 1 to trials do
    let i = Sample.cdf_draw cdf rng in
    counts.(i) <- counts.(i) + 1
  done;
  List.iteri
    (fun i p ->
      let rate = float_of_int counts.(i) /. float_of_int trials in
      Alcotest.(check bool) (Printf.sprintf "cell %d" i) true (abs_float (rate -. p) < 0.01))
    [ 0.1; 0.3; 0.6 ]

let cdf_rejects_bad_weights () =
  Alcotest.check_raises "empty" (Invalid_argument "Sample.cdf_of_weights: empty weights")
    (fun () -> ignore (Sample.cdf_of_weights [||]));
  Alcotest.check_raises "zero total"
    (Invalid_argument "Sample.cdf_of_weights: zero total weight") (fun () ->
      ignore (Sample.cdf_of_weights [| 0.0; 0.0 |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Sample.cdf_of_weights: negative or NaN weight") (fun () ->
      ignore (Sample.cdf_of_weights [| 1.0; -1.0 |]))

let exponential_mean () =
  let rng = Rng.of_int 59 in
  let s = Ftr_stats.Summary.create () in
  for _ = 1 to 50_000 do
    Ftr_stats.Summary.add s (Sample.exponential rng ~rate:2.0)
  done;
  Alcotest.(check bool) "mean near 1/rate" true
    (abs_float (Ftr_stats.Summary.mean s -. 0.5) < 0.02)

let exponential_positive () =
  let rng = Rng.of_int 61 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Sample.exponential rng ~rate:0.5 >= 0.0)
  done

let geometric_mean () =
  let rng = Rng.of_int 67 in
  let s = Ftr_stats.Summary.create () in
  for _ = 1 to 50_000 do
    Ftr_stats.Summary.add_int s (Sample.geometric rng ~p:0.25)
  done;
  Alcotest.(check bool) "mean near 1/p" true (abs_float (Ftr_stats.Summary.mean s -. 4.0) < 0.1)

let geometric_p1 () =
  let rng = Rng.of_int 71 in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 is always 1" 1 (Sample.geometric rng ~p:1.0)
  done

let poisson_moments lambda seed =
  let rng = Rng.of_int seed in
  let s = Ftr_stats.Summary.create () in
  for _ = 1 to 50_000 do
    Ftr_stats.Summary.add_int s (Sample.poisson rng ~lambda)
  done;
  let tolerance = 4.0 *. sqrt lambda /. sqrt 50_000.0 +. 0.02 in
  Alcotest.(check bool)
    (Printf.sprintf "mean near %.1f" lambda)
    true
    (abs_float (Ftr_stats.Summary.mean s -. lambda) < tolerance);
  Alcotest.(check bool)
    (Printf.sprintf "variance near %.1f" lambda)
    true
    (abs_float (Ftr_stats.Summary.variance s -. lambda) < (0.1 *. lambda) +. 0.05)

let poisson_small () = poisson_moments 3.0 73

let poisson_moderate () = poisson_moments 14.0 79

let poisson_large () = poisson_moments 60.0 83

let poisson_zero () =
  let rng = Rng.of_int 89 in
  for _ = 1 to 100 do
    Alcotest.(check int) "lambda 0" 0 (Sample.poisson rng ~lambda:0.0)
  done

let binomial_moments () =
  let rng = Rng.of_int 97 in
  let s = Ftr_stats.Summary.create () in
  for _ = 1 to 30_000 do
    Ftr_stats.Summary.add_int s (Sample.binomial rng ~n:20 ~p:0.3)
  done;
  Alcotest.(check bool) "mean near np" true (abs_float (Ftr_stats.Summary.mean s -. 6.0) < 0.1);
  Alcotest.(check bool) "var near np(1-p)" true
    (abs_float (Ftr_stats.Summary.variance s -. 4.2) < 0.2)

let binomial_edges () =
  let rng = Rng.of_int 101 in
  Alcotest.(check int) "n=0" 0 (Sample.binomial rng ~n:0 ~p:0.5);
  Alcotest.(check int) "p=0" 0 (Sample.binomial rng ~n:50 ~p:0.0);
  Alcotest.(check int) "p=1" 50 (Sample.binomial rng ~n:50 ~p:1.0)

let power_law_range () =
  let pl = Sample.power_law ~exponent:1.0 ~max_length:1000 in
  let rng = Rng.of_int 103 in
  for _ = 1 to 10_000 do
    let d = Sample.power_law_draw pl rng ~upto:1000 in
    Alcotest.(check bool) "in [1,1000]" true (d >= 1 && d <= 1000)
  done;
  for _ = 1 to 1000 do
    let d = Sample.power_law_draw pl rng ~upto:10 in
    Alcotest.(check bool) "restricted upto" true (d >= 1 && d <= 10)
  done

let power_law_harmonic_frequencies () =
  (* With exponent 1, Pr[d] = (1/d)/H_m: check the head of the pmf. *)
  let m = 64 in
  let pl = Sample.power_law ~exponent:1.0 ~max_length:m in
  let rng = Rng.of_int 107 in
  let counts = Array.make (m + 1) 0 in
  let trials = 200_000 in
  for _ = 1 to trials do
    let d = Sample.power_law_draw pl rng ~upto:m in
    counts.(d) <- counts.(d) + 1
  done;
  let h = Ftr_stats.Harmonic.number m in
  List.iter
    (fun d ->
      let expected = 1.0 /. (float_of_int d *. h) in
      let rate = float_of_int counts.(d) /. float_of_int trials in
      Alcotest.(check bool) (Printf.sprintf "d=%d" d) true (abs_float (rate -. expected) < 0.005))
    [ 1; 2; 3; 4; 8; 16 ]

let power_law_total_matches_harmonic () =
  let pl = Sample.power_law ~exponent:1.0 ~max_length:500 in
  check_float "total = H_500" (Ftr_stats.Harmonic.number 500) (Sample.power_law_total pl ~upto:500);
  check_float "partial = H_10" (Ftr_stats.Harmonic.number 10) (Sample.power_law_total pl ~upto:10);
  check_float "upto 0" 0.0 (Sample.power_law_total pl ~upto:0)

let power_law_exponent2 () =
  (* Exponent 2 concentrates mass at short lengths much more strongly. *)
  let m = 128 in
  let pl = Sample.power_law ~exponent:2.0 ~max_length:m in
  let rng = Rng.of_int 109 in
  let short = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Sample.power_law_draw pl rng ~upto:m <= 2 then incr short
  done;
  (* Pr[d<=2] = (1 + 1/4)/sum ~ 0.777 for m=128 (sum ~ pi^2/6). *)
  let rate = float_of_int !short /. float_of_int trials in
  Alcotest.(check bool) "short fraction near 0.78" true (abs_float (rate -. 0.777) < 0.02)

(* The draw's reference: the same prefix table, built by the same loop as
   [Sample.power_law], searched by a plain binary search over
   [0, upto - 1]. *)
let reference_prefix ~exponent ~max_length =
  let acc = ref 0.0 in
  Array.init max_length (fun i ->
      acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) exponent);
      !acc)

let reference_quantile prefix ~upto u =
  let target = u *. prefix.(upto - 1) in
  let rec search lo hi =
    if lo >= hi then lo + 1
    else
      let mid = (lo + hi) / 2 in
      if prefix.(mid) > target then search lo mid else search (mid + 1) hi
  in
  search 0 (upto - 1)

(* The harmonic table skips [pow]: its prefix sums must be bit for bit
   the ones the general [pow] loop gives. *)
let power_law_harmonic_table_is_pow_table () =
  let max_length = 1 lsl 20 in
  let pl = Sample.power_law ~exponent:1.0 ~max_length in
  let reference = reference_prefix ~exponent:1.0 ~max_length in
  let first_mismatch = ref None in
  Array.iteri
    (fun i want ->
      if
        Option.is_none !first_mismatch
        && Int64.bits_of_float (Sample.power_law_total pl ~upto:(i + 1))
           <> Int64.bits_of_float want
      then first_mismatch := Some (i + 1))
    reference;
  Alcotest.(check (option int)) "first length whose prefix differs" None !first_mismatch

let power_law_draw_is_its_quantile () =
  let pl = Sample.power_law ~exponent:1.0 ~max_length:1000 in
  let rng = Rng.of_int 113 in
  for upto = 1 to 1000 do
    let u = Rng.float (Rng.copy rng) in
    Alcotest.(check int) "draw = quantile of one Rng.float"
      (Sample.power_law_quantile pl ~upto u)
      (Sample.power_law_draw pl rng ~upto)
  done;
  Alcotest.check_raises "upto 0"
    (Invalid_argument "Sample.power_law_quantile: upto out of range") (fun () ->
      ignore (Sample.power_law_quantile pl ~upto:0 0.5))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_int_in_bound =
  QCheck.Test.make ~name:"Rng.int stays in bound" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.of_int seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_permutation =
  QCheck.Test.make ~name:"Rng.permutation is a permutation" ~count:200
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, n) ->
      let p = Rng.permutation (Rng.of_int seed) n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let prop_power_law_in_range =
  QCheck.Test.make ~name:"power_law_draw within upto" ~count:300
    QCheck.(pair small_int (int_range 1 512))
    (fun (seed, upto) ->
      let pl = Sample.power_law ~exponent:1.0 ~max_length:512 in
      let d = Sample.power_law_draw pl (Rng.of_int seed) ~upto in
      d >= 1 && d <= upto)

(* Exponent 6 adds prefixes that plateau in floating point: from d = 457
   on, d^-6 is below half an ulp of the sum and every later entry equals
   the last. Exponent 3's plateaus only start near d = 2^17.7, past the
   sizes drawn here. *)
let oracle_exponents = [| 0.0; 0.5; 1.0; 1.2; 2.0; 3.0; 6.0 |]

(* Each case: an exponent, a max_length spread log-uniformly over
   [1, 2^16], an upto that is 1, max_length or uniform in between, an
   index j < upto and a uniform u. The property checks u itself and the
   edge targets: u = 0, the largest u below 1 (a target just below
   prefix.(upto-1)), and u = prefix.(j) / total with its two float
   neighbours, which land on or next to the prefix value. *)
let prop_power_law_quantile_exact =
  let gen =
    QCheck.Gen.(
      int_bound (Array.length oracle_exponents - 1) >>= fun e ->
      int_bound 16 >>= fun k ->
      int_range (max 1 (1 lsl k / 2)) (1 lsl k) >>= fun max_length ->
      oneof [ return 1; return max_length; int_range 1 max_length ] >>= fun upto ->
      int_bound (upto - 1) >>= fun j ->
      float_bound_exclusive 1.0 >>= fun u -> return (oracle_exponents.(e), max_length, upto, j, u))
  in
  let print (exponent, max_length, upto, j, u) =
    Printf.sprintf "exponent %g max_length %d upto %d j %d u %h" exponent max_length upto j u
  in
  QCheck.Test.make ~name:"power_law_quantile = binary search over the prefix table" ~count:400
    (QCheck.make ~print gen) (fun (exponent, max_length, upto, j, u) ->
      let pl = Sample.power_law ~exponent ~max_length in
      let prefix = reference_prefix ~exponent ~max_length in
      let on_prefix = prefix.(j) /. prefix.(upto - 1) in
      List.for_all
        (fun u ->
          u < 0.0 || u >= 1.0
          || Sample.power_law_quantile pl ~upto u = reference_quantile prefix ~upto u)
        [ u; 0.0; Float.pred 1.0; on_prefix; Float.pred on_prefix; Float.succ on_prefix ])

let prop_cdf_draw_in_range =
  QCheck.Test.make ~name:"cdf_draw returns a valid index" ~count:300
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 20) (float_range 0.01 5.0)))
    (fun (seed, weights) ->
      let weights = Array.of_list weights in
      let cdf = Sample.cdf_of_weights weights in
      let i = Sample.cdf_draw cdf (Rng.of_int seed) in
      i >= 0 && i < Array.length weights)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          quick "seed-0 published vectors" splitmix_seed0_vectors;
          quick "determinism" splitmix_determinism;
          quick "copy is independent" splitmix_copy_independent;
          quick "distinct seeds" splitmix_distinct_seeds;
        ] );
      ( "xoshiro",
        [
          quick "rejects all-zero state" xoshiro_rejects_zero_state;
          quick "determinism" xoshiro_determinism;
          quick "split decorrelates" xoshiro_split_decorrelates;
          quick "copy replays" xoshiro_copy;
          quick "jump constants from the characteristic polynomial" xoshiro_jump_constants;
          quick "advance rejects a negative count" xoshiro_advance_rejects_negative;
        ] );
      ( "rng",
        [
          quick "int bounds" rng_int_bounds;
          quick "int rejects non-positive bound" rng_int_rejects_nonpositive;
          quick "int uniformity (chi-square)" rng_int_uniformity;
          quick "int power-of-two fast path" rng_int_power_of_two_path;
          quick "int_in_range" rng_int_in_range;
          quick "float in [0,1)" rng_float_range;
          quick "float mean" rng_float_mean;
          quick "bernoulli edges" rng_bernoulli_edges;
          quick "bernoulli rate" rng_bernoulli_rate;
          quick "pick" rng_pick;
          quick "permutation valid" rng_permutation_valid;
          quick "permutation uniform (n=3)" rng_permutation_uniform_small;
          quick "split streams differ" rng_split_streams_differ;
          quick "float_range bounds" rng_float_range_bounds;
          quick "copy replays" rng_copy_replays;
          quick "stream digests pinned (seed 2002)" rng_stream_digests;
          quick "allocation budget" allocation_budget;
        ] );
      ( "samplers",
        [
          quick "cdf probabilities" cdf_respects_weights;
          quick "cdf draw frequencies" cdf_draw_frequencies;
          quick "cdf rejects bad weights" cdf_rejects_bad_weights;
          quick "cdf probability bounds" cdf_probability_bounds;
          quick "exponential mean" exponential_mean;
          quick "exponential positive" exponential_positive;
          quick "geometric mean" geometric_mean;
          quick "geometric p=1" geometric_p1;
          quick "poisson lambda=3" poisson_small;
          quick "poisson lambda=14" poisson_moderate;
          quick "poisson lambda=60 (split path)" poisson_large;
          quick "poisson lambda=0" poisson_zero;
          quick "binomial moments" binomial_moments;
          quick "binomial edges" binomial_edges;
          quick "power-law range" power_law_range;
          quick "power-law harmonic frequencies" power_law_harmonic_frequencies;
          quick "power-law totals are harmonic numbers" power_law_total_matches_harmonic;
          quick "power-law exponent 2" power_law_exponent2;
          quick "power-law draw is its quantile" power_law_draw_is_its_quantile;
          quick "power-law harmonic table is the pow table" power_law_harmonic_table_is_pow_table;
        ] );
      ( "properties",
        List.map (fun p -> QCheck_alcotest.to_alcotest p)
          [
            prop_advance_is_steps;
            prop_advance_composes;
            prop_int_in_bound;
            prop_permutation;
            prop_power_law_in_range;
            prop_power_law_quantile_exact;
            prop_cdf_draw_in_range;
          ]
      );
    ]
