module Theory = Ftr_core.Theory
module Harmonic = Ftr_stats.Harmonic

let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Logarithms                                                          *)
(* ------------------------------------------------------------------ *)

let lg_values () =
  check_close 1e-9 "lg 1024" 10.0 (Theory.lg 1024);
  check_close 1e-9 "lg 1" 0.0 (Theory.lg 1);
  check_close 1e-9 "log_4 256" 4.0 (Theory.upper_deterministic ~base:4 256)

let lg_rejects () =
  Alcotest.check_raises "lg 0" (Invalid_argument "Theory.lg: n must be positive") (fun () ->
      ignore (Theory.lg 0))

(* ------------------------------------------------------------------ *)
(* Upper-bound formulas                                                *)
(* ------------------------------------------------------------------ *)

let single_link_formula () =
  let n = 1000 in
  check_close 1e-9 "2 H_n^2" (2.0 *. ((Harmonic.number n) ** 2.0)) (Theory.upper_single_link n)

let multi_link_formula () =
  let n = 4096 in
  check_close 1e-9 "(1+lg n) 8 H_n / l"
    ((1.0 +. 12.0) *. 8.0 *. Harmonic.number n /. 4.0)
    (Theory.upper_multi_link ~links:4 n)

let multi_link_decreases_in_links () =
  let n = 65536 in
  let prev = ref infinity in
  List.iter
    (fun l ->
      let b = Theory.upper_multi_link ~links:l n in
      Alcotest.(check bool) "decreasing in links" true (b < !prev);
      prev := b)
    [ 1; 2; 4; 8; 16 ]

let deterministic_formula () =
  check_close 1e-9 "log_2 1024" 10.0 (Theory.upper_deterministic ~base:2 1024);
  check_close 1e-9 "ceil log_2 1025" 11.0 (Theory.upper_deterministic ~base:2 1025);
  check_close 1e-9 "log_16 65536" 4.0 (Theory.upper_deterministic ~base:16 65536)

let link_failure_scales_inverse_p () =
  let n = 4096 and links = 4 in
  let b1 = Theory.upper_link_failure ~links ~present_p:1.0 n in
  let b05 = Theory.upper_link_failure ~links ~present_p:0.5 n in
  check_close 1e-9 "half p doubles bound" (2.0 *. b1) b05;
  check_close 1e-9 "p=1 is failure-free bound" (Theory.upper_multi_link ~links n) b1

let geometric_failure_formula () =
  let n = 1024 and base = 2 in
  let p = 0.5 in
  let expected = 1.0 +. (2.0 *. (2.0 -. 0.5) *. Harmonic.number (n - 1) /. 0.5) in
  check_close 1e-9 "Thm 16" expected (Theory.upper_geometric_link_failure ~base ~present_p:p n)

let node_failure_scales () =
  let n = 4096 and links = 8 in
  let b0 = Theory.upper_node_failure ~links ~death_p:0.0 n in
  let b05 = Theory.upper_node_failure ~links ~death_p:0.5 n in
  check_close 1e-9 "death 0.5 doubles" (2.0 *. b0) b05

let formula_rejects () =
  Alcotest.check_raises "bad p"
    (Invalid_argument "Theory.upper_link_failure: present_p must be in (0,1]") (fun () ->
      ignore (Theory.upper_link_failure ~links:2 ~present_p:0.0 64));
  Alcotest.check_raises "bad death p"
    (Invalid_argument "Theory.upper_node_failure: death_p must be in [0,1)") (fun () ->
      ignore (Theory.upper_node_failure ~links:2 ~death_p:1.0 64))

(* ------------------------------------------------------------------ *)
(* Lower-bound formulas                                                *)
(* ------------------------------------------------------------------ *)

let lower_bounds_ordering () =
  let n = 65536 in
  (* Two-sided bound is weaker (smaller) than one-sided for l > 1. *)
  Alcotest.(check bool) "two-sided <= one-sided" true
    (Theory.lower_two_sided ~links:4 n <= Theory.lower_one_sided ~links:4 n);
  check_close 1e-9 "equal at l=1" (Theory.lower_one_sided ~links:1 n)
    (Theory.lower_two_sided ~links:1 n)

let lower_large_links_formula () =
  check_close 1e-9 "log n / log l" (log 65536.0 /. log 16.0)
    (Theory.lower_large_links ~links:16 65536)

let lower_bounds_grow_with_n () =
  let prev = ref 0.0 in
  List.iter
    (fun n ->
      let b = Theory.lower_one_sided ~links:4 n in
      Alcotest.(check bool) "growing" true (b > !prev);
      prev := b)
    [ 256; 4096; 65536; 1048576 ]

(* ------------------------------------------------------------------ *)
(* Lemma 1 / Theorem 12 numerics                                       *)
(* ------------------------------------------------------------------ *)

let kuw_constant_drift () =
  (* Drift 1 everywhere: time to descend from x0 is exactly x0. *)
  check_close 1e-9 "unit drift" 100.0 (Theory.kuw_upper_bound ~mu:(fun _ -> 1.0) ~x0:100)

let kuw_linear_drift_is_harmonic () =
  (* mu(z) = z gives sum 1/z = H_n. *)
  check_close 1e-9 "harmonic" (Harmonic.number 50)
    (Theory.kuw_upper_bound ~mu:(fun z -> float_of_int z) ~x0:50)

let kuw_theorem12_gives_2hn_squared () =
  (* With mu_k = k / 2H_n the integral is exactly 2 H_n^2. *)
  let n = 1000 in
  let bound = Theory.kuw_upper_bound ~mu:(fun k -> Theory.theorem12_drift ~n k) ~x0:n in
  check_close 1e-6 "2 H_n^2" (Theory.upper_single_link n) bound

let kuw_rejects_nonpositive_drift () =
  Alcotest.check_raises "zero drift"
    (Invalid_argument "Theory.kuw_upper_bound: drift must be positive") (fun () ->
      ignore (Theory.kuw_upper_bound ~mu:(fun _ -> 0.0) ~x0:10))

(* ------------------------------------------------------------------ *)
(* Theorem 2                                                            *)
(* ------------------------------------------------------------------ *)

let theorem2_epsilon_zero_is_t () =
  check_close 1e-9 "no long jumps" 123.0 (Theory.theorem2_lower_bound ~t:123.0 ~epsilon:0.0)

let theorem2_monotone_in_epsilon () =
  let t = 100.0 in
  let prev = ref infinity in
  List.iter
    (fun eps ->
      let b = Theory.theorem2_lower_bound ~t ~epsilon:eps in
      Alcotest.(check bool) "decreasing in epsilon" true (b <= !prev);
      prev := b)
    [ 0.0; 0.001; 0.01; 0.1; 1.0 ]

let theorem2_epsilon_one_is_one () =
  check_close 1e-9 "certain long jumps" 1.0 (Theory.theorem2_lower_bound ~t:1e9 ~epsilon:1.0)

let theorem2_bounded_by_t () =
  List.iter
    (fun (t, eps) ->
      Alcotest.(check bool) "never exceeds T" true
        (Theory.theorem2_lower_bound ~t ~epsilon:eps <= t +. 1e-9))
    [ (10.0, 0.1); (1000.0, 0.01); (5.0, 0.9) ]

(* ------------------------------------------------------------------ *)
(* Theorem 10 integral                                                 *)
(* ------------------------------------------------------------------ *)

let theorem10_constant_speed () =
  (* Speed 2 over [0, ln n]: integral = ln n / 2. *)
  let ln_n = log 1024.0 in
  check_close 1e-6 "constant speed" (ln_n /. 2.0)
    (Theory.theorem10_integral ~m:(fun _ -> 2.0) ~ln_n ~steps:10_000)

let theorem10_converges () =
  let ln_n = log 4096.0 in
  let coarse = Theory.theorem10_integral ~m:(fun z -> 1.0 +. z) ~ln_n ~steps:100 in
  let fine = Theory.theorem10_integral ~m:(fun z -> 1.0 +. z) ~ln_n ~steps:100_000 in
  Alcotest.(check bool) "trapezoid converges" true (abs_float (coarse -. fine) < 1e-3);
  (* Analytic value: log(1 + ln n). *)
  check_close 1e-6 "analytic" (log (1.0 +. ln_n)) fine

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "theory"
    [
      ( "logs",
        [ quick "lg and log_base" lg_values; quick "rejects non-positive" lg_rejects ] );
      ( "upper-bounds",
        [
          quick "Theorem 12 formula" single_link_formula;
          quick "Theorem 13 formula" multi_link_formula;
          quick "Theorem 13 decreasing in links" multi_link_decreases_in_links;
          quick "Theorem 14 formula" deterministic_formula;
          quick "Theorem 15 scales as 1/p" link_failure_scales_inverse_p;
          quick "Theorem 16 formula" geometric_failure_formula;
          quick "Theorem 18 scales as 1/(1-p)" node_failure_scales;
          quick "rejects bad probabilities" formula_rejects;
        ] );
      ( "lower-bounds",
        [
          quick "one- vs two-sided ordering" lower_bounds_ordering;
          quick "Theorem 3 formula" lower_large_links_formula;
          quick "grow with n" lower_bounds_grow_with_n;
        ] );
      ( "lemma1",
        [
          quick "constant drift" kuw_constant_drift;
          quick "linear drift gives H_n" kuw_linear_drift_is_harmonic;
          quick "Theorem 12 drift gives 2H_n^2" kuw_theorem12_gives_2hn_squared;
          quick "rejects non-positive drift" kuw_rejects_nonpositive_drift;
        ] );
      ( "theorem2",
        [
          quick "epsilon 0 returns T" theorem2_epsilon_zero_is_t;
          quick "monotone in epsilon" theorem2_monotone_in_epsilon;
          quick "epsilon 1 returns 1" theorem2_epsilon_one_is_one;
          quick "bounded by T" theorem2_bounded_by_t;
        ] );
      ( "theorem10",
        [
          quick "constant speed" theorem10_constant_speed;
          quick "trapezoid converges to analytic value" theorem10_converges;
        ] );
    ]
