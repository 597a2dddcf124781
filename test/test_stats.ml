module Harmonic = Ftr_stats.Harmonic
module Summary = Ftr_stats.Summary
module Quantile = Ftr_stats.Quantile
module Linreg = Ftr_stats.Linreg
module Gof = Ftr_stats.Gof

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Harmonic numbers                                                    *)
(* ------------------------------------------------------------------ *)

let harmonic_small_values () =
  check_float "H_0" 0.0 (Harmonic.number 0);
  check_float "H_1" 1.0 (Harmonic.number 1);
  check_float "H_2" 1.5 (Harmonic.number 2);
  check_float "H_4" (1.0 +. 0.5 +. (1.0 /. 3.0) +. 0.25) (Harmonic.number 4)

let harmonic_approx_accuracy () =
  List.iter
    (fun n ->
      let exact = Harmonic.number n and approx = Harmonic.approx n in
      Alcotest.(check bool)
        (Printf.sprintf "H_%d approx" n)
        true
        (abs_float (exact -. approx) < 1e-6))
    [ 10; 100; 1000; 65536 ]

let harmonic_table_consistent () =
  let t = Harmonic.table 50 in
  Alcotest.(check int) "length" 51 (Array.length t);
  for k = 0 to 50 do
    check_float (Printf.sprintf "table %d" k) (Harmonic.number k) t.(k)
  done

let harmonic_generalized () =
  check_float "exponent 1 = H_n" (Harmonic.number 30) (Harmonic.generalized ~exponent:1.0 30);
  check_float "exponent 0 = n" 30.0 (Harmonic.generalized ~exponent:0.0 30);
  Alcotest.(check bool) "exponent 2 < pi^2/6" true
    (Harmonic.generalized ~exponent:2.0 10_000 < 1.6449341)

let harmonic_monotone () =
  for n = 1 to 100 do
    Alcotest.(check bool) "increasing" true (Harmonic.number n > Harmonic.number (n - 1))
  done

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

let summary_known_values () =
  let s = Summary.of_array [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check int) "count" 8 (Summary.count s);
  check_float "mean" 5.0 (Summary.mean s);
  check_close 1e-9 "variance" (32.0 /. 7.0) (Summary.variance s);
  check_float "min" 2.0 (Summary.min_value s);
  check_float "max" 9.0 (Summary.max_value s);
  check_close 1e-9 "total" 40.0 (Summary.total s)

let summary_empty () =
  let s = Summary.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Summary.mean s));
  Alcotest.(check bool) "variance nan" true (Float.is_nan (Summary.variance s));
  Alcotest.(check int) "count 0" 0 (Summary.count s)

let summary_single () =
  let s = Summary.of_array [| 42.0 |] in
  check_float "mean" 42.0 (Summary.mean s);
  Alcotest.(check bool) "variance undefined" true (Float.is_nan (Summary.variance s))

let summary_merge_matches_pooled () =
  let xs = Array.init 100 (fun i -> float_of_int (i * i) /. 7.0) in
  let a = Summary.of_array (Array.sub xs 0 40) in
  let b = Summary.of_array (Array.sub xs 40 60) in
  let merged = Summary.merge a b in
  let pooled = Summary.of_array xs in
  check_close 1e-9 "mean" (Summary.mean pooled) (Summary.mean merged);
  check_close 1e-6 "variance" (Summary.variance pooled) (Summary.variance merged);
  Alcotest.(check int) "count" (Summary.count pooled) (Summary.count merged);
  check_float "min" (Summary.min_value pooled) (Summary.min_value merged);
  check_float "max" (Summary.max_value pooled) (Summary.max_value merged)

let summary_merge_with_empty () =
  let a = Summary.of_array [| 1.0; 2.0; 3.0 |] in
  let e = Summary.create () in
  check_float "left empty" (Summary.mean a) (Summary.mean (Summary.merge e a));
  check_float "right empty" (Summary.mean a) (Summary.mean (Summary.merge a e))

let summary_sem_and_ci () =
  let s = Summary.of_array (Array.make 100 3.0) in
  check_float "sem of constant" 0.0 (Summary.sem s);
  check_float "ci of constant" 0.0 (Summary.ci95_halfwidth s)

let tdist_critical_values () =
  let module T = Ftr_stats.Tdist in
  check_float "df=1" 12.706 (T.critical95 ~df:1);
  check_float "df=4" 2.776 (T.critical95 ~df:4);
  check_float "df=30" 2.042 (T.critical95 ~df:30);
  check_float "large df ~ normal" 1.96 (T.critical95 ~df:10_000);
  Alcotest.check_raises "df 0" (Invalid_argument "Tdist.critical95: df must be >= 1") (fun () ->
      ignore (T.critical95 ~df:0))

let ci95_uses_student_t () =
  (* Three observations: df = 2, so the multiplier is 4.303, not 1.96. *)
  let s = Summary.of_array [| 1.0; 2.0; 3.0 |] in
  check_close 1e-6 "small-sample ci" (4.303 *. Summary.sem s) (Summary.ci95_halfwidth s);
  let one = Summary.of_array [| 5.0 |] in
  Alcotest.(check bool) "single sample has no ci" true (Float.is_nan (Summary.ci95_halfwidth one))

let summary_pp_renders () =
  let s = Summary.of_array [| 1.0; 2.0; 3.0 |] in
  let rendered = Format.asprintf "%a" Summary.pp s in
  Alcotest.(check bool) "mentions count and mean" true
    (let has needle =
       let nh = String.length rendered and nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub rendered i nn = needle || go (i + 1)) in
       go 0
     in
     has "n=3" && has "mean=2.0")

let summary_welford_stability () =
  (* Large offset: the naive sum-of-squares formula would lose precision. *)
  let offset = 1e9 in
  let s = Summary.create () in
  List.iter (fun x -> Summary.add s (offset +. x)) [ 1.0; 2.0; 3.0; 4.0 ];
  check_close 1e-6 "variance unaffected by offset" (5.0 /. 3.0) (Summary.variance s)

(* ------------------------------------------------------------------ *)
(* Quantiles                                                           *)
(* ------------------------------------------------------------------ *)

let quantile_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Quantile.median xs);
  check_float "q0" 1.0 (Quantile.compute xs 0.0);
  check_float "q1" 5.0 (Quantile.compute xs 1.0);
  check_float "q .25" 2.0 (Quantile.compute xs 0.25)

let quantile_interpolates () =
  let xs = [| 10.0; 20.0 |] in
  check_float "midpoint" 15.0 (Quantile.median xs);
  check_float "q .75" 17.5 (Quantile.compute xs 0.75)

let quantile_unsorted_input () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  check_float "median of unsorted" 3.0 (Quantile.median xs)

let quantile_five_number () =
  let mn, q1, med, q3, mx = Quantile.five_number [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "min" 1.0 mn;
  check_float "q1" 2.0 q1;
  check_float "median" 3.0 med;
  check_float "q3" 4.0 q3;
  check_float "max" 5.0 mx;
  check_float "iqr" 2.0 (Quantile.iqr [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let quantile_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Quantile.of_sorted: empty array") (fun () ->
      ignore (Quantile.compute [||] 0.5));
  Alcotest.check_raises "bad q" (Invalid_argument "Quantile.of_sorted: q must be in [0,1]")
    (fun () -> ignore (Quantile.compute [| 1.0 |] 1.5))

(* ------------------------------------------------------------------ *)
(* Linear regression                                                   *)
(* ------------------------------------------------------------------ *)

let linreg_exact_line () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> 3.0 +. (2.0 *. x)) xs in
  let f = Linreg.fit ~xs ~ys in
  check_close 1e-9 "slope" 2.0 f.Linreg.slope;
  check_close 1e-9 "intercept" 3.0 f.Linreg.intercept;
  check_close 1e-9 "r2" 1.0 f.Linreg.r2;
  check_close 1e-9 "predict" 13.0 (Linreg.predict f 5.0)

let linreg_noisy_fit () =
  let xs = Array.init 50 float_of_int in
  let ys = Array.mapi (fun i x -> (1.5 *. x) +. if i mod 2 = 0 then 0.5 else -0.5) xs in
  let f = Linreg.fit ~xs ~ys in
  Alcotest.(check bool) "slope near 1.5" true (abs_float (f.Linreg.slope -. 1.5) < 0.01);
  Alcotest.(check bool) "good r2" true (f.Linreg.r2 > 0.99)

let linreg_loglog_exponent () =
  let xs = Array.init 20 (fun i -> float_of_int (i + 1)) in
  let ys = Array.map (fun x -> 5.0 *. (x ** 1.7)) xs in
  let f = Linreg.loglog_fit ~xs ~ys in
  check_close 1e-6 "exponent" 1.7 f.Linreg.slope

let linreg_rejects () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Linreg.fit: length mismatch") (fun () ->
      ignore (Linreg.fit ~xs:[| 1.0 |] ~ys:[| 1.0; 2.0 |]));
  Alcotest.check_raises "constant xs" (Invalid_argument "Linreg.fit: xs are constant")
    (fun () -> ignore (Linreg.fit ~xs:[| 2.0; 2.0 |] ~ys:[| 1.0; 2.0 |]));
  Alcotest.check_raises "too few" (Invalid_argument "Linreg.fit: need at least two points")
    (fun () -> ignore (Linreg.fit ~xs:[| 1.0 |] ~ys:[| 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Goodness of fit                                                     *)
(* ------------------------------------------------------------------ *)

let gof_total_variation () =
  check_float "identical" 0.0
    (Gof.total_variation ~empirical:[| 0.5; 0.5 |] ~model:[| 0.5; 0.5 |]);
  check_float "disjoint" 1.0
    (Gof.total_variation ~empirical:[| 1.0; 0.0 |] ~model:[| 0.0; 1.0 |]);
  check_float "half" 0.25
    (Gof.total_variation ~empirical:[| 0.75; 0.25 |] ~model:[| 0.5; 0.5 |])

let gof_max_abs_error () =
  let err, idx = Gof.max_abs_error ~empirical:[| 0.1; 0.5; 0.4 |] ~model:[| 0.2; 0.2; 0.6 |] in
  check_float "largest gap" 0.3 err;
  Alcotest.(check int) "at index" 1 idx

let gof_ks_statistic () =
  check_float "identical" 0.0 (Gof.ks_statistic ~empirical:[| 0.5; 0.5 |] ~model:[| 0.5; 0.5 |]);
  check_float "disjoint" 1.0 (Gof.ks_statistic ~empirical:[| 1.0; 0.0 |] ~model:[| 0.0; 1.0 |])

let gof_chi_square () =
  check_float "perfect" 0.0 (Gof.chi_square ~observed:[| 10; 20 |] ~expected:[| 10.0; 20.0 |]);
  check_float "one-off" 0.1 (Gof.chi_square ~observed:[| 11; 20 |] ~expected:[| 10.0; 20.0 |]);
  Alcotest.check_raises "impossible cell"
    (Invalid_argument "Gof.chi_square: observation in a zero-expectation cell") (fun () ->
      ignore (Gof.chi_square ~observed:[| 1 |] ~expected:[| 0.0 |]))

let gof_ks_two_sample () =
  let a = Array.init 100 (fun i -> float_of_int i) in
  check_float "same sample" 0.0 (Gof.ks_two_sample a a);
  let b = Array.map (fun x -> x +. 1000.0) a in
  check_float "disjoint samples" 1.0 (Gof.ks_two_sample a b)

(* ------------------------------------------------------------------ *)
(* ASCII plots                                                         *)
(* ------------------------------------------------------------------ *)

module Plot = Ftr_stats.Ascii_plot

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let plot_contains_glyphs_and_legend () =
  let s = Plot.render [ Plot.series ~glyph:'*' ~label:"data" [ (1.0, 1.0); (2.0, 4.0) ] ] in
  Alcotest.(check bool) "has glyph" true (String.contains s '*');
  Alcotest.(check bool) "has legend" true (contains_substring s "[*] data")

let plot_corner_values_on_axis () =
  let s =
    Plot.render ~width:10 ~height:5
      [ Plot.series ~glyph:'x' ~label:"s" [ (0.0, 0.0); (10.0, 100.0) ] ]
  in
  Alcotest.(check bool) "max annotated" true (contains_substring s "100");
  Alcotest.(check bool) "x range shown" true (contains_substring s "0 .. 10")

let plot_empty_series () =
  Alcotest.(check string) "no points" "(no plottable points)\n"
    (Plot.render [ Plot.series ~glyph:'x' ~label:"s" [] ])

let plot_log_drops_nonpositive () =
  (* Only the positive point survives a log axis; the plot still renders. *)
  let s =
    Plot.render ~x_log:true
      [ Plot.series ~glyph:'x' ~label:"s" [ (-1.0, 1.0); (10.0, 2.0) ] ]
  in
  Alcotest.(check bool) "renders" true (String.contains s 'x')

let plot_rejects_tiny_canvas () =
  Alcotest.check_raises "too small" (Invalid_argument "Ascii_plot.render: canvas too small")
    (fun () ->
      ignore (Plot.render ~width:2 ~height:2 [ Plot.series ~glyph:'x' ~label:"s" [ (1.0, 1.0) ] ]))

let plot_single_point_degenerate_ranges () =
  let s = Plot.render [ Plot.series ~glyph:'#' ~label:"pt" [ (5.0, 5.0) ] ] in
  Alcotest.(check bool) "renders a single point" true (String.contains s '#')

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)
(* ------------------------------------------------------------------ *)

module Csv = Ftr_stats.Csv

let csv_plain_fields () =
  Alcotest.(check string) "no quoting" "a,b,c" (Csv.row_to_string [ "a"; "b"; "c" ])

let csv_escaping () =
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape_field "a,b");
  Alcotest.(check string) "quote doubled" "\"say \"\"hi\"\"\"" (Csv.escape_field "say \"hi\"");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape_field "a\nb");
  Alcotest.(check string) "clean untouched" "plain" (Csv.escape_field "plain")

let csv_document () =
  let s = Csv.to_string ~header:[ "x"; "y" ] ~rows:[ [ "1"; "2" ]; [ "3"; "4" ] ] in
  Alcotest.(check string) "document" "x,y\n1,2\n3,4\n" s

let csv_rejects_ragged_rows () =
  Alcotest.(check bool) "raises" true
    (match Csv.to_string ~header:[ "x"; "y" ] ~rows:[ [ "1" ] ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let csv_file_roundtrip () =
  let path = Filename.temp_file "ftrcsv_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Csv.write_file ~path ~header:[ "a" ] ~rows:[ [ "hello, world" ] ];
      let content = In_channel.with_open_text path In_channel.input_all in
      Alcotest.(check string) "written" "a\n\"hello, world\"\n" content)

let csv_number_fields () =
  Alcotest.(check string) "float" "3.14159" (Csv.float_field 3.14159);
  Alcotest.(check string) "int" "-42" (Csv.int_field (-42))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_summary_mean_in_range =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let s = Summary.of_array (Array.of_list xs) in
      let m = Summary.mean s in
      m >= Summary.min_value s -. 1e-9 && m <= Summary.max_value s +. 1e-9)

let prop_merge_commutes =
  QCheck.Test.make ~name:"merge is symmetric in mean" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 30) (float_range (-100.0) 100.0))
        (list_of_size (Gen.int_range 1 30) (float_range (-100.0) 100.0)))
    (fun (a, b) ->
      let sa = Summary.of_array (Array.of_list a) in
      let sb = Summary.of_array (Array.of_list b) in
      let m1 = Summary.mean (Summary.merge sa sb) in
      let m2 = Summary.mean (Summary.merge sb sa) in
      abs_float (m1 -. m2) < 1e-9)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantiles are monotone in q" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 40) (float_range (-100.0) 100.0))
    (fun xs ->
      let xs = Array.of_list xs in
      let q25 = Quantile.compute xs 0.25 in
      let q50 = Quantile.compute xs 0.5 in
      let q75 = Quantile.compute xs 0.75 in
      q25 <= q50 +. 1e-9 && q50 <= q75 +. 1e-9)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "stats"
    [
      ( "harmonic",
        [
          quick "small values" harmonic_small_values;
          quick "asymptotic approximation" harmonic_approx_accuracy;
          quick "table consistent" harmonic_table_consistent;
          quick "generalized" harmonic_generalized;
          quick "monotone" harmonic_monotone;
        ] );
      ( "summary",
        [
          quick "known values" summary_known_values;
          quick "empty" summary_empty;
          quick "single observation" summary_single;
          quick "merge matches pooled" summary_merge_matches_pooled;
          quick "merge with empty" summary_merge_with_empty;
          quick "sem and ci" summary_sem_and_ci;
          quick "student-t table" tdist_critical_values;
          quick "ci uses student-t" ci95_uses_student_t;
          quick "welford stability" summary_welford_stability;
          quick "pp renders" summary_pp_renders;
        ] );
      ( "quantile",
        [
          quick "basics" quantile_basics;
          quick "interpolation" quantile_interpolates;
          quick "unsorted input" quantile_unsorted_input;
          quick "five-number summary" quantile_five_number;
          quick "rejects bad input" quantile_rejects;
        ] );
      ( "linreg",
        [
          quick "exact line" linreg_exact_line;
          quick "noisy fit" linreg_noisy_fit;
          quick "log-log exponent" linreg_loglog_exponent;
          quick "rejects bad input" linreg_rejects;
        ] );
      ( "gof",
        [
          quick "total variation" gof_total_variation;
          quick "max abs error" gof_max_abs_error;
          quick "ks statistic" gof_ks_statistic;
          quick "chi-square" gof_chi_square;
          quick "two-sample ks" gof_ks_two_sample;
        ] );
      ( "ascii-plot",
        [
          quick "glyphs and legend" plot_contains_glyphs_and_legend;
          quick "axis annotations" plot_corner_values_on_axis;
          quick "empty series" plot_empty_series;
          quick "log axis drops non-positive" plot_log_drops_nonpositive;
          quick "rejects tiny canvas" plot_rejects_tiny_canvas;
          quick "single point" plot_single_point_degenerate_ranges;
        ] );
      ( "csv",
        [
          quick "plain fields" csv_plain_fields;
          quick "escaping" csv_escaping;
          quick "document" csv_document;
          quick "rejects ragged rows" csv_rejects_ragged_rows;
          quick "file roundtrip" csv_file_roundtrip;
          quick "number rendering" csv_number_fields;
        ] );
      ( "properties",
        List.map (fun p -> QCheck_alcotest.to_alcotest p)
          [
            prop_summary_mean_in_range;
            prop_merge_commutes;
            prop_quantile_monotone;
          ] );
    ]
