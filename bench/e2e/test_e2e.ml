(* ftr-lint: disable-file R1 T2 -- part of the benchmark harness, whose wall-clock reads are the measurement *)

(* Unit tests for the benchmark's own arithmetic: percentiles (with
   failures as +infinity), quartiles, span self time, the bound and gain
   rules that compare two sets of runs, and the churn generator's
   guarantees. *)

open E2e

let float_eq = Alcotest.float 1e-12

let samples_of xs =
  let s = Stats.samples () in
  List.iter (Stats.add s) xs;
  s

let test_percentile_basic () =
  let s = samples_of (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.check float_eq "p50 is the 50th smallest" 50.0 (Stats.percentile s 0.5);
  Alcotest.check float_eq "p99 is the 99th smallest" 99.0 (Stats.percentile s 0.99);
  Alcotest.check float_eq "p100 is the largest" 100.0 (Stats.percentile s 1.0);
  Alcotest.check float_eq "p0 is the smallest" 1.0 (Stats.percentile s 0.0);
  Alcotest.(check bool) "empty set is NaN" true (Float.is_nan (Stats.percentile (Stats.samples ()) 0.5))

let test_percentile_weights () =
  let s = Stats.samples () in
  Stats.add s ~weight:90 1.0;
  Stats.add s ~weight:10 2.0;
  Stats.add s ~weight:0 100.0;
  Alcotest.(check int) "weights add up" 100 (Stats.count s);
  Alcotest.check float_eq "p90 inside the heavy value" 1.0 (Stats.percentile s 0.9);
  Alcotest.check float_eq "p91 past it" 2.0 (Stats.percentile s 0.91)

let test_percentile_failures () =
  (* One failure in a hundred leaves p99 finite; two push it to +inf,
     and a failure never pulls the median. *)
  let one = samples_of (List.init 99 (fun i -> float_of_int (i + 1)) @ [ infinity ]) in
  Alcotest.check float_eq "1% failed: p99 finite" 99.0 (Stats.percentile one 0.99);
  let two = samples_of (List.init 98 (fun i -> float_of_int (i + 1)) @ [ infinity; infinity ]) in
  Alcotest.(check bool) "2% failed: p99 infinite" true
    (Float.equal infinity (Stats.percentile two 0.99));
  Alcotest.check float_eq "median unaffected" 50.0 (Stats.percentile two 0.5);
  Alcotest.check_raises "NaN refused" (Invalid_argument "Stats.add: NaN sample") (fun () ->
      Stats.add (Stats.samples ()) nan)

let test_hist () =
  let h = Stats.hist () in
  List.iter (Stats.hist_add h) [ 3; 1; 2; 2; 100 ];
  Alcotest.check float_eq "mean" 21.6 (Stats.hist_mean h);
  Alcotest.check float_eq "median" 2.0 (Stats.hist_quantile h 0.5);
  Alcotest.check float_eq "p99" 100.0 (Stats.hist_quantile h 0.99)

let triple = Alcotest.(triple (float 1e-12) (float 1e-12) (float 1e-12))

let test_quartiles () =
  (* Reference values from Python: statistics.quantiles(data, n=4). *)
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25) (Stats.quartiles ten);
  Alcotest.check triple "1..3" (1.0, 2.0, 3.0) (Stats.quartiles [ 3.0; 1.0; 2.0 ]);
  Alcotest.check triple "two values" (0.75, 1.5, 2.25) (Stats.quartiles [ 1.0; 2.0 ]);
  Alcotest.check float_eq "spread of 1..10" (5.5 /. 5.5) (Stats.spread ten)

let with_spans f =
  let t = Spans.create () in
  Spans.set_active t true;
  f t

let test_self_nested () =
  with_spans (fun t ->
      let a = Spans.id t "a" and b = Spans.id t "b" and c = Spans.id t "c" in
      Spans.enter_at t a ~lookup:(-1) ~start:0;
      Spans.enter_at t b ~lookup:(-1) ~start:10;
      Spans.enter_at t c ~lookup:7 ~start:20;
      Spans.leave_at t ~stop:30;
      Spans.leave_at t ~stop:60;
      Spans.leave_at t ~stop:100;
      Alcotest.check float_eq "a total" 100e-9 (Spans.total_s t "a");
      Alcotest.check float_eq "a self excludes b, not c twice" 50e-9 (Spans.self_s t "a");
      Alcotest.check float_eq "b self excludes c" 40e-9 (Spans.self_s t "b");
      Alcotest.check float_eq "leaf self is its total" 10e-9 (Spans.self_s t "c"))

let test_self_back_to_back () =
  with_spans (fun t ->
      let a = Spans.id t "a" and b = Spans.id t "b" in
      Spans.enter_at t a ~lookup:(-1) ~start:0;
      Spans.enter_at t b ~lookup:(-1) ~start:10;
      Spans.leave_at t ~stop:30;
      Spans.enter_at t b ~lookup:(-1) ~start:30;
      Spans.leave_at t ~stop:70;
      Spans.leave_at t ~stop:100;
      Alcotest.(check int) "b ran twice" 2 (Spans.count t "b");
      Alcotest.check float_eq "b total" 60e-9 (Spans.total_s t "b");
      Alcotest.check float_eq "a self is the gaps" 40e-9 (Spans.self_s t "a");
      Alcotest.check float_eq "b p50" 20e-9 (Spans.percentile_s t "b" 0.5);
      Alcotest.check float_eq "idle span reads 0" 0.0 (Spans.percentile_s t "never" 0.5))

let test_inactive () =
  let t = Spans.create () in
  Spans.enter t (Spans.id t "x");
  Spans.leave t;
  Alcotest.(check int) "nothing recorded" 0 (Spans.count t "x")

let test_chrome () =
  with_spans (fun t ->
      let a = Spans.id t "a" and b = Spans.id t "b" in
      Spans.enter_at t a ~lookup:(-1) ~start:t.Spans.origin;
      Spans.enter_at t b ~lookup:3 ~start:(t.Spans.origin + 1000);
      Spans.leave_at t ~stop:(t.Spans.origin + 3000);
      Spans.leave_at t ~stop:(t.Spans.origin + 5000);
      let j = Ftr_obs.Json.to_string (Spans.chrome_json t) in
      let parsed = Ftr_obs.Json.parse j in
      match Ftr_obs.Json.member "traceEvents" parsed with
      | Some (Ftr_obs.Json.List [ ea; eb ]) ->
          let args e = Option.get (Ftr_obs.Json.member "args" e) in
          Alcotest.(check bool) "root has no parent" true
            (match Ftr_obs.Json.member "parent" (args ea) with Some (Ftr_obs.Json.Int -1) -> true | _ -> false);
          Alcotest.(check bool) "child points at root, carries its lookup" true
            (match (Ftr_obs.Json.member "parent" (args eb), Ftr_obs.Json.member "lookup" (args eb)) with
            | Some (Ftr_obs.Json.Int 0), Some (Ftr_obs.Json.Int 3) -> true
            | _ -> false)
      | _ -> Alcotest.fail "expected two events")

let test_bounds () =
  let base = [ 10.0; 10.0; 10.0 ] in
  Alcotest.(check bool) "15% slower breaks a 10% bound" true
    (Stats.regresses ~better:Stats.Lower ~bound:0.1 ~base ~cand:[ 11.5; 11.5; 11.5 ]);
  Alcotest.(check bool) "5% slower holds" false
    (Stats.regresses ~better:Stats.Lower ~bound:0.1 ~base ~cand:[ 10.5; 10.4; 10.6 ]);
  Alcotest.(check bool) "faster never regresses" false
    (Stats.regresses ~better:Stats.Lower ~bound:0.0 ~base ~cand:[ 5.0; 5.0; 5.0 ]);
  Alcotest.(check bool) "higher-is-better: 15% fewer breaks" true
    (Stats.regresses ~better:Stats.Higher ~bound:0.1 ~base:[ 100.0 ] ~cand:[ 85.0 ]);
  Alcotest.check float_eq "worse share is relative to the base median" 0.2
    (Stats.worse_share ~better:Stats.Lower ~base:[ 5.0; 10.0; 100.0 ] ~cand:[ 12.0 ]);
  Alcotest.(check bool) "every candidate run below every base run" true
    (Stats.all_better ~better:Stats.Lower ~base:[ 10.0; 30.0 ] ~cand:[ 5.0; 9.0 ]);
  Alcotest.(check bool) "overlapping runs are not all better" false
    (Stats.all_better ~better:Stats.Higher ~base:[ 10.0; 30.0 ] ~cand:[ 20.0; 40.0 ])

let test_wins () =
  let base = List.init 10 (fun i -> 100.0 +. float_of_int i) in
  let faster = List.map (fun x -> x -. 20.0) base in
  Alcotest.(check bool) "ten of ten wins, gap beyond the spread" true
    (Stats.wins ~better:Stats.Lower ~base ~cand:faster);
  let eight = List.mapi (fun i x -> if i < 2 then x +. 1.0 else x -. 20.0) base in
  Alcotest.(check bool) "eight of ten is not a gain" false
    (Stats.wins ~better:Stats.Lower ~base ~cand:eight);
  let close = List.map (fun x -> x -. 1.0) base in
  Alcotest.(check bool) "gap inside the base spread is not a gain" false
    (Stats.wins ~better:Stats.Lower ~base ~cand:close)

let test_schedule () =
  let churn = { Gen.crash = 2.0; leave = 1.0; join = 3.0; stabilize = 4 } in
  let mk () = Gen.schedule ~seed:5 ~line_size:4096 ~initial:256 ~ticks:200 ~rate:8 churn in
  let s = mk () in
  let stable = Hashtbl.create 128 in
  Array.iter (fun p -> Hashtbl.replace stable p ()) s.Gen.stable;
  let removed = Hashtbl.create 512 and joined = Hashtbl.create 512 in
  Array.iteri
    (fun k (t : Gen.tick) ->
      Array.iter
        (fun p ->
          Alcotest.(check bool) "lookup sources are stable" true (Hashtbl.mem stable p))
        t.sources;
      Array.iter
        (fun p ->
          Alcotest.(check bool) "victims are never stable" false (Hashtbl.mem stable p);
          Alcotest.(check bool) "a node is removed once" false (Hashtbl.mem removed p);
          Hashtbl.replace removed p k)
        (Array.append t.crashes t.leaves);
      Array.iter
        (fun (p, via) ->
          Alcotest.(check bool) "joins bootstrap through stable nodes" true (Hashtbl.mem stable via);
          Alcotest.(check bool) "join points are fresh" false
            (Hashtbl.mem joined p || Array.exists (Int.equal p) s.Gen.initial);
          Hashtbl.replace joined p ())
        t.joins)
    s.Gen.ticks;
  Alcotest.(check bool) "churn happened" true (Hashtbl.length removed > 100 && Hashtbl.length joined > 100);
  Alcotest.(check int) "lookups counted" (200 * 8) s.Gen.lookups;
  let again = mk () in
  Alcotest.(check bool) "same seed, same schedule" true
    (Array.for_all2
       (fun (a : Gen.tick) (b : Gen.tick) ->
         a.sources = b.sources && a.targets = b.targets && a.crashes = b.crashes && a.joins = b.joins)
       s.Gen.ticks again.Gen.ticks)

let () =
  Alcotest.run "bench_e2e"
    [
      ( "percentile",
        [
          Alcotest.test_case "e2e percentile nearest rank" `Quick test_percentile_basic;
          Alcotest.test_case "e2e percentile weights" `Quick test_percentile_weights;
          Alcotest.test_case "e2e percentile failures as infinity" `Quick test_percentile_failures;
          Alcotest.test_case "e2e hop histogram" `Quick test_hist;
          Alcotest.test_case "e2e quartiles match python" `Quick test_quartiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "e2e self time nested" `Quick test_self_nested;
          Alcotest.test_case "e2e self time back to back" `Quick test_self_back_to_back;
          Alcotest.test_case "e2e inactive recorder" `Quick test_inactive;
          Alcotest.test_case "e2e chrome trace export" `Quick test_chrome;
        ] );
      ( "compare",
        [
          Alcotest.test_case "e2e bound check" `Quick test_bounds;
          Alcotest.test_case "e2e win rule" `Quick test_wins;
        ] );
      ("generator", [ Alcotest.test_case "e2e churn schedule" `Quick test_schedule ]);
    ]
