(* ftr-lint: disable-file T3 test assertions compare small concrete values *)
module Network = Ftr_core.Network
module Stats = Ftr_core.Network_stats
module Summary = Ftr_stats.Summary
module Rng = Ftr_prng.Rng

let rng () = Rng.of_int 8086

let net () = Network.build_ideal ~n:2048 ~links:8 (rng ())

(* ------------------------------------------------------------------ *)
(* Degrees                                                             *)
(* ------------------------------------------------------------------ *)

let out_degree_exact () =
  let s = Stats.out_degree_summary (net ()) in
  (* links + 2 immediate, minus the boundary nodes' missing side. *)
  Alcotest.(check int) "count" 2048 (Summary.count s);
  Alcotest.(check bool) "mean near links+2" true (abs_float (Summary.mean s -. 10.0) < 0.01);
  Alcotest.(check (float 1e-9)) "max" 10.0 (Summary.max_value s);
  Alcotest.(check (float 1e-9)) "min (boundary)" 9.0 (Summary.min_value s)

let in_degree_conserves_edges () =
  let n = net () in
  let total_out = ref 0 in
  for i = 0 to Network.size n - 1 do
    total_out := !total_out + Network.degree n i
  done;
  let total_in = Array.fold_left ( + ) 0 (Stats.in_degrees n) in
  Alcotest.(check int) "sum of in-degrees = sum of out-degrees" !total_out total_in

let in_degree_mean_matches_out () =
  let n = net () in
  let in_s = Stats.in_degree_summary n and out_s = Stats.out_degree_summary n in
  Alcotest.(check (float 1e-6)) "same mean" (Summary.mean out_s) (Summary.mean in_s)

let in_degree_no_hotspot_on_random_net () =
  (* Poisson-ish in-degrees: the max over 2048 nodes with mean 10 stays
     well under 4x the mean. *)
  let h = Stats.in_degree_hotspot (net ()) in
  Alcotest.(check bool) (Printf.sprintf "hotspot %.2f" h) true (h < 4.0)

let in_degree_geometric_is_flat () =
  (* The deterministic geometric network has identical in- and out-degrees
     for interior nodes: no randomness, no spread. *)
  let n = Network.build_geometric ~n:1024 ~base:2 in
  let h = Stats.in_degree_hotspot n in
  Alcotest.(check bool) (Printf.sprintf "flat (%.2f)" h) true (h < 1.5)

(* ------------------------------------------------------------------ *)
(* Lengths and boundary                                                *)
(* ------------------------------------------------------------------ *)

let percentiles_ordered () =
  match Stats.length_percentiles (net ()) with
  | None -> Alcotest.fail "expected lengths"
  | Some (med, p90, p99) ->
      Alcotest.(check bool) "ordered" true (med <= p90 && p90 <= p99);
      (* Median of the 1/d law over [1, n-1] is around sqrt(n). *)
      Alcotest.(check bool) (Printf.sprintf "median %.0f near sqrt n" med) true
        (med > 10.0 && med < 300.0)

let percentiles_absent_on_chain () =
  let chain = Network.build_ideal ~n:64 ~links:0 (rng ()) in
  Alcotest.(check bool) "no long links" true (Stats.length_percentiles chain = None)

let boundary_distortion_line_vs_circle () =
  let line = Network.build_ideal ~n:4096 ~links:8 (Rng.of_int 1) in
  let circle = Network.build_ring ~n:4096 ~links:8 (Rng.of_int 2) in
  let dl = Stats.boundary_distortion line in
  let dc = Stats.boundary_distortion circle in
  (* Edge nodes of the line reach farther; the circle is symmetric. *)
  Alcotest.(check bool) (Printf.sprintf "line distorted (%.2f)" dl) true (dl > 1.1);
  Alcotest.(check bool) (Printf.sprintf "circle flat (%.2f)" dc) true
    (abs_float (dc -. 1.0) < 0.15)

let anatomy_record_consistent () =
  let a = Stats.anatomy (net ()) in
  Alcotest.(check int) "nodes" 2048 a.Stats.nodes;
  Alcotest.(check bool) "in=out mean" true
    (abs_float (a.Stats.mean_in_degree -. a.Stats.mean_out_degree) < 1e-6);
  Alcotest.(check bool) "max >= mean" true
    (float_of_int a.Stats.max_in_degree >= a.Stats.mean_in_degree);
  Alcotest.(check bool) "percentiles ordered" true
    (a.Stats.median_length <= a.Stats.p90_length && a.Stats.p90_length <= a.Stats.p99_length)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "network_stats"
    [
      ( "degrees",
        [
          quick "out-degree exact" out_degree_exact;
          quick "edge conservation" in_degree_conserves_edges;
          quick "in mean = out mean" in_degree_mean_matches_out;
          quick "no hotspot on 1/d networks" in_degree_no_hotspot_on_random_net;
          quick "geometric networks are flat" in_degree_geometric_is_flat;
        ] );
      ( "lengths",
        [
          quick "percentiles ordered" percentiles_ordered;
          quick "absent on chains" percentiles_absent_on_chain;
          quick "boundary: line distorted, circle flat" boundary_distortion_line_vs_circle;
          quick "anatomy record" anatomy_record_consistent;
        ] );
    ]
