module Line = Ftr_metric.Line
module Ring = Ftr_metric.Ring
module Torus = Ftr_metric.Torus

(* ------------------------------------------------------------------ *)
(* Line                                                                *)
(* ------------------------------------------------------------------ *)

let line_distance () =
  let l = Line.create 100 in
  Alcotest.(check int) "|3-10|" 7 (Line.distance l 3 10);
  Alcotest.(check int) "|10-3|" 7 (Line.distance l 10 3);
  Alcotest.(check int) "zero" 0 (Line.distance l 42 42)

let line_directed () =
  let l = Line.create 100 in
  Alcotest.(check int) "forward" 7 (Line.directed l ~src:3 ~dst:10);
  Alcotest.(check int) "backward" (-7) (Line.directed l ~src:10 ~dst:3)

let line_bounds () =
  let l = Line.create 10 in
  Alcotest.(check bool) "contains 0" true (Line.contains l 0);
  Alcotest.(check bool) "contains 9" true (Line.contains l 9);
  Alcotest.(check bool) "excludes 10" false (Line.contains l 10);
  Alcotest.(check bool) "excludes -1" false (Line.contains l (-1));
  Alcotest.check_raises "distance out of range" (Invalid_argument "Line: point out of range")
    (fun () -> ignore (Line.distance l 0 10))

let line_clamp_midpoint () =
  let l = Line.create 10 in
  Alcotest.(check int) "clamp low" 0 (Line.clamp l (-5));
  Alcotest.(check int) "clamp high" 9 (Line.clamp l 50);
  Alcotest.(check int) "clamp inside" 4 (Line.clamp l 4);
  Alcotest.(check int) "midpoint" 4 (Line.midpoint l 2 7)

let line_rejects_empty () =
  Alcotest.check_raises "size 0" (Invalid_argument "Line.create: size must be >= 1") (fun () ->
      ignore (Line.create 0))

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let ring_distance () =
  let r = Ring.create 10 in
  Alcotest.(check int) "short way" 3 (Ring.distance r 1 4);
  Alcotest.(check int) "wraps" 2 (Ring.distance r 9 1);
  Alcotest.(check int) "antipode" 5 (Ring.distance r 0 5)

let ring_clockwise () =
  let r = Ring.create 10 in
  Alcotest.(check int) "forward" 3 (Ring.clockwise_distance r ~src:1 ~dst:4);
  Alcotest.(check int) "around" 8 (Ring.clockwise_distance r ~src:4 ~dst:2);
  Alcotest.(check int) "self" 0 (Ring.clockwise_distance r ~src:7 ~dst:7)

let ring_normalize_add () =
  let r = Ring.create 10 in
  Alcotest.(check int) "negative" 7 (Ring.normalize r (-3));
  Alcotest.(check int) "large" 3 (Ring.normalize r 23);
  Alcotest.(check int) "add wraps" 2 (Ring.add r 9 3);
  Alcotest.(check int) "add negative" 8 (Ring.add r 1 (-3))

let ring_distance_symmetric () =
  let r = Ring.create 17 in
  for a = 0 to 16 do
    for b = 0 to 16 do
      Alcotest.(check int) "symmetry" (Ring.distance r a b) (Ring.distance r b a)
    done
  done

(* ------------------------------------------------------------------ *)
(* Torus                                                               *)
(* ------------------------------------------------------------------ *)

let torus_sizes () =
  let t = Torus.create ~dims:2 ~side:8 in
  Alcotest.(check int) "size" 64 (Torus.size t);
  Alcotest.(check int) "dims" 2 (Torus.dims t);
  Alcotest.(check int) "side" 8 (Torus.side t);
  let t3 = Torus.create ~dims:3 ~side:4 in
  Alcotest.(check int) "3d size" 64 (Torus.size t3)

let torus_coords_roundtrip () =
  let t = Torus.create ~dims:3 ~side:5 in
  for p = 0 to Torus.size t - 1 do
    Alcotest.(check int) "roundtrip" p (Torus.index t (Torus.coords t p))
  done

let torus_distance_wraps () =
  let t = Torus.create ~dims:2 ~side:8 in
  let p = Torus.index t [| 0; 0 |] and q = Torus.index t [| 7; 7 |] in
  Alcotest.(check int) "corner wrap" 2 (Torus.distance t p q);
  let r = Torus.index t [| 4; 4 |] in
  Alcotest.(check int) "antipode" 8 (Torus.distance t p r)

let torus_axis_distance () =
  let t = Torus.create ~dims:2 ~side:8 in
  Alcotest.(check int) "direct" 3 (Torus.axis_distance t 1 4);
  Alcotest.(check int) "wrapped" 2 (Torus.axis_distance t 7 1)

let torus_neighbors () =
  let t = Torus.create ~dims:2 ~side:5 in
  let p = Torus.index t [| 2; 2 |] in
  let ns = Torus.neighbors t p in
  Alcotest.(check int) "four lattice neighbours" 4 (List.length ns);
  List.iter
    (fun v -> Alcotest.(check int) "at distance 1" 1 (Torus.distance t p v))
    ns

let torus_neighbors_wrap () =
  let t = Torus.create ~dims:2 ~side:5 in
  let p = Torus.index t [| 0; 0 |] in
  let ns = Torus.neighbors t p in
  Alcotest.(check int) "four neighbours with wrap" 4 (List.length ns);
  Alcotest.(check bool) "wraps to side-1" true
    (List.mem (Torus.index t [| 4; 0 |]) ns && List.mem (Torus.index t [| 0; 4 |]) ns)

let torus_move () =
  let t = Torus.create ~dims:2 ~side:6 in
  let p = Torus.index t [| 5; 3 |] in
  Alcotest.(check int) "move wraps" (Torus.index t [| 1; 3 |]) (Torus.move t p ~axis:0 ~delta:2);
  Alcotest.(check int) "move back" (Torus.index t [| 5; 1 |]) (Torus.move t p ~axis:1 ~delta:(-2))

let torus_tiny_sides () =
  (* side = 2: +1 and -1 coincide, so each node has exactly dims
     neighbours; side = 3 has the full 2*dims. *)
  let t2 = Torus.create ~dims:2 ~side:2 in
  Alcotest.(check int) "side 2 dedup" 2 (List.length (Torus.neighbors t2 0));
  let t3 = Torus.create ~dims:2 ~side:3 in
  Alcotest.(check int) "side 3 full" 4 (List.length (Torus.neighbors t3 0));
  Alcotest.(check int) "side 2 max distance" 2
    (Torus.distance t2 (Torus.index t2 [| 0; 0 |]) (Torus.index t2 [| 1; 1 |]))

let torus_rejects () =
  Alcotest.check_raises "bad dims" (Invalid_argument "Torus.create: dims must be >= 1")
    (fun () -> ignore (Torus.create ~dims:0 ~side:4));
  let t = Torus.create ~dims:2 ~side:4 in
  Alcotest.check_raises "bad coords" (Invalid_argument "Torus.index: wrong dimensionality")
    (fun () -> ignore (Torus.index t [| 1 |]))

(* The distance decodes both indices in place: no coordinate arrays.
   The slack covers the measurement itself. *)
let torus_distance_allocates_nothing () =
  let t = Torus.create ~dims:2 ~side:64 in
  let k = 10_000 and sum = ref 0 in
  ignore (Torus.distance t 0 1);
  let before = Gc.minor_words () in
  for i = 1 to k do
    sum := !sum + Torus.distance t (i land 4095) ((i * 97) land 4095)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words in %d calls" words k)
    true (words <= 8.0);
  Alcotest.(check bool) "distances were summed" true (!sum > 0)

let torus_distance_range_checked () =
  let t = Torus.create ~dims:2 ~side:4 in
  Alcotest.check_raises "past the end" (Invalid_argument "Torus: point out of range") (fun () ->
      ignore (Torus.distance t 0 16));
  Alcotest.check_raises "negative" (Invalid_argument "Torus: point out of range") (fun () ->
      ignore (Torus.distance t (-1) 0))

(* ------------------------------------------------------------------ *)
(* Properties: all three spaces are metrics                            *)
(* ------------------------------------------------------------------ *)

let prop_line_triangle =
  QCheck.Test.make ~name:"line triangle inequality" ~count:500
    QCheck.(triple (int_range 0 99) (int_range 0 99) (int_range 0 99))
    (fun (a, b, c) ->
      let l = Line.create 100 in
      Line.distance l a c <= Line.distance l a b + Line.distance l b c)

let prop_ring_triangle =
  QCheck.Test.make ~name:"ring triangle inequality" ~count:500
    QCheck.(triple (int_range 0 99) (int_range 0 99) (int_range 0 99))
    (fun (a, b, c) ->
      let r = Ring.create 100 in
      Ring.distance r a c <= Ring.distance r a b + Ring.distance r b c)

let prop_torus_triangle =
  QCheck.Test.make ~name:"torus triangle inequality" ~count:500
    QCheck.(triple (int_range 0 63) (int_range 0 63) (int_range 0 63))
    (fun (a, b, c) ->
      let t = Torus.create ~dims:2 ~side:8 in
      Torus.distance t a c <= Torus.distance t a b + Torus.distance t b c)

let prop_torus_symmetry =
  QCheck.Test.make ~name:"torus distance symmetric" ~count:500
    QCheck.(pair (int_range 0 63) (int_range 0 63))
    (fun (a, b) ->
      let t = Torus.create ~dims:2 ~side:8 in
      Torus.distance t a b = Torus.distance t b a)

(* The reference: decode both points into coordinates and sum the
   per-axis wraparound distances. *)
let prop_torus_distance_matches_coords =
  QCheck.Test.make ~name:"torus distance matches the coordinate-wise sum" ~count:500
    QCheck.(quad (int_range 1 4) (int_range 1 9) small_nat small_nat)
    (fun (dims, side, a, b) ->
      let t = Torus.create ~dims ~side in
      let a = a mod Torus.size t and b = b mod Torus.size t in
      let ca = Torus.coords t a and cb = Torus.coords t b in
      let reference = ref 0 in
      for i = 0 to dims - 1 do
        let d = abs (ca.(i) - cb.(i)) in
        reference := !reference + Int.min d (side - d)
      done;
      Torus.distance t a b = !reference)

let prop_ring_clockwise_consistent =
  QCheck.Test.make ~name:"ring distance = min of both arcs" ~count:500
    QCheck.(pair (int_range 0 99) (int_range 0 99))
    (fun (a, b) ->
      let r = Ring.create 100 in
      let cw = Ring.clockwise_distance r ~src:a ~dst:b in
      let ccw = Ring.clockwise_distance r ~src:b ~dst:a in
      Ring.distance r a b = min cw ccw)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "metric"
    [
      ( "line",
        [
          quick "distance" line_distance;
          quick "directed offset" line_directed;
          quick "bounds" line_bounds;
          quick "clamp and midpoint" line_clamp_midpoint;
          quick "rejects empty" line_rejects_empty;
        ] );
      ( "ring",
        [
          quick "distance" ring_distance;
          quick "clockwise" ring_clockwise;
          quick "normalize and add" ring_normalize_add;
          quick "symmetric" ring_distance_symmetric;
        ] );
      ( "torus",
        [
          quick "sizes" torus_sizes;
          quick "coords roundtrip" torus_coords_roundtrip;
          quick "distance wraps" torus_distance_wraps;
          quick "axis distance" torus_axis_distance;
          quick "lattice neighbours" torus_neighbors;
          quick "neighbours wrap" torus_neighbors_wrap;
          quick "move" torus_move;
          quick "tiny sides" torus_tiny_sides;
          quick "rejects bad input" torus_rejects;
          quick "distance allocates nothing" torus_distance_allocates_nothing;
          quick "distance range-checked" torus_distance_range_checked;
        ] );
      ( "properties",
        List.map (fun p -> QCheck_alcotest.to_alcotest p)
          [
            prop_line_triangle;
            prop_ring_triangle;
            prop_torus_triangle;
            prop_torus_symmetry;
            prop_ring_clockwise_consistent;
            prop_torus_distance_matches_coords;
          ] );
    ]
