(* ftr-lint: disable-file T3 test assertions compare small concrete values *)
module Network = Ftr_core.Network
module Rng = Ftr_prng.Rng
module Sample = Ftr_prng.Sample

(* A node's neighbour row as an array, for comparisons. *)
let row net u = Array.init (Network.degree net u) (Network.neighbor net u)

let rng () = Rng.of_int 12345

(* ------------------------------------------------------------------ *)
(* Ideal builder                                                       *)
(* ------------------------------------------------------------------ *)

let ideal_shape () =
  let net = Network.build_ideal ~n:256 ~links:4 (rng ()) in
  Alcotest.(check int) "size" 256 (Network.size net);
  Alcotest.(check int) "line size" 256 (Network.line_size net);
  Alcotest.(check int) "links" 4 (Network.links net);
  Alcotest.(check bool) "full" true (Network.is_full net)

let ideal_degrees () =
  let n = 256 and links = 4 in
  let net = Network.build_ideal ~n ~links (rng ()) in
  for u = 0 to n - 1 do
    let expected = links + (if u = 0 || u = n - 1 then 1 else 2) in
    Alcotest.(check int) (Printf.sprintf "degree of %d" u) expected
      (Network.degree net u)
  done

let ideal_has_immediate_neighbors () =
  let n = 128 in
  let net = Network.build_ideal ~n ~links:2 (rng ()) in
  for u = 0 to n - 1 do
    let ns = row net u in
    if u > 0 then
      Alcotest.(check bool) "left neighbour present" true (Array.mem (u - 1) ns);
    if u < n - 1 then
      Alcotest.(check bool) "right neighbour present" true (Array.mem (u + 1) ns)
  done

let ideal_neighbors_sorted_and_valid () =
  let n = 200 in
  let net = Network.build_ideal ~n ~links:5 (rng ()) in
  for u = 0 to n - 1 do
    let ns = row net u in
    Array.iteri
      (fun i v ->
        Alcotest.(check bool) "in range" true (v >= 0 && v < n);
        Alcotest.(check bool) "no self-loop" true (v <> u);
        if i > 0 then Alcotest.(check bool) "sorted" true (ns.(i - 1) <= v))
      ns
  done

let ideal_link_lengths_follow_harmonic () =
  (* Aggregate length pmf should be close to 1/d/H over short lengths. *)
  let n = 1024 and links = 8 in
  let net = Network.build_ideal ~n ~links (rng ()) in
  let lengths = Network.long_link_lengths net in
  let total = List.length lengths in
  Alcotest.(check int) "number of long links" (n * links) total;
  let count_len d = List.length (List.filter (fun x -> x = d) lengths) in
  let h = Ftr_stats.Harmonic.number (n - 1) in
  List.iter
    (fun d ->
      let expected = 1.0 /. (float_of_int d *. h) in
      let rate = float_of_int (count_len d) /. float_of_int total in
      Alcotest.(check bool)
        (Printf.sprintf "length %d rate %.4f vs %.4f" d rate expected)
        true
        (abs_float (rate -. expected) < 0.02))
    [ 1; 2; 4; 8 ]

let ideal_deterministic_by_seed () =
  let a = Network.build_ideal ~n:64 ~links:3 (Rng.of_int 9) in
  let b = Network.build_ideal ~n:64 ~links:3 (Rng.of_int 9) in
  for u = 0 to 63 do
    Alcotest.(check (array int)) "same network" (row a u) (row b u)
  done

let ideal_rejects () =
  Alcotest.check_raises "tiny" (Invalid_argument "Network.build_ideal: need at least two nodes")
    (fun () -> ignore (Network.build_ideal ~n:1 ~links:1 (rng ())))

let ideal_zero_links () =
  (* Pure chain: still routable by crawling. *)
  let net = Network.build_ideal ~n:16 ~links:0 (rng ()) in
  Alcotest.(check int) "interior degree" 2 (Network.degree net 5)

let ideal_strongly_connected () =
  let net = Network.build_ideal ~n:64 ~links:2 (rng ()) in
  Alcotest.(check bool) "strongly connected" true
    (Ftr_graph.Bfs.is_strongly_connected (Network.csr net))

(* ------------------------------------------------------------------ *)
(* Deterministic (Theorem 14) builder                                  *)
(* ------------------------------------------------------------------ *)

let deterministic_exact_links () =
  (* base 2, n = 16: node 0 links to +1,+2,+4,+8 (and nothing negative). *)
  let net = Network.build_deterministic ~n:16 ~base:2 in
  Alcotest.(check (array int)) "node 0" [| 1; 2; 4; 8 |] (row net 0);
  (* node 5: ±1, ±2, ±4, ±8 → 1,3,4,6,7,9,13. *)
  Alcotest.(check (array int)) "node 5" [| 1; 3; 4; 6; 7; 9; 13 |] (row net 5)

let deterministic_base3 () =
  let net = Network.build_deterministic ~n:27 ~base:3 in
  (* node 0: j*3^i for j in {1,2}, i in {0,1,2}: 1,2,3,6,9,18. *)
  Alcotest.(check (array int)) "node 0 base 3" [| 1; 2; 3; 6; 9; 18 |] (row net 0)

let deterministic_symmetric_interior () =
  let net = Network.build_deterministic ~n:1024 ~base:2 in
  let mid = 512 in
  let ns = row net mid in
  Array.iter
    (fun v ->
      let d = abs (v - mid) in
      (* Every link length is a power of two. *)
      Alcotest.(check bool) (Printf.sprintf "length %d is 2^i" d) true (d land (d - 1) = 0))
    ns

let geometric_links () =
  let net = Network.build_geometric ~n:16 ~base:2 in
  Alcotest.(check (array int)) "node 0 geometric" [| 1; 2; 4; 8 |] (row net 0);
  Alcotest.(check (array int)) "node 8 geometric" [| 0; 4; 6; 7; 9; 10; 12 |]
    (row net 8)

(* ------------------------------------------------------------------ *)
(* Binomial (Theorem 17) builder                                       *)
(* ------------------------------------------------------------------ *)

let binomial_present_subset () =
  let n = 2048 in
  let net = Network.build_binomial ~n ~links:2 ~present_p:0.5 (rng ()) in
  let m = Network.size net in
  Alcotest.(check bool) "roughly half present" true
    (abs (m - (n / 2)) < n / 8);
  Alcotest.(check bool) "not full" true (not (Network.is_full net));
  (* Positions strictly increasing and on the line. *)
  for i = 1 to m - 1 do
    Alcotest.(check bool) "increasing" true (Network.position net i > Network.position net (i - 1))
  done

let binomial_links_present_only () =
  let net = Network.build_binomial ~n:512 ~links:3 ~present_p:0.3 (rng ()) in
  let m = Network.size net in
  for i = 0 to m - 1 do
    Array.iter
      (fun j -> Alcotest.(check bool) "neighbour is a node index" true (j >= 0 && j < m))
      (row net i)
  done

let binomial_immediate_are_adjacent_indices () =
  let net = Network.build_binomial ~n:512 ~links:1 ~present_p:0.4 (rng ()) in
  let m = Network.size net in
  for i = 0 to m - 1 do
    let ns = row net i in
    if i > 0 then Alcotest.(check bool) "prev present" true (Array.mem (i - 1) ns);
    if i < m - 1 then Alcotest.(check bool) "next present" true (Array.mem (i + 1) ns)
  done

let binomial_full_at_p1 () =
  let net = Network.build_binomial ~n:128 ~links:1 ~present_p:1.0 (rng ()) in
  Alcotest.(check int) "all present" 128 (Network.size net);
  Alcotest.(check bool) "full" true (Network.is_full net)

let binomial_rejects () =
  Alcotest.check_raises "bad p"
    (Invalid_argument "Network.build_binomial: present_p must be in (0,1]") (fun () ->
      ignore (Network.build_binomial ~n:16 ~links:1 ~present_p:0.0 (rng ())))

(* ------------------------------------------------------------------ *)
(* Ring (circle) builder                                               *)
(* ------------------------------------------------------------------ *)

let ring_shape () =
  let net = Network.build_ring ~n:256 ~links:4 (rng ()) in
  Alcotest.(check bool) "circle geometry" true (Network.geometry net = Network.Circle);
  Alcotest.(check int) "size" 256 (Network.size net);
  (* Every node, including 0 and n-1, has exactly two ring neighbours. *)
  for u = 0 to 255 do
    Alcotest.(check int) "degree" 6 (Network.degree net u);
    let ns = row net u in
    Alcotest.(check bool) "clockwise neighbour" true (Array.mem ((u + 1) mod 256) ns);
    Alcotest.(check bool) "counter-clockwise neighbour" true (Array.mem ((u + 255) mod 256) ns)
  done

let ring_distance_wraps () =
  let net = Network.build_ring ~n:100 ~links:1 (rng ()) in
  Alcotest.(check int) "short way" 3 (Network.distance net 1 4);
  Alcotest.(check int) "wraps" 2 (Network.distance net 99 1);
  Alcotest.(check int) "clockwise" 3 (Network.clockwise_distance net ~src:1 ~dst:4);
  Alcotest.(check int) "clockwise around" 97 (Network.clockwise_distance net ~src:4 ~dst:1)

let ring_link_lengths_bounded () =
  let n = 512 in
  let net = Network.build_ring ~n ~links:6 (rng ()) in
  List.iter
    (fun d -> Alcotest.(check bool) "at most n/2" true (d >= 1 && d <= n / 2))
    (Network.long_link_lengths net)

let ring_link_lengths_follow_harmonic () =
  (* On the circle, Pr[arc length d] ~ 2/(d * normaliser) for d < n/2. *)
  let n = 1024 and links = 8 in
  let net = Network.build_ring ~n ~links (rng ()) in
  let lengths = Network.long_link_lengths net in
  let total = List.length lengths in
  Alcotest.(check int) "number of long links" (n * links) total;
  let norm = ref 0.0 in
  for d = 1 to n / 2 do
    norm := !norm +. ((if 2 * d = n then 1.0 else 2.0) /. float_of_int d)
  done;
  List.iter
    (fun d ->
      let expected = 2.0 /. (float_of_int d *. !norm) in
      let rate =
        float_of_int (List.length (List.filter (fun x -> x = d) lengths)) /. float_of_int total
      in
      Alcotest.(check bool)
        (Printf.sprintf "length %d rate %.4f vs %.4f" d rate expected)
        true
        (abs_float (rate -. expected) < 0.02))
    [ 1; 2; 4; 8 ]

let ring_line_distance_disagree () =
  let line = Network.build_ideal ~n:100 ~links:1 (rng ()) in
  let ring = Network.build_ring ~n:100 ~links:1 (rng ()) in
  Alcotest.(check int) "line end-to-end" 99 (Network.distance line 0 99);
  Alcotest.(check int) "ring end-to-end" 1 (Network.distance ring 0 99)

let ring_clockwise_rejected_on_line () =
  let net = Network.build_ideal ~n:16 ~links:1 (rng ()) in
  Alcotest.check_raises "no orientation"
    (Invalid_argument "Network.clockwise_distance: line networks have no orientation") (fun () ->
      ignore (Network.clockwise_distance net ~src:0 ~dst:1))

let ring_rejects () =
  Alcotest.check_raises "too small"
    (Invalid_argument "Network.build_ring: need at least three nodes") (fun () ->
      ignore (Network.build_ring ~n:2 ~links:1 (rng ())))

(* ------------------------------------------------------------------ *)
(* Lookup helpers                                                      *)
(* ------------------------------------------------------------------ *)

let nearest_index_full () =
  let net = Network.build_ideal ~n:100 ~links:1 (rng ()) in
  Alcotest.(check int) "identity on full nets" 42 (Network.nearest_index net ~position:42)

let nearest_index_sparse () =
  let positions = [| 2; 10; 50 |] in
  let neighbors = [| [| 1 |]; [| 0; 2 |]; [| 1 |] |] in
  let net = Network.of_neighbor_indices ~line_size:64 ~positions ~neighbors ~links:0 () in
  Alcotest.(check int) "below first" 0 (Network.nearest_index net ~position:0);
  Alcotest.(check int) "nearest left wins ties" 0 (Network.nearest_index net ~position:6);
  Alcotest.(check int) "nearest right" 1 (Network.nearest_index net ~position:9);
  Alcotest.(check int) "above last" 2 (Network.nearest_index net ~position:63);
  Alcotest.(check (option int)) "exact hit" (Some 1) (Network.index_of_position net ~position:10);
  Alcotest.(check (option int)) "miss" None (Network.index_of_position net ~position:11)

let of_neighbor_indices_validates () =
  Alcotest.check_raises "unsorted positions"
    (Invalid_argument "Network.of_neighbor_indices: positions must be strictly increasing")
    (fun () ->
      ignore
        (Network.of_neighbor_indices ~line_size:10 ~positions:[| 5; 2 |]
           ~neighbors:[| [||]; [||] |] ~links:0 ()));
  Alcotest.check_raises "neighbour out of range"
    (Invalid_argument "Network.of_neighbor_indices: neighbor out of range") (fun () ->
      ignore
        (Network.of_neighbor_indices ~line_size:10 ~positions:[| 1; 2 |]
           ~neighbors:[| [| 7 |]; [||] |] ~links:0 ()))

let distance_via_positions () =
  let positions = [| 3; 9; 40 |] in
  let net =
    Network.of_neighbor_indices ~line_size:64 ~positions
      ~neighbors:[| [| 1 |]; [| 0; 2 |]; [| 1 |] |] ~links:0 ()
  in
  Alcotest.(check int) "line distance" 6 (Network.distance net 0 1);
  Alcotest.(check int) "line distance 2" 37 (Network.distance net 0 2)

let long_link_lengths_excludes_ring () =
  (* A 4-node full chain with no long links has no long lengths. *)
  let net = Network.build_ideal ~n:4 ~links:0 (rng ()) in
  Alcotest.(check (list int)) "no long links" [] (Network.long_link_lengths net)

(* ------------------------------------------------------------------ *)
(* sample_long_target                                                  *)
(* ------------------------------------------------------------------ *)

let sample_target_in_range () =
  let n = 100 in
  let pl = Sample.power_law ~exponent:1.0 ~max_length:(n - 1) in
  let r = rng () in
  for _ = 1 to 5000 do
    let src = Rng.int r n in
    let v = Network.sample_long_target pl r ~n ~src in
    Alcotest.(check bool) "on line" true (v >= 0 && v < n);
    Alcotest.(check bool) "not self" true (v <> src)
  done

let sample_target_edge_node_one_sided () =
  let n = 64 in
  let pl = Sample.power_law ~exponent:1.0 ~max_length:(n - 1) in
  let r = rng () in
  for _ = 1 to 1000 do
    let v = Network.sample_long_target pl r ~n ~src:0 in
    Alcotest.(check bool) "only rightward from 0" true (v > 0)
  done;
  for _ = 1 to 1000 do
    let v = Network.sample_long_target pl r ~n ~src:(n - 1) in
    Alcotest.(check bool) "only leftward from n-1" true (v < n - 1)
  done

let sample_target_side_balance () =
  (* The midpoint node should sample each side about half the time. *)
  let n = 101 in
  let pl = Sample.power_law ~exponent:1.0 ~max_length:(n - 1) in
  let r = rng () in
  let right = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Network.sample_long_target pl r ~n ~src:50 > 50 then incr right
  done;
  let rate = float_of_int !right /. float_of_int trials in
  Alcotest.(check bool) "balanced" true (abs_float (rate -. 0.5) < 0.02)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_ideal_connected =
  QCheck.Test.make ~name:"ideal networks are strongly connected" ~count:30
    QCheck.(pair (int_range 2 128) (int_range 0 4))
    (fun (n, links) ->
      let net = Network.build_ideal ~n ~links (Rng.of_int (n + links)) in
      Ftr_graph.Bfs.is_strongly_connected (Network.csr net))

let prop_deterministic_degree_bound =
  QCheck.Test.make ~name:"deterministic degree <= 2(b-1)ceil(log_b n)" ~count:50
    QCheck.(pair (int_range 4 512) (int_range 2 5))
    (fun (n, base) ->
      let net = Network.build_deterministic ~n ~base in
      let bound = 2 * Network.links net in
      let ok = ref true in
      for u = 0 to n - 1 do
        if Network.degree net u > bound then ok := false
      done;
      !ok)

let prop_ring_distance_bounded =
  QCheck.Test.make ~name:"ring distances never exceed n/2" ~count:100
    QCheck.(pair (int_range 3 256) small_int)
    (fun (n, seed) ->
      let net = Network.build_ring ~n ~links:2 (Rng.of_int seed) in
      let r = Rng.of_int (seed + 1) in
      let a = Rng.int r n and b = Rng.int r n in
      Network.distance net a b <= n / 2)

let prop_chordlike_links_are_powers =
  QCheck.Test.make ~name:"chordlike links sit at clockwise powers of two" ~count:60
    QCheck.(int_range 8 512)
    (fun n ->
      (* The behavioural equivalence with Chord lives in test_baselines;
         here, the structural half: every link of node 0 is the successor,
         a clockwise power of two, or (n-1, the implicit wrap of the
         successor link of node n-1 — absent by construction). *)
      let net = Network.build_chordlike ~n () in
      Array.for_all
        (fun v ->
          let d = Network.clockwise_distance net ~src:0 ~dst:v in
          d >= 1 && d land (d - 1) = 0)
        (row net 0))

let prop_binomial_positions_sorted =
  QCheck.Test.make ~name:"binomial positions strictly increasing" ~count:30
    QCheck.(pair (int_range 8 256) (int_range 1 9))
    (fun (n, tenths) ->
      let p = float_of_int tenths /. 10.0 in
      let net = Network.build_binomial ~n ~links:1 ~present_p:p (Rng.of_int (n * tenths)) in
      let ok = ref true in
      for i = 1 to Network.size net - 1 do
        if Network.position net i <= Network.position net (i - 1) then ok := false
      done;
      !ok)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "network"
    [
      ( "ideal",
        [
          quick "shape" ideal_shape;
          quick "degrees" ideal_degrees;
          quick "immediate neighbours present" ideal_has_immediate_neighbors;
          quick "neighbours sorted and valid" ideal_neighbors_sorted_and_valid;
          quick "link lengths follow 1/d" ideal_link_lengths_follow_harmonic;
          quick "deterministic by seed" ideal_deterministic_by_seed;
          quick "rejects tiny networks" ideal_rejects;
          quick "zero long links" ideal_zero_links;
          quick "strongly connected" ideal_strongly_connected;
        ] );
      ( "deterministic",
        [
          quick "exact link set (base 2)" deterministic_exact_links;
          quick "base 3" deterministic_base3;
          quick "interior lengths are powers" deterministic_symmetric_interior;
          quick "geometric variant" geometric_links;
        ] );
      ( "binomial",
        [
          quick "present subset" binomial_present_subset;
          quick "links among present only" binomial_links_present_only;
          quick "immediate are adjacent indices" binomial_immediate_are_adjacent_indices;
          quick "full at p=1" binomial_full_at_p1;
          quick "rejects p=0" binomial_rejects;
        ] );
      ( "ring",
        [
          quick "shape" ring_shape;
          quick "distance wraps" ring_distance_wraps;
          quick "link lengths bounded by n/2" ring_link_lengths_bounded;
          quick "link lengths follow 1/d" ring_link_lengths_follow_harmonic;
          quick "line vs ring distance" ring_line_distance_disagree;
          quick "clockwise rejected on line" ring_clockwise_rejected_on_line;
          quick "rejects tiny rings" ring_rejects;
        ] );
      ( "lookup",
        [
          quick "nearest index on full nets" nearest_index_full;
          quick "nearest index on sparse nets" nearest_index_sparse;
          quick "of_neighbor_indices validates" of_neighbor_indices_validates;
          quick "distance via positions" distance_via_positions;
          quick "long link lengths exclude ring" long_link_lengths_excludes_ring;
        ] );
      ( "sampling",
        [
          quick "targets on the line" sample_target_in_range;
          quick "edge nodes sample one side" sample_target_edge_node_one_sided;
          quick "midpoint side balance" sample_target_side_balance;
        ] );
      ( "properties",
        List.map (fun p -> QCheck_alcotest.to_alcotest p)
          [
            prop_ideal_connected;
            prop_deterministic_degree_bound;
            prop_binomial_positions_sorted;
            prop_ring_distance_bounded;
            prop_chordlike_links_are_powers;
          ]
      );
    ]
