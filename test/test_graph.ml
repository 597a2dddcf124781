module Bitset = Ftr_graph.Bitset
module Csr = Ftr_graph.Adjacency.Csr
module Bfs = Ftr_graph.Bfs

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let bitset_set_get_clear () =
  let b = Bitset.create 100 in
  Alcotest.(check bool) "initially clear" false (Bitset.get b 37);
  Bitset.set b 37;
  Alcotest.(check bool) "set" true (Bitset.get b 37);
  Alcotest.(check bool) "neighbour untouched" false (Bitset.get b 38);
  Bitset.clear b 37;
  Alcotest.(check bool) "cleared" false (Bitset.get b 37)

let bitset_count () =
  let b = Bitset.create 1000 in
  List.iter (Bitset.set b) [ 0; 7; 8; 63; 64; 999 ];
  Alcotest.(check int) "count" 6 (Bitset.count b);
  Bitset.clear b 8;
  Alcotest.(check int) "count after clear" 5 (Bitset.count b)

let bitset_fill () =
  let b = Bitset.create 77 in
  Bitset.fill b true;
  Alcotest.(check int) "all set" 77 (Bitset.count b);
  Alcotest.(check bool) "last bit" true (Bitset.get b 76);
  Bitset.fill b false;
  Alcotest.(check int) "all clear" 0 (Bitset.count b)

let bitset_fill_padding_exact () =
  (* Sizes that are not multiples of 8 must not count padding bits. *)
  List.iter
    (fun n ->
      let b = Bitset.create n in
      Bitset.fill b true;
      Alcotest.(check int) (Printf.sprintf "size %d" n) n (Bitset.count b))
    [ 1; 7; 8; 9; 15; 16; 17; 63; 65 ]

let bitset_assign_copy () =
  let b = Bitset.create 10 in
  Bitset.assign b 3 true;
  let c = Bitset.copy b in
  Bitset.assign b 3 false;
  Alcotest.(check bool) "copy unaffected" true (Bitset.get c 3);
  Alcotest.(check bool) "original cleared" false (Bitset.get b 3)

let bitset_iter_set () =
  let b = Bitset.create 20 in
  List.iter (Bitset.set b) [ 2; 5; 19 ];
  let acc = ref [] in
  Bitset.iter_set b (fun i -> acc := i :: !acc);
  Alcotest.(check (list int)) "iterates in order" [ 2; 5; 19 ] (List.rev !acc)

let bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.get b 10))

(* ------------------------------------------------------------------ *)
(* Adjacency                                                           *)
(* ------------------------------------------------------------------ *)

let path_graph n =
  Csr.of_rows
    (Array.init n (fun u ->
         Array.of_list ((if u > 0 then [ u - 1 ] else []) @ if u < n - 1 then [ u + 1 ] else [])))

(* Edge list to CSR, each row in list order. *)
let of_edges ~n edges =
  let rows = Array.make n [] in
  List.iter (fun (u, v) -> rows.(u) <- v :: rows.(u)) (List.rev edges);
  Csr.of_rows (Array.map Array.of_list rows)

let row g u = Array.init (Csr.degree g u) (Csr.nth g u)

let adjacency_of_rows () =
  let g = Csr.of_rows [| [| 1; 3 |]; [| 2 |]; [||]; [||] |] in
  Alcotest.(check int) "size" 4 (Csr.size g);
  Alcotest.(check int) "edges" 3 (Csr.edge_count g);
  Alcotest.(check int) "degree of 2" 0 (Csr.degree g 2);
  Alcotest.(check (array int)) "out of 0" [| 1; 3 |] (row g 0)

let adjacency_reverse () =
  let g = of_edges ~n:3 [ (0, 1); (1, 2); (2, 1); (0, 1) ] in
  let r = Csr.reverse g in
  Alcotest.(check (array int)) "into 0" [||] (row r 0);
  Alcotest.(check (array int)) "into 1, ascending with multiplicity" [| 0; 0; 2 |] (row r 1);
  Alcotest.(check (array int)) "into 2" [| 1 |] (row r 2);
  Alcotest.(check int) "edge count preserved" 4 (Csr.edge_count r)

let adjacency_validates () =
  Alcotest.check_raises "edge out of range"
    (Invalid_argument "Csr.of_rows: target 5 out of range") (fun () ->
      ignore (Csr.of_rows [| [| 5 |]; [||] |]))

let adjacency_iter_row () =
  let g = of_edges ~n:3 [ (0, 2); (0, 1); (2, 0) ] in
  let seen = ref [] in
  Csr.iter_row g 0 (fun v -> seen := v :: !seen);
  Alcotest.(check (list int)) "row order" [ 2; 1 ] (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* BFS                                                                 *)
(* ------------------------------------------------------------------ *)

let bfs_path_distances () =
  let g = path_graph 10 in
  let d = Bfs.distances g ~src:0 in
  Array.iteri (fun i dist -> Alcotest.(check int) (Printf.sprintf "node %d" i) i dist) d

let bfs_unreachable () =
  let g = of_edges ~n:4 [ (0, 1) ] in
  let d = Bfs.distances g ~src:0 in
  Alcotest.(check int) "reached" 1 d.(1);
  Alcotest.(check int) "unreached" (-1) d.(2);
  Alcotest.(check int) "reachable count" 2 (Bfs.reachable_count g ~src:0)

let bfs_strong_connectivity () =
  Alcotest.(check bool) "path graph strongly connected" true
    (Bfs.is_strongly_connected (path_graph 20));
  let one_way = of_edges ~n:3 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "one-way chain is not" false (Bfs.is_strongly_connected one_way)

let bfs_eccentricity () =
  Alcotest.(check int) "end of path" 9 (Bfs.eccentricity (path_graph 10) ~src:0);
  Alcotest.(check int) "middle of path" 5 (Bfs.eccentricity (path_graph 10) ~src:5)

let bfs_components () =
  let g = of_edges ~n:6 [ (0, 1); (2, 3); (3, 4) ] in
  let count, labels = Bfs.weakly_connected_components g in
  Alcotest.(check int) "three components" 3 count;
  Alcotest.(check bool) "0 and 1 together" true (labels.(0) = labels.(1));
  Alcotest.(check bool) "2,3,4 together" true (labels.(2) = labels.(3) && labels.(3) = labels.(4));
  Alcotest.(check bool) "5 alone" true (labels.(5) <> labels.(0) && labels.(5) <> labels.(2))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset set/get roundtrip" ~count:300
    QCheck.(pair (int_range 1 200) (list_of_size (Gen.int_range 0 50) (int_range 0 1000)))
    (fun (n, idxs) ->
      let b = Bitset.create n in
      let valid = List.filter (fun i -> i < n) idxs in
      List.iter (Bitset.set b) valid;
      List.for_all (Bitset.get b) valid
      && Bitset.count b = List.length (List.sort_uniq compare valid))

let prop_bfs_triangle =
  QCheck.Test.make ~name:"bfs distances satisfy edge relaxation" ~count:100
    QCheck.(int_range 2 30)
    (fun n ->
      let g = path_graph n in
      let d = Bfs.distances g ~src:0 in
      let ok = ref true in
      for u = 0 to n - 1 do
        Csr.iter_row g u (fun v ->
            if d.(u) >= 0 && d.(v) >= 0 && d.(v) > d.(u) + 1 then ok := false)
      done;
      !ok)

let prop_reverse_involution =
  QCheck.Test.make ~name:"reverse twice preserves edges" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 40) (pair (int_range 0 9) (int_range 0 9)))
    (fun edges ->
      let g = of_edges ~n:10 edges in
      (* Reversal lists sources ascending, so twice gives [g] row-sorted. *)
      let sorted_rows =
        Array.init 10 (fun u ->
            let r = row g u in
            Array.sort compare r;
            r)
      in
      Csr.equal (Csr.reverse (Csr.reverse g)) (Csr.of_rows sorted_rows))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "graph"
    [
      ( "bitset",
        [
          quick "set/get/clear" bitset_set_get_clear;
          quick "count" bitset_count;
          quick "fill" bitset_fill;
          quick "fill respects padding" bitset_fill_padding_exact;
          quick "assign and copy" bitset_assign_copy;
          quick "iter_set order" bitset_iter_set;
          quick "bounds checking" bitset_bounds;
        ] );
      ( "adjacency",
        [
          quick "of_rows" adjacency_of_rows;
          quick "reverse" adjacency_reverse;
          quick "validates ranges" adjacency_validates;
          quick "iter_row" adjacency_iter_row;
        ] );
      ( "bfs",
        [
          quick "path distances" bfs_path_distances;
          quick "unreachable nodes" bfs_unreachable;
          quick "strong connectivity" bfs_strong_connectivity;
          quick "eccentricity" bfs_eccentricity;
          quick "weak components" bfs_components;
        ] );
      ( "properties",
        List.map (fun p -> QCheck_alcotest.to_alcotest p)
          [ prop_bitset_roundtrip; prop_bfs_triangle; prop_reverse_involution ] );
    ]
