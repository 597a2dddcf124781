module Chord = Ftr_baselines.Chord
module Kleinberg = Ftr_baselines.Kleinberg
module Multidim = Ftr_core.Multidim
module Lattice = Ftr_baselines.Lattice
module Flooding = Ftr_baselines.Flooding
module Torus = Ftr_metric.Torus
module Rng = Ftr_prng.Rng

let rng () = Rng.of_int 2718

(* ------------------------------------------------------------------ *)
(* Chord                                                               *)
(* ------------------------------------------------------------------ *)

let chord_successor_full () =
  let c = Chord.create_full ~n:16 in
  Alcotest.(check int) "self" 5 (Chord.successor c 5);
  Alcotest.(check int) "wraps" 0 (Chord.successor c 16 mod 16)

let chord_successor_sparse () =
  let c = Chord.create ~ring_size:16 ~node_ids:[| 2; 5; 11 |] in
  Alcotest.(check int) "key 3 -> 5" 5 (Chord.successor c 3);
  Alcotest.(check int) "key 5 -> 5" 5 (Chord.successor c 5);
  Alcotest.(check int) "key 12 wraps to 2" 2 (Chord.successor c 12);
  Alcotest.(check int) "key 0 -> 2" 2 (Chord.successor c 0)

let chord_routes_correctly () =
  let c = Chord.create_full ~n:256 in
  let r = rng () in
  for _ = 1 to 300 do
    let src = Rng.int r 256 and key = Rng.int r 256 in
    match Chord.route c ~src ~key with
    | Some _ -> ()
    | None -> Alcotest.fail "chord routing failed"
  done

let chord_log_hops () =
  let n = 4096 in
  let c = Chord.create_full ~n in
  let r = rng () in
  for _ = 1 to 300 do
    let src = Rng.int r n and key = Rng.int r n in
    let h = Chord.route_hops c ~src ~key in
    (* Each hop at least halves the remaining clockwise distance. *)
    Alcotest.(check bool) (Printf.sprintf "%d <= 12" h) true (h <= 12)
  done

let chord_zero_hops_to_self () =
  let c = Chord.create_full ~n:64 in
  Alcotest.(check int) "self key" 0 (Chord.route_hops c ~src:9 ~key:9)

let chord_sparse_routes () =
  let r = rng () in
  let ids = Array.of_list (List.sort_uniq compare (List.init 50 (fun _ -> Rng.int r 1024))) in
  let c = Chord.create ~ring_size:1024 ~node_ids:ids in
  for _ = 1 to 200 do
    let src = ids.(Rng.int r (Array.length ids)) and key = Rng.int r 1024 in
    match Chord.route c ~src ~key with
    | Some h -> Alcotest.(check bool) "bounded hops" true (h <= 20)
    | None -> Alcotest.fail "sparse chord routing failed"
  done

let chord_failures_skip_dead_fingers () =
  let n = 1024 in
  let c = Chord.create_full ~n in
  let mask = Ftr_core.Failure.random_node_fraction (Rng.of_int 70) ~n ~fraction:0.3 in
  let alive = Ftr_graph.Bitset.get mask in
  let r = rng () in
  let delivered = ref 0 and total = 0 + 200 in
  for _ = 1 to total do
    let rec live () =
      let v = Rng.int r n in
      if alive v then v else live ()
    in
    let src = live () and key = live () in
    match Chord.route ~successors:4 c ~alive ~src ~key with
    | Some _ -> incr delivered
    | None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most delivered (%d/%d)" !delivered total)
    true
    (!delivered > 180)

let chord_failures_no_failures_matches_plain () =
  let c = Chord.create_full ~n:512 in
  let alive _ = true in
  let r = rng () in
  for _ = 1 to 100 do
    let src = Rng.int r 512 and key = Rng.int r 512 in
    let plain = Chord.route c ~src ~key in
    let fancy = Chord.route c ~alive ~src ~key in
    Alcotest.(check (option int)) "identical without failures" plain fancy
  done

let chord_successor_list () =
  let c = Chord.create ~ring_size:16 ~node_ids:[| 2; 5; 11 |] in
  Alcotest.(check (list int)) "wraps" [ 11; 2; 5 ] (Chord.successor_list c ~id:7 ~r:3);
  Alcotest.(check (list int)) "capped at population" [ 2; 5; 11 ]
    (Chord.successor_list c ~id:0 ~r:10)

let chord_longer_successor_list_helps () =
  let rows = Chord.failure_sweep ~n:2048 ~fractions:[ 0.5 ] ~messages:300 ~seed:71 () in
  match rows with
  | [ row ] ->
      Alcotest.(check bool)
        (Printf.sprintf "r=4 (%.3f) <= r=1 (%.3f)" row.Chord.failed_r4 row.Chord.failed_r1)
        true
        (row.Chord.failed_r4 <= row.Chord.failed_r1)
  | _ -> Alcotest.fail "expected one row"

let chord_failures_rejects_dead_endpoint () =
  let c = Chord.create_full ~n:64 in
  Alcotest.check_raises "dead endpoint"
    (Invalid_argument "Chord.route: endpoint is dead") (fun () ->
      ignore (Chord.route c ~alive:(fun v -> v <> 0) ~src:0 ~key:5))

let chord_rejects_duplicates () =
  Alcotest.check_raises "duplicate ids" (Invalid_argument "Chord.create: duplicate identifier")
    (fun () -> ignore (Chord.create ~ring_size:8 ~node_ids:[| 1; 1 |]))

(* ------------------------------------------------------------------ *)
(* Kleinberg                                                           *)
(* ------------------------------------------------------------------ *)

let kleinberg_structure () =
  let k = Kleinberg.build ~side:16 (rng ()) in
  Alcotest.(check int) "size" 256 (Multidim.size k);
  (* Every node has 4 lattice neighbours plus one long link. *)
  for u = 0 to 255 do
    Alcotest.(check int) "degree" 5 (Ftr_graph.Adjacency.Csr.degree (Multidim.csr k) u)
  done

let kleinberg_delivers () =
  let k = Kleinberg.build ~side:32 (rng ()) in
  let r = rng () in
  for _ = 1 to 300 do
    let src = Rng.int r 1024 and dst = Rng.int r 1024 in
    match Kleinberg.route_hops k ~src ~dst with
    | _ -> ()
    | exception Invalid_argument _ -> Alcotest.fail "kleinberg routing failed"
  done

let kleinberg_hops_bounded_by_l1 () =
  let k = Kleinberg.build ~side:32 (rng ()) in
  let t = Torus.create ~dims:2 ~side:32 in
  let r = rng () in
  for _ = 1 to 200 do
    let src = Rng.int r 1024 and dst = Rng.int r 1024 in
    let h = Kleinberg.route_hops k ~src ~dst in
    Alcotest.(check bool) "hops <= L1 distance" true (h <= Torus.distance t src dst)
  done

let kleinberg_alpha2_beats_overly_local () =
  (* Kleinberg's brittleness claim: exponents above the dimension
     concentrate long links so close that routing degenerates towards the
     plain lattice. (The alpha < d side of the theorem separates too
     slowly to show at test sizes; the benchmark sweeps it at scale.) *)
  let side = 64 in
  let mean alpha seed =
    let k = Kleinberg.build ~alpha ~side (Rng.of_int seed) in
    let r = Rng.of_int (seed + 1) in
    let total = ref 0 in
    for _ = 1 to 400 do
      let src = Rng.int r (side * side) and dst = Rng.int r (side * side) in
      total := !total + Kleinberg.route_hops k ~src ~dst
    done;
    float_of_int !total /. 400.0
  in
  let good = mean 2.0 50 and bad = mean 6.0 51 in
  Alcotest.(check bool) (Printf.sprintf "alpha=2 (%.1f) < alpha=6 (%.1f)" good bad) true
    (good < bad)

let kleinberg_more_links_faster () =
  let side = 48 in
  let mean links seed =
    let k = Kleinberg.build ~long_links:links ~side (Rng.of_int seed) in
    let r = Rng.of_int (seed + 1) in
    let total = ref 0 in
    for _ = 1 to 300 do
      let src = Rng.int r (side * side) and dst = Rng.int r (side * side) in
      total := !total + Kleinberg.route_hops k ~src ~dst
    done;
    float_of_int !total /. 300.0
  in
  let one = mean 1 60 and four = mean 4 61 in
  Alcotest.(check bool) (Printf.sprintf "4 links (%.1f) < 1 link (%.1f)" four one) true
    (four < one)

(* ------------------------------------------------------------------ *)
(* Lattice (CAN)                                                       *)
(* ------------------------------------------------------------------ *)

let lattice_hops_equal_l1 () =
  let l = Lattice.create ~dims:2 ~side:16 in
  let t = Torus.create ~dims:2 ~side:16 in
  let r = rng () in
  for _ = 1 to 300 do
    let src = Rng.int r 256 and dst = Rng.int r 256 in
    Alcotest.(check int) "hops = L1" (Torus.distance t src dst) (Lattice.route_hops l ~src ~dst)
  done

let lattice_3d () =
  let l = Lattice.create ~dims:3 ~side:8 in
  let t = Torus.create ~dims:3 ~side:8 in
  let r = rng () in
  for _ = 1 to 100 do
    let src = Rng.int r 512 and dst = Rng.int r 512 in
    Alcotest.(check int) "hops = L1 in 3d" (Torus.distance t src dst)
      (Lattice.route_hops l ~src ~dst)
  done

let lattice_much_slower_than_kleinberg () =
  (* The paper's point about CAN: polynomial vs polylog routing. *)
  let side = 40 in
  let l = Lattice.create ~dims:2 ~side in
  let k = Kleinberg.build ~long_links:4 ~side (rng ()) in
  let r = rng () in
  let lat = ref 0 and kle = ref 0 in
  for _ = 1 to 300 do
    let src = Rng.int r (side * side) and dst = Rng.int r (side * side) in
    lat := !lat + Lattice.route_hops l ~src ~dst;
    kle := !kle + Kleinberg.route_hops k ~src ~dst
  done;
  Alcotest.(check bool) "lattice slower" true (!lat > !kle)

(* ------------------------------------------------------------------ *)
(* Flooding                                                            *)
(* ------------------------------------------------------------------ *)

let flooding_finds_target () =
  let g = Flooding.random_overlay ~n:500 ~degree:4 (rng ()) in
  let r = rng () in
  for _ = 1 to 50 do
    let src = Rng.int r 500 and dst = Rng.int r 500 in
    if src <> dst then begin
      let res = Flooding.search g ~src ~dst in
      Alcotest.(check bool) "found" true res.Flooding.found
    end
  done

let flooding_self_is_free () =
  let g = Flooding.random_overlay ~n:100 ~degree:3 (rng ()) in
  let res = Flooding.search g ~src:7 ~dst:7 in
  Alcotest.(check bool) "found" true res.Flooding.found;
  Alcotest.(check int) "no messages" 0 res.Flooding.messages

let flooding_ttl_limits () =
  let g = Flooding.random_overlay ~n:2000 ~degree:3 (rng ()) in
  let r = rng () in
  let found = ref 0 in
  for _ = 1 to 50 do
    let src = Rng.int r 2000 and dst = Rng.int r 2000 in
    let res = Flooding.search ~ttl:1 g ~src ~dst in
    if res.Flooding.found then incr found
  done;
  Alcotest.(check bool) "ttl 1 rarely finds" true (!found < 10)

let flooding_message_explosion () =
  (* The flood contacts a large share of the network per query — the
     scalability failure the paper's introduction cites. The traffic seed
     must differ from the construction seed or sources and destinations
     replicate the construction draws and land adjacent. *)
  let n = 2000 in
  let g = Flooding.random_overlay ~n ~degree:4 (Rng.of_int 1001) in
  let r = Rng.of_int 1002 in
  let total = ref 0 and queries = 0 + 30 in
  for _ = 1 to queries do
    let src = Rng.int r n and dst = Rng.int r n in
    if src <> dst then total := !total + (Flooding.search g ~src ~dst).Flooding.messages
  done;
  let mean = float_of_int !total /. float_of_int queries in
  Alcotest.(check bool) (Printf.sprintf "mean %.0f messages > n/10" mean) true
    (mean > float_of_int n /. 10.0)

let flooding_overlay_connected () =
  let g = Flooding.random_overlay ~n:300 ~degree:4 (rng ()) in
  Alcotest.(check bool) "connected" true (Ftr_graph.Bfs.is_strongly_connected g)

(* ------------------------------------------------------------------ *)
(* Plaxton / Tapestry prefix routing                                   *)
(* ------------------------------------------------------------------ *)

module Plaxton = Ftr_baselines.Plaxton

let plaxton_digits () =
  let t = Plaxton.create ~base:4 ~digits:3 in
  (* 39 in base 4 is 213. *)
  Alcotest.(check int) "msd" 2 (Plaxton.digit t 39 ~position:0);
  Alcotest.(check int) "mid" 1 (Plaxton.digit t 39 ~position:1);
  Alcotest.(check int) "lsd" 3 (Plaxton.digit t 39 ~position:2)

let plaxton_shared_prefix () =
  let t = Plaxton.create ~base:4 ~digits:3 in
  (* 213 vs 210 (id 36) share two digits; 213 vs 013 (id 7) share none. *)
  Alcotest.(check int) "two shared" 2 (Plaxton.shared_prefix t 39 36);
  Alcotest.(check int) "none shared" 0 (Plaxton.shared_prefix t 39 7);
  Alcotest.(check int) "all shared" 3 (Plaxton.shared_prefix t 39 39)

let plaxton_hops_equal_differing_digits () =
  let t = Plaxton.create ~base:4 ~digits:5 in
  let differing a b =
    List.length
      (List.filter
         (fun position -> Plaxton.digit t a ~position <> Plaxton.digit t b ~position)
         [ 0; 1; 2; 3; 4 ])
  in
  let r = rng () in
  for _ = 1 to 300 do
    let src = Rng.int r 1024 and dst = Rng.int r 1024 in
    Alcotest.(check int) "hops = differing digits" (differing src dst)
      (Plaxton.route_hops t ~src ~dst)
  done

let plaxton_hops_bounded_by_digits () =
  let t = Plaxton.create ~base:2 ~digits:12 in
  let r = rng () in
  for _ = 1 to 300 do
    let src = Rng.int r 4096 and dst = Rng.int r 4096 in
    Alcotest.(check bool) "<= digits" true (Plaxton.route_hops t ~src ~dst <= 12)
  done

let plaxton_path_prefix_monotone () =
  (* Along a route, the shared prefix with the target never shrinks. *)
  let t = Plaxton.create ~base:3 ~digits:6 in
  let r = rng () in
  for _ = 1 to 100 do
    let src = Rng.int r 729 and dst = Rng.int r 729 in
    let _, path = Plaxton.route t ~src ~dst in
    let rec check prev = function
      | [] -> ()
      | v :: rest ->
          let p = Plaxton.shared_prefix t v dst in
          Alcotest.(check bool) "prefix grows" true (p >= prev);
          check p rest
    in
    check 0 path
  done

let plaxton_mean_hops_formula () =
  (* E[differing digits] = digits * (1 - 1/base) for uniform pairs. *)
  let t = Plaxton.create ~base:4 ~digits:6 in
  let r = rng () in
  let s = Ftr_stats.Summary.create () in
  for _ = 1 to 3000 do
    let src = Rng.int r 4096 and dst = Rng.int r 4096 in
    Ftr_stats.Summary.add_int s (Plaxton.route_hops t ~src ~dst)
  done;
  let expected = 6.0 *. 0.75 in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f near %.2f" (Ftr_stats.Summary.mean s) expected)
    true
    (abs_float (Ftr_stats.Summary.mean s -. expected) < 0.1)

let plaxton_rejects () =
  Alcotest.check_raises "base 1" (Invalid_argument "Plaxton.create: base must be >= 2")
    (fun () -> ignore (Plaxton.create ~base:1 ~digits:3))

(* ------------------------------------------------------------------ *)
(* Chord inside the framework (Section 3 unification)                  *)
(* ------------------------------------------------------------------ *)

let chordlike_equals_chord () =
  (* One-sided greedy routing over Network.build_chordlike takes exactly
     Chord's finger-table routes: hop counts match on every pair. *)
  let n = 1024 in
  let net = Ftr_core.Network.build_chordlike ~n () in
  let chord = Chord.create_full ~n in
  let r = rng () in
  for _ = 1 to 300 do
    let src = Rng.int r n and dst = Rng.int r n in
    let framework =
      Ftr_core.Route.hops (Ftr_core.Route.route ~side:Ftr_core.Route.One_sided net ~src ~dst)
    in
    Alcotest.(check int) "identical routes" (Chord.route_hops chord ~src ~key:dst) framework
  done

let chordlike_two_sided_needs_symmetric_links () =
  (* A structural lesson the framework makes visible: two-sided greedy over
     Chord's asymmetric fingers (all clockwise, plus one predecessor) is
     dramatically SLOWER than one-sided routing, because a target a short
     arc counter-clockwise lures the myopic metric into crawling backward
     one predecessor-step at a time instead of jumping clockwise around.
     Two-sided greedy wants the symmetric link law the paper uses. *)
  let n = 1024 in
  let net = Ftr_core.Network.build_chordlike ~predecessor:true ~n () in
  let symmetric = Ftr_core.Network.build_ring ~n ~links:(Ftr_core.Network.links net) (rng ()) in
  let r = rng () in
  let one = ref 0 and two = ref 0 and sym = ref 0 in
  for _ = 1 to 300 do
    let src = Rng.int r n and dst = Rng.int r n in
    one := !one + Ftr_core.Route.hops (Ftr_core.Route.route ~side:Ftr_core.Route.One_sided net ~src ~dst);
    two := !two + Ftr_core.Route.hops (Ftr_core.Route.route ~side:Ftr_core.Route.Two_sided net ~src ~dst);
    sym := !sym + Ftr_core.Route.hops (Ftr_core.Route.route ~side:Ftr_core.Route.Two_sided symmetric ~src ~dst)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "asymmetric two-sided (%d) much slower than one-sided (%d)" !two !one)
    true
    (!two > 2 * !one);
  Alcotest.(check bool)
    (Printf.sprintf "symmetric 1/d links two-sided (%d) competitive with fingers (%d)" !sym !one)
    true
    (!sym < 2 * !one)

(* ------------------------------------------------------------------ *)
(* Cross-system comparison                                             *)
(* ------------------------------------------------------------------ *)

let structured_overlays_beat_flooding_in_messages () =
  let n = 1024 in
  let net = Ftr_core.Network.build_ideal ~n ~links:10 (rng ()) in
  let g = Flooding.random_overlay ~n ~degree:4 (rng ()) in
  let r = rng () in
  let greedy = ref 0 and flood = ref 0 in
  for _ = 1 to 50 do
    let src = Rng.int r n and dst = Rng.int r n in
    greedy := !greedy + Ftr_core.Route.hops (Ftr_core.Route.route net ~src ~dst);
    if src <> dst then flood := !flood + (Flooding.search g ~src ~dst).Flooding.messages
  done;
  Alcotest.(check bool) "greedy uses far fewer messages" true (!greedy * 10 < !flood)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_chord_reaches_successor =
  QCheck.Test.make ~name:"chord always reaches the key's successor" ~count:100
    QCheck.(triple (int_range 0 255) (int_range 0 255) small_int)
    (fun (src, key, _seed) ->
      let c = Chord.create_full ~n:256 in
      match Chord.route c ~src ~key with Some _ -> true | None -> false)

let prop_lattice_hops_exact =
  QCheck.Test.make ~name:"lattice hops equal L1 distance" ~count:200
    QCheck.(pair (int_range 0 224) (int_range 0 224))
    (fun (src, dst) ->
      let l = Lattice.create ~dims:2 ~side:15 in
      Lattice.route_hops l ~src ~dst = Torus.distance (Torus.create ~dims:2 ~side:15) src dst)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "baselines"
    [
      ( "chord",
        [
          quick "successor on full ring" chord_successor_full;
          quick "successor on sparse ring" chord_successor_sparse;
          quick "routes correctly" chord_routes_correctly;
          quick "O(log n) hops" chord_log_hops;
          quick "zero hops to self" chord_zero_hops_to_self;
          quick "sparse ring routing" chord_sparse_routes;
          quick "rejects duplicates" chord_rejects_duplicates;
          quick "failures: skips dead fingers" chord_failures_skip_dead_fingers;
          quick "failures: matches plain when clean" chord_failures_no_failures_matches_plain;
          quick "successor list" chord_successor_list;
          quick "longer successor list helps" chord_longer_successor_list_helps;
          quick "failures: rejects dead endpoints" chord_failures_rejects_dead_endpoint;
        ] );
      ( "kleinberg",
        [
          quick "structure" kleinberg_structure;
          quick "delivers" kleinberg_delivers;
          quick "hops bounded by L1" kleinberg_hops_bounded_by_l1;
          quick "alpha=2 beats overly local links" kleinberg_alpha2_beats_overly_local;
          quick "more links faster" kleinberg_more_links_faster;
        ] );
      ( "lattice",
        [
          quick "hops equal L1" lattice_hops_equal_l1;
          quick "three dimensions" lattice_3d;
          quick "slower than kleinberg" lattice_much_slower_than_kleinberg;
        ] );
      ( "flooding",
        [
          quick "finds target" flooding_finds_target;
          quick "self query free" flooding_self_is_free;
          quick "ttl limits reach" flooding_ttl_limits;
          quick "message explosion" flooding_message_explosion;
          quick "overlay connected" flooding_overlay_connected;
        ] );
      ( "plaxton",
        [
          quick "digit extraction" plaxton_digits;
          quick "shared prefixes" plaxton_shared_prefix;
          quick "hops equal differing digits" plaxton_hops_equal_differing_digits;
          quick "hops bounded by digits" plaxton_hops_bounded_by_digits;
          quick "prefix monotone along routes" plaxton_path_prefix_monotone;
          quick "mean hops formula" plaxton_mean_hops_formula;
          quick "rejects degenerate namespaces" plaxton_rejects;
        ] );
      ( "unification",
        [
          quick "chordlike one-sided = Chord fingers" chordlike_equals_chord;
          quick "two-sided greedy needs symmetric links" chordlike_two_sided_needs_symmetric_links;
        ] );
      ( "comparison",
        [ quick "structured beats flooding" structured_overlays_beat_flooding_in_messages ] );
      ( "properties",
        List.map (fun p -> QCheck_alcotest.to_alcotest p) [ prop_chord_reaches_successor; prop_lattice_hops_exact ]
      );
    ]
