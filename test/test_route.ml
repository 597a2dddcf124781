module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Failure = Ftr_core.Failure
module Rng = Ftr_prng.Rng
module Bitset = Ftr_graph.Bitset

let rng () = Rng.of_int 777

let build ?(n = 512) ?(links = 4) seed = Network.build_ideal ~n ~links (Rng.of_int seed)

(* ------------------------------------------------------------------ *)
(* Failure-free routing                                                *)
(* ------------------------------------------------------------------ *)

let delivers_without_failures () =
  let net = build 1 in
  let r = rng () in
  for _ = 1 to 500 do
    let src = Rng.int r 512 and dst = Rng.int r 512 in
    match Route.route net ~src ~dst with
    | Route.Delivered _ -> ()
    | Route.Failed _ -> Alcotest.fail "greedy routing failed without failures"
  done

let self_route_is_zero_hops () =
  let net = build 2 in
  Alcotest.(check int) "src = dst" 0 (Route.hops (Route.route net ~src:7 ~dst:7))

let adjacent_route_is_one_hop () =
  let net = build 3 in
  Alcotest.(check int) "adjacent" 1 (Route.hops (Route.route net ~src:7 ~dst:8))

let hops_at_most_distance () =
  (* Two-sided greedy strictly decreases distance each hop. *)
  let net = build 4 in
  let r = rng () in
  for _ = 1 to 300 do
    let src = Rng.int r 512 and dst = Rng.int r 512 in
    let h = Route.hops (Route.route net ~src ~dst) in
    Alcotest.(check bool) "hops <= |src-dst|" true (h <= abs (src - dst))
  done

let path_distance_strictly_decreases () =
  let net = build 5 in
  let r = rng () in
  for _ = 1 to 100 do
    let src = Rng.int r 512 and dst = Rng.int r 512 in
    let _, path = Route.route_path net ~src ~dst in
    let rec check = function
      | a :: (b :: _ as rest) ->
          Alcotest.(check bool) "monotone progress" true (abs (b - dst) < abs (a - dst));
          check rest
      | _ -> ()
    in
    check path
  done

let path_starts_and_ends_correctly () =
  let net = build 6 in
  let outcome, path = Route.route_path net ~src:13 ~dst:400 in
  Alcotest.(check bool) "delivered" true (Route.delivered outcome);
  Alcotest.(check int) "starts at src" 13 (List.hd path);
  Alcotest.(check int) "ends at dst" 400 (List.nth path (List.length path - 1));
  Alcotest.(check int) "hops = path edges" (Route.hops outcome) (List.length path - 1)

let one_sided_never_overshoots () =
  let net = build 7 in
  let r = rng () in
  for _ = 1 to 200 do
    let src = Rng.int r 512 and dst = Rng.int r 512 in
    let outcome, path = Route.route_path ~side:Route.One_sided net ~src ~dst in
    Alcotest.(check bool) "delivered" true (Route.delivered outcome);
    List.iter
      (fun v ->
        (* No visited node lies beyond the target as seen from the source. *)
        if src <= dst then Alcotest.(check bool) "stays left of target" true (v <= dst)
        else Alcotest.(check bool) "stays right of target" true (v >= dst))
      path
  done

let one_sided_slower_than_two_sided () =
  (* On average, restricting to one side cannot help. *)
  let net = build 8 ~n:4096 ~links:4 in
  let r = rng () in
  let one = ref 0 and two = ref 0 in
  for _ = 1 to 400 do
    let src = Rng.int r 4096 and dst = Rng.int r 4096 in
    one := !one + Route.hops (Route.route ~side:Route.One_sided net ~src ~dst);
    two := !two + Route.hops (Route.route ~side:Route.Two_sided net ~src ~dst)
  done;
  Alcotest.(check bool) "one-sided >= two-sided on average" true (!one >= !two)

let chain_route_crawls () =
  (* No long links: greedy walks the chain, exactly |src-dst| hops. *)
  let net = Network.build_ideal ~n:64 ~links:0 (rng ()) in
  Alcotest.(check int) "crawl" 37 (Route.hops (Route.route net ~src:5 ~dst:42))

let deterministic_network_hop_bound () =
  let n = 4096 in
  let net = Network.build_deterministic ~n ~base:2 in
  let bound = int_of_float (Ftr_core.Theory.upper_deterministic ~base:2 n) in
  let r = rng () in
  for _ = 1 to 300 do
    let src = Rng.int r n and dst = Rng.int r n in
    let h = Route.hops (Route.route net ~src ~dst) in
    Alcotest.(check bool) (Printf.sprintf "%d <= %d" h bound) true (h <= bound)
  done

let route_rejects_bad_endpoints () =
  let net = build 9 in
  Alcotest.check_raises "out of range" (Invalid_argument "Route.route: node out of range")
    (fun () -> ignore (Route.route net ~src:0 ~dst:100_000));
  let mask = Bitset.create 512 in
  Bitset.fill mask true;
  Bitset.clear mask 10;
  let failures = Failure.of_node_mask mask in
  Alcotest.check_raises "dead destination"
    (Invalid_argument "Route.route: destination is dead") (fun () ->
      ignore (Route.route ~failures net ~src:0 ~dst:10))

let hop_limit_reported () =
  let net = Network.build_ideal ~n:64 ~links:0 (rng ()) in
  match Route.route ~max_hops:3 net ~src:0 ~dst:50 with
  | Route.Failed { reason = Route.Hop_limit; hops; _ } -> Alcotest.(check int) "hops" 3 hops
  | _ -> Alcotest.fail "expected hop-limit failure"

(* ------------------------------------------------------------------ *)
(* Sparse (binomial) networks                                          *)
(* ------------------------------------------------------------------ *)

let sparse_network_delivers () =
  let net = Network.build_binomial ~n:2048 ~links:4 ~present_p:0.4 (Rng.of_int 100) in
  let m = Network.size net in
  let r = rng () in
  for _ = 1 to 200 do
    let src = Rng.int r m and dst = Rng.int r m in
    Alcotest.(check bool) "delivered on sparse net" true
      (Route.delivered (Route.route net ~src ~dst))
  done

let sparse_network_distance_uses_positions () =
  (* Hop bound in *position* distance, not index distance. *)
  let net = Network.build_binomial ~n:2048 ~links:4 ~present_p:0.4 (Rng.of_int 101) in
  let m = Network.size net in
  let r = rng () in
  for _ = 1 to 100 do
    let src = Rng.int r m and dst = Rng.int r m in
    let h = Route.hops (Route.route net ~src ~dst) in
    Alcotest.(check bool) "hops bounded by index span" true (h <= abs (src - dst))
  done

let sparse_one_sided_respects_positions () =
  let net = Network.build_binomial ~n:1024 ~links:3 ~present_p:0.5 (Rng.of_int 102) in
  let m = Network.size net in
  let r = rng () in
  for _ = 1 to 100 do
    let src = Rng.int r m and dst = Rng.int r m in
    let outcome, path = Route.route_path ~side:Route.One_sided net ~src ~dst in
    Alcotest.(check bool) "delivered" true (Route.delivered outcome);
    let dst_pos = Network.position net dst and src_pos = Network.position net src in
    List.iter
      (fun v ->
        let p = Network.position net v in
        if src_pos <= dst_pos then Alcotest.(check bool) "no overshoot" true (p <= dst_pos)
        else Alcotest.(check bool) "no overshoot" true (p >= dst_pos))
      path
  done

let sparse_network_with_failures () =
  let net = Network.build_binomial ~n:2048 ~links:6 ~present_p:0.5 (Rng.of_int 103) in
  let m = Network.size net in
  let mask = Failure.random_node_fraction (Rng.of_int 104) ~n:m ~fraction:0.3 in
  let failures = Failure.of_node_mask mask in
  let r = rng () in
  let ok = ref 0 in
  for _ = 1 to 200 do
    let live () =
      let rec go () =
        let v = Rng.int r m in
        if Bitset.get mask v then v else go ()
      in
      go ()
    in
    let src = live () and dst = live () in
    if
      Route.delivered
        (Route.route ~failures ~strategy:(Route.Backtrack { history = 5 }) net ~src ~dst)
    then incr ok
  done;
  Alcotest.(check bool) (Printf.sprintf "%d/200 delivered" !ok) true (!ok > 185)

(* ------------------------------------------------------------------ *)
(* Random reroute depth                                                *)
(* ------------------------------------------------------------------ *)

let reroute_more_attempts_no_worse () =
  let n = 4096 in
  let net = Network.build_ideal ~n ~links:8 (Rng.of_int 105) in
  let mask = Failure.random_node_fraction (Rng.of_int 106) ~n ~fraction:0.5 in
  let failures = Failure.of_node_mask mask in
  let fails attempts seed =
    let r = Rng.of_int seed in
    let failed = ref 0 in
    for _ = 1 to 300 do
      let live () =
        let rec go () =
          let v = Rng.int r n in
          if Bitset.get mask v then v else go ()
        in
        go ()
      in
      let src = live () and dst = live () in
      match
        Route.route ~failures ~strategy:(Route.Random_reroute { attempts }) ~rng:r net ~src ~dst
      with
      | Route.Delivered _ -> ()
      | Route.Failed _ -> incr failed
    done;
    !failed
  in
  let one = fails 1 107 and five = fails 5 107 in
  Alcotest.(check bool) (Printf.sprintf "5 attempts (%d) <= 1 attempt (%d) + noise" five one)
    true
    (five <= one + 15)

(* ------------------------------------------------------------------ *)
(* Circle geometry                                                     *)
(* ------------------------------------------------------------------ *)

let ring_delivers () =
  let net = Network.build_ring ~n:512 ~links:4 (Rng.of_int 40) in
  let r = rng () in
  for _ = 1 to 300 do
    let src = Rng.int r 512 and dst = Rng.int r 512 in
    Alcotest.(check bool) "delivered" true (Route.delivered (Route.route net ~src ~dst))
  done

let ring_hops_at_most_arc () =
  let net = Network.build_ring ~n:512 ~links:4 (Rng.of_int 41) in
  let r = rng () in
  for _ = 1 to 200 do
    let src = Rng.int r 512 and dst = Rng.int r 512 in
    let h = Route.hops (Route.route net ~src ~dst) in
    Alcotest.(check bool) "hops <= shorter arc" true (h <= Network.distance net src dst)
  done

let ring_routes_across_seam () =
  (* Two-sided greedy must cross the 0/n-1 seam rather than walk around. *)
  let net = Network.build_ring ~n:256 ~links:0 (Rng.of_int 42) in
  Alcotest.(check int) "wraps the seam" 9 (Route.hops (Route.route net ~src:252 ~dst:5))

let ring_one_sided_is_clockwise () =
  (* One-sided routing on the circle only ever moves clockwise. *)
  let net = Network.build_ring ~n:256 ~links:4 (Rng.of_int 43) in
  let r = rng () in
  for _ = 1 to 100 do
    let src = Rng.int r 256 and dst = Rng.int r 256 in
    let outcome, path = Route.route_path ~side:Route.One_sided net ~src ~dst in
    Alcotest.(check bool) "delivered" true (Route.delivered outcome);
    let rec check = function
      | a :: (b :: _ as rest) ->
          (* Each hop strictly shrinks the clockwise distance to dst, which
             means motion is clockwise and never passes the target. *)
          Alcotest.(check bool) "clockwise progress" true
            (Network.clockwise_distance net ~src:b ~dst
            < Network.clockwise_distance net ~src:a ~dst);
          check rest
      | _ -> ()
    in
    check path
  done

let ring_survives_failures () =
  (* No boundary: the ring has two crawl directions everywhere, so it
     weathers failures at least as well as the line. *)
  let n = 2048 in
  let ring = Network.build_ring ~n ~links:8 (Rng.of_int 44) in
  let mask = Failure.random_node_fraction (Rng.of_int 45) ~n ~fraction:0.4 in
  let failures = Failure.of_node_mask mask in
  let r = rng () in
  let ok = ref 0 in
  for _ = 1 to 200 do
    let live () =
      let rec go () =
        let v = Rng.int r n in
        if Bitset.get mask v then v else go ()
      in
      go ()
    in
    let src = live () and dst = live () in
    if
      Route.delivered
        (Route.route ~failures ~strategy:(Route.Backtrack { history = 5 }) ring ~src ~dst)
    then incr ok
  done;
  Alcotest.(check bool) (Printf.sprintf "%d/200 delivered" !ok) true (!ok > 180)

(* ------------------------------------------------------------------ *)
(* Node failures and strategies                                       *)
(* ------------------------------------------------------------------ *)

(* A surgical blockade: on a pure chain, kill a node between src and dst;
   terminate must fail, and no strategy can get around it. *)
let chain_blockade_terminate_fails () =
  let net = Network.build_ideal ~n:64 ~links:0 (rng ()) in
  let mask = Bitset.create 64 in
  Bitset.fill mask true;
  Bitset.clear mask 20;
  let failures = Failure.of_node_mask mask in
  (match Route.route ~failures net ~src:5 ~dst:40 with
  | Route.Failed { stuck_at; reason = Route.No_live_neighbor; _ } ->
      Alcotest.(check int) "stuck right before the hole" 19 stuck_at
  | _ -> Alcotest.fail "expected stuck failure");
  (* Backtracking cannot help either: the chain has no alternate routes. *)
  match Route.route ~failures ~strategy:(Route.Backtrack { history = 5 }) net ~src:5 ~dst:40 with
  | Route.Failed _ -> ()
  | Route.Delivered _ -> Alcotest.fail "no path exists; must fail"

(* With long links, killing the chain next to the target still usually
   leaves a long link into the target's other side; backtracking finds it. *)
let backtrack_recovers_when_terminate_fails () =
  let n = 2048 and links = 6 in
  let r = rng () in
  let recovered = ref 0 and comparable = ref 0 in
  for seed = 0 to 40 do
    let net = Network.build_ideal ~n ~links (Rng.of_int seed) in
    let mask_rng = Rng.of_int (1000 + seed) in
    let mask = Failure.random_node_fraction mask_rng ~n ~fraction:0.5 in
    let failures = Failure.of_node_mask mask in
    let live () =
      let rec go () =
        let v = Rng.int r n in
        if Bitset.get mask v then v else go ()
      in
      go ()
    in
    for _ = 1 to 20 do
      let src = live () and dst = live () in
      let t = Route.route ~failures net ~src ~dst in
      let b = Route.route ~failures ~strategy:(Route.Backtrack { history = 5 }) net ~src ~dst in
      (match (t, b) with
      | Route.Failed _, Route.Delivered _ -> incr recovered
      | Route.Delivered _, Route.Failed _ ->
          Alcotest.fail "backtracking lost a search terminate won"
      | _ -> ());
      incr comparable
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "backtracking recovered %d searches" !recovered)
    true (!recovered > 0)

let strategies_ordering_under_failures () =
  (* Failed-search fractions must be ordered: backtrack <= terminate. *)
  let n = 4096 and links = 8 in
  let net = Network.build_ideal ~n ~links (Rng.of_int 5) in
  let mask = Failure.random_node_fraction (Rng.of_int 6) ~n ~fraction:0.4 in
  let failures = Failure.of_node_mask mask in
  let r = rng () in
  let pairs =
    Array.init 400 (fun _ ->
        let live () =
          let rec go () =
            let v = Rng.int r n in
            if Bitset.get mask v then v else go ()
          in
          go ()
        in
        (live (), live ()))
  in
  let failures_for strategy =
    Array.fold_left
      (fun acc (src, dst) ->
        match Route.route ~failures ~strategy ~rng:r net ~src ~dst with
        | Route.Delivered _ -> acc
        | Route.Failed _ -> acc + 1)
      0 pairs
  in
  let t = failures_for Route.Terminate in
  let b = failures_for (Route.Backtrack { history = 5 }) in
  let rr = failures_for (Route.Random_reroute { attempts = 1 }) in
  Alcotest.(check bool) (Printf.sprintf "backtrack %d <= terminate %d" b t) true (b <= t);
  Alcotest.(check bool) (Printf.sprintf "reroute %d <= terminate %d" rr t) true (rr <= t)

let reroute_requires_rng_gracefully () =
  (* Without an rng, reroute cannot pick a random node and reports it. *)
  let net = Network.build_ideal ~n:64 ~links:0 (rng ()) in
  let mask = Bitset.create 64 in
  Bitset.fill mask true;
  Bitset.clear mask 20;
  let failures = Failure.of_node_mask mask in
  match
    Route.route ~failures ~strategy:(Route.Random_reroute { attempts = 1 }) net ~src:5 ~dst:40
  with
  | Route.Failed { reason = Route.No_live_reroute_target; _ } -> ()
  | _ -> Alcotest.fail "expected no-reroute-target failure"

let backtrack_requires_positive_history () =
  let net = build 10 in
  Alcotest.check_raises "history 0" (Invalid_argument "Route.route: history must be >= 1")
    (fun () ->
      ignore (Route.route ~strategy:(Route.Backtrack { history = 0 }) net ~src:0 ~dst:5))

let reroute_requires_nonnegative_attempts () =
  (* A negative count never reaches zero: it would reroute until the hop
     budget ran out. *)
  let net = build 10 in
  Alcotest.check_raises "attempts -1" (Invalid_argument "Route.route: attempts must be >= 0")
    (fun () ->
      ignore
        (Route.route ~strategy:(Route.Random_reroute { attempts = -1 }) ~rng:(rng ()) net ~src:0
           ~dst:5))

let dead_nodes_never_visited () =
  let n = 2048 in
  let net = Network.build_ideal ~n ~links:6 (Rng.of_int 11) in
  let mask = Failure.random_node_fraction (Rng.of_int 12) ~n ~fraction:0.3 in
  let failures = Failure.of_node_mask mask in
  let r = rng () in
  for _ = 1 to 100 do
    let live () =
      let rec go () =
        let v = Rng.int r n in
        if Bitset.get mask v then v else go ()
      in
      go ()
    in
    let src = live () and dst = live () in
    let _, path = Route.route_path ~failures net ~src ~dst in
    List.iter
      (fun v -> Alcotest.(check bool) "visited node is alive" true (Bitset.get mask v))
      path
  done

(* ------------------------------------------------------------------ *)
(* Link failures                                                       *)
(* ------------------------------------------------------------------ *)

let link_failures_never_block_delivery () =
  (* Immediate links always survive, so every search still succeeds. *)
  let n = 1024 in
  let net = Network.build_ideal ~n ~links:6 (Rng.of_int 13) in
  let lm = Failure.random_link_mask (Rng.of_int 14) net ~present_p:0.2 in
  let failures = Failure.of_link_mask lm in
  let r = rng () in
  for _ = 1 to 300 do
    let src = Rng.int r n and dst = Rng.int r n in
    match Route.route ~failures net ~src ~dst with
    | Route.Delivered _ -> ()
    | Route.Failed _ -> Alcotest.fail "link failures must not block delivery"
  done

let link_failures_slow_delivery () =
  let n = 8192 in
  let net = Network.build_ideal ~n ~links:6 (Rng.of_int 15) in
  let hops_at p seed =
    let lm = Failure.random_link_mask (Rng.of_int seed) net ~present_p:p in
    let failures = Failure.of_link_mask lm in
    let r = rng () in
    let total = ref 0 in
    for _ = 1 to 300 do
      let src = Rng.int r n and dst = Rng.int r n in
      total := !total + Route.hops (Route.route ~failures net ~src ~dst)
    done;
    !total
  in
  let fast = hops_at 1.0 16 and slow = hops_at 0.2 17 in
  Alcotest.(check bool) (Printf.sprintf "p=0.2 (%d) slower than p=1 (%d)" slow fast) true
    (slow > fast)

let immediate_links_survive_mask () =
  let n = 256 in
  let net = Network.build_ideal ~n ~links:4 (Rng.of_int 18) in
  let lm = Failure.random_link_mask (Rng.of_int 19) net ~present_p:0.0 in
  for u = 0 to n - 1 do
    for idx = 0 to Network.degree net u - 1 do
      let v = Network.neighbor net u idx in
      let alive = Failure.link_alive (Failure.of_link_mask lm) ~src:u ~idx in
      if v = u - 1 || v = u + 1 then
        Alcotest.(check bool) "immediate survives" true alive
      else Alcotest.(check bool) "long link dead at p=0" false alive
    done
  done

(* ------------------------------------------------------------------ *)
(* Loop erasure                                                        *)
(* ------------------------------------------------------------------ *)

let loop_erased_simple_path () =
  Alcotest.(check int) "no loops" 3 (Route.loop_erased_length [ 1; 2; 3; 4 ]);
  Alcotest.(check int) "single node" 0 (Route.loop_erased_length [ 7 ]);
  Alcotest.(check int) "empty" 0 (Route.loop_erased_length [])

let loop_erased_excursion () =
  (* 1 -> 2 -> 3 -> 2 -> 5: the 2-3-2 excursion collapses. *)
  Alcotest.(check int) "excursion erased" 2 (Route.loop_erased_length [ 1; 2; 3; 2; 5 ]);
  (* Nested excursions: 2-3-4-3-2 collapses, leaving 1 -> 2 -> 9. *)
  Alcotest.(check int) "nested" 2 (Route.loop_erased_length [ 1; 2; 3; 4; 3; 2; 9 ]);
  (* Returning all the way to the start. *)
  Alcotest.(check int) "full return" 1 (Route.loop_erased_length [ 1; 2; 3; 1; 4 ])

let loop_erased_matches_hops_without_backtracking () =
  let net = build 30 in
  let r = rng () in
  for _ = 1 to 100 do
    let src = Rng.int r 512 and dst = Rng.int r 512 in
    let outcome, path = Route.route_path net ~src ~dst in
    Alcotest.(check int) "greedy path has no loops" (Route.hops outcome)
      (Route.loop_erased_length path)
  done

let loop_erased_shorter_under_backtracking () =
  let n = 2048 in
  let net = Network.build_ideal ~n ~links:6 (Rng.of_int 31) in
  let mask = Failure.random_node_fraction (Rng.of_int 32) ~n ~fraction:0.5 in
  let failures = Failure.of_node_mask mask in
  let r = rng () in
  for _ = 1 to 100 do
    let live () =
      let rec go () =
        let v = Rng.int r n in
        if Bitset.get mask v then v else go ()
      in
      go ()
    in
    let src = live () and dst = live () in
    let outcome, path =
      Route.route_path ~failures ~strategy:(Route.Backtrack { history = 5 }) net ~src ~dst
    in
    if Route.delivered outcome then begin
      let erased = Route.loop_erased_length path in
      Alcotest.(check bool) "loop-erased <= total hops" true (erased <= Route.hops outcome);
      Alcotest.(check bool) "still a path" true (erased >= 1 || src = dst)
    end
  done

(* ------------------------------------------------------------------ *)
(* Byzantine blackholes (Section 7 security direction)                 *)
(* ------------------------------------------------------------------ *)

module Byzantine = Ftr_core.Byzantine

let byzantine_free_network_is_greedy () =
  let net = build 60 in
  let byzantine _ = false in
  let r = rng () in
  for _ = 1 to 100 do
    let src = Rng.int r 512 and dst = Rng.int r 512 in
    let b = Byzantine.route ~defense:Byzantine.Naive net ~byzantine ~src ~dst in
    let g = Route.route net ~src ~dst in
    Alcotest.(check bool) "delivered" true (Route.delivered b.Byzantine.outcome);
    Alcotest.(check int) "same hops as plain greedy" (Route.hops g)
      (Route.hops b.Byzantine.outcome);
    Alcotest.(check int) "nothing wasted" 0 b.Byzantine.wasted
  done

let byzantine_naive_dies_at_first_blackhole () =
  (* On a chain, a blackhole strictly between src and dst always wins. *)
  let net = Network.build_ideal ~n:64 ~links:0 (rng ()) in
  let byzantine v = v = 20 in
  match Byzantine.route ~defense:Byzantine.Naive net ~byzantine ~src:5 ~dst:40 with
  | { Byzantine.outcome = Route.Failed _; wasted } ->
      Alcotest.(check int) "one message eaten" 1 wasted
  | { Byzantine.outcome = Route.Delivered _; _ } -> Alcotest.fail "must fail on the chain"

let byzantine_retry_routes_around () =
  let n = 2048 in
  let net = Network.build_ideal ~n ~links:8 (Rng.of_int 61) in
  let mask = Failure.random_node_fraction (Rng.of_int 62) ~n ~fraction:0.15 in
  let byzantine v = not (Bitset.get mask v) in
  let r = rng () in
  let naive_f = ref 0 and retry_f = ref 0 and back_f = ref 0 in
  for _ = 1 to 200 do
    let honest () =
      let rec go () =
        let v = Rng.int r n in
        if byzantine v then go () else v
      in
      go ()
    in
    let src = honest () and dst = honest () in
    let failed defense =
      not (Route.delivered (Byzantine.route ~defense net ~byzantine ~src ~dst).Byzantine.outcome)
    in
    if failed Byzantine.Naive then incr naive_f;
    if failed Byzantine.Retry then incr retry_f;
    if failed (Byzantine.Retry_backtrack { history = 5 }) then incr back_f
  done;
  Alcotest.(check bool)
    (Printf.sprintf "retry (%d) beats naive (%d)" !retry_f !naive_f)
    true (!retry_f < !naive_f);
  Alcotest.(check bool)
    (Printf.sprintf "backtrack (%d) <= retry (%d)" !back_f !retry_f)
    true (!back_f <= !retry_f);
  Alcotest.(check bool) "naive substantially hurt" true (!naive_f > 30)

let byzantine_wasted_counts_blackhole_hits () =
  let net = Network.build_ideal ~n:64 ~links:0 (rng ()) in
  (* Chain with a blackhole right next to the source: retry excludes it,
     then the search is stuck (one-sided chain) and fails with 1 waste. *)
  let byzantine v = v = 6 in
  match Byzantine.route ~defense:Byzantine.Retry net ~byzantine ~src:5 ~dst:40 with
  | { Byzantine.outcome = Route.Failed _; wasted } -> Alcotest.(check int) "counted" 1 wasted
  | { Byzantine.outcome = Route.Delivered _; _ } ->
      Alcotest.fail "chain cannot avoid the blackhole"

let byzantine_misroute_clean_network () =
  (* Without Byzantine nodes, misroute-routing is plain greedy. *)
  let net = build 65 in
  let r = rng () in
  for _ = 1 to 100 do
    let src = Rng.int r 512 and dst = Rng.int r 512 in
    let m = Byzantine.route_misroute net ~byzantine:(fun _ -> false) ~src ~dst in
    Alcotest.(check bool) "delivered" true (Route.delivered m.Byzantine.outcome);
    Alcotest.(check int) "greedy hops" (Route.hops (Route.route net ~src ~dst))
      (Route.hops m.Byzantine.outcome);
    Alcotest.(check int) "no sabotage" 0 m.Byzantine.wasted
  done

let byzantine_misroute_inflates_hops () =
  let n = 2048 in
  let net = Network.build_ideal ~n ~links:8 (Rng.of_int 66) in
  let mask = Failure.random_node_fraction (Rng.of_int 67) ~n ~fraction:0.1 in
  let byzantine v = not (Bitset.get mask v) in
  let r = rng () in
  let clean = ref 0 and dirty = ref 0 and delivered = ref 0 and total = 0 + 200 in
  for _ = 1 to total do
    let honest () =
      let rec go () =
        let v = Rng.int r n in
        if byzantine v then go () else v
      in
      go ()
    in
    let src = honest () and dst = honest () in
    clean := !clean + Route.hops (Route.route net ~src ~dst);
    let m = Byzantine.route_misroute net ~byzantine ~src ~dst in
    if Route.delivered m.Byzantine.outcome then begin
      incr delivered;
      dirty := !dirty + Route.hops m.Byzantine.outcome
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most still delivered (%d/%d)" !delivered total)
    true
    (!delivered > total / 2);
  Alcotest.(check bool)
    (Printf.sprintf "sabotage inflates hops (%d vs clean %d)" !dirty !clean)
    true
    (!dirty > !clean)

let byzantine_rejects_bad_endpoints () =
  let net = build 63 in
  Alcotest.check_raises "byzantine endpoint"
    (Invalid_argument "Byzantine.route: endpoint is Byzantine") (fun () ->
      ignore (Byzantine.route net ~byzantine:(fun v -> v = 0) ~src:0 ~dst:5))

let byzantine_rejects_bad_history () =
  (* A negative window was unbounded and a zero one was Retry; both are
     refused, as Route and Multidim refuse them. *)
  let net = build 63 in
  List.iter
    (fun history ->
      Alcotest.check_raises
        (Printf.sprintf "history %d" history)
        (Invalid_argument "Byzantine.route: history must be >= 1")
        (fun () ->
          ignore
            (Byzantine.route ~defense:(Byzantine.Retry_backtrack { history }) net
               ~byzantine:(fun _ -> false) ~src:0 ~dst:5)))
    [ -1; 0 ]

let byzantine_sweep_shapes () =
  let rows = Byzantine.sweep ~n:1024 ~fractions:[ 0.0; 0.2 ] ~networks:2 ~messages:100 ~seed:64 () in
  match rows with
  | [ clean; dirty ] ->
      Alcotest.(check (float 1e-9)) "clean naive" 0.0 clean.Byzantine.naive_failed;
      Alcotest.(check bool) "naive hurt at 20%" true (dirty.Byzantine.naive_failed > 0.2);
      Alcotest.(check bool) "defenses ordered" true
        (dirty.Byzantine.backtrack_failed <= dirty.Byzantine.retry_failed
        && dirty.Byzantine.retry_failed <= dirty.Byzantine.naive_failed);
      Alcotest.(check bool) "waste grows" true
        (dirty.Byzantine.retry_wasted > clean.Byzantine.retry_wasted)
  | _ -> Alcotest.fail "expected two rows"

(* ------------------------------------------------------------------ *)
(* Failure-mask constructors                                           *)
(* ------------------------------------------------------------------ *)

let fraction_mask_exact () =
  let n = 1000 in
  let mask = Failure.random_node_fraction (Rng.of_int 20) ~n ~fraction:0.3 in
  Alcotest.(check int) "exactly 700 alive" 700 (Bitset.count mask)

let fraction_zero_kills_nobody () =
  let mask = Failure.random_node_fraction (Rng.of_int 21) ~n:100 ~fraction:0.0 in
  Alcotest.(check int) "all alive" 100 (Bitset.count mask)

let bernoulli_mask_rate () =
  let n = 20_000 in
  let mask = Failure.bernoulli_node_mask (Rng.of_int 22) ~n ~death_p:0.25 in
  let alive = Bitset.count mask in
  Alcotest.(check bool) "about 75% alive" true (abs (alive - 15_000) < 400)

let compose_masks () =
  let alive_but dead =
    let mask = Bitset.create 8 in
    Bitset.fill mask true;
    Bitset.clear mask dead;
    Failure.of_node_mask mask
  in
  let a = alive_but 3 and b = alive_but 5 in
  let c = Failure.compose a b in
  Alcotest.(check bool) "3 dead" false (Failure.node_alive c 3);
  Alcotest.(check bool) "5 dead" false (Failure.node_alive c 5);
  Alcotest.(check bool) "4 alive" true (Failure.node_alive c 4)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_always_delivers_no_failures =
  QCheck.Test.make ~name:"greedy always delivers without failures" ~count:100
    QCheck.(triple (int_range 2 256) (int_range 0 6) small_int)
    (fun (n, links, seed) ->
      let net = Network.build_ideal ~n ~links (Rng.of_int seed) in
      let r = Rng.of_int (seed + 1) in
      let src = Rng.int r n and dst = Rng.int r n in
      Route.delivered (Route.route net ~src ~dst))

let prop_hops_bounded_by_distance =
  QCheck.Test.make ~name:"two-sided hops bounded by initial distance" ~count:100
    QCheck.(triple (int_range 2 256) (int_range 0 6) small_int)
    (fun (n, links, seed) ->
      let net = Network.build_ideal ~n ~links (Rng.of_int seed) in
      let r = Rng.of_int (seed + 2) in
      let src = Rng.int r n and dst = Rng.int r n in
      Route.hops (Route.route net ~src ~dst) <= abs (src - dst))

let prop_byzantine_retry_dominates_naive =
  QCheck.Test.make ~name:"byzantine retry delivers whenever naive does" ~count:50
    QCheck.(pair (int_range 64 512) small_int)
    (fun (n, seed) ->
      let net = Network.build_ideal ~n ~links:4 (Rng.of_int seed) in
      let mask = Failure.random_node_fraction (Rng.of_int (seed + 1)) ~n ~fraction:0.2 in
      let byzantine v = not (Bitset.get mask v) in
      let r = Rng.of_int (seed + 2) in
      let rec honest () =
        let v = Rng.int r n in
        if byzantine v then honest () else v
      in
      let src = honest () and dst = honest () in
      let naive =
        Ftr_core.Byzantine.route ~defense:Ftr_core.Byzantine.Naive net ~byzantine ~src ~dst
      in
      let retry =
        Ftr_core.Byzantine.route ~defense:Ftr_core.Byzantine.Retry net ~byzantine ~src ~dst
      in
      (not (Route.delivered naive.Ftr_core.Byzantine.outcome))
      || Route.delivered retry.Ftr_core.Byzantine.outcome)

let prop_loop_erased_bounded =
  QCheck.Test.make ~name:"loop-erased length bounded by walk length" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 60) (int_range 0 15))
    (fun walk ->
      let erased = Route.loop_erased_length walk in
      erased >= 0 && erased <= List.length walk - 1)

let prop_backtrack_never_worse_than_terminate =
  QCheck.Test.make ~name:"backtracking delivers whenever terminate does" ~count:50
    QCheck.(pair (int_range 64 512) small_int)
    (fun (n, seed) ->
      let net = Network.build_ideal ~n ~links:4 (Rng.of_int seed) in
      let mask = Failure.random_node_fraction (Rng.of_int (seed + 1)) ~n ~fraction:0.4 in
      let failures = Failure.of_node_mask mask in
      let r = Rng.of_int (seed + 2) in
      let rec live () =
        let v = Rng.int r n in
        if Bitset.get mask v then v else live ()
      in
      let src = live () and dst = live () in
      let t = Route.route ~failures net ~src ~dst in
      let b = Route.route ~failures ~strategy:(Route.Backtrack { history = 5 }) net ~src ~dst in
      (not (Route.delivered t)) || Route.delivered b)

(* ------------------------------------------------------------------ *)
(* Tried-link table                                                    *)
(* ------------------------------------------------------------------ *)

module Tried = Ftr_core.Tried

type tried_op = Add of int | Mem of int | Clear

let show_tried_op = function
  | Add k -> Printf.sprintf "add %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Clear -> "clear"

(* Sequences long enough to double the 64-cell table several times
   between clears (one op in 400 is a clear): keys from a small range (repeats), a CSR-sized range
   and the whole int32-indexable range. *)
let tried_ops =
  let key =
    QCheck.Gen.(
      oneof [ int_range 0 63; int_range 0 200_000; int_range 0 Ftr_graph.Adjacency.I32.max_value ])
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_tried_op ops))
    QCheck.Gen.(
      list_size (int_range 1 1500)
        (frequency
           [
             (240, map (fun k -> Add k) key);
             (160, map (fun k -> Mem k) key);
             (1, return Clear);
           ]))

let prop_tried_matches_hashtbl =
  QCheck.Test.make ~name:"tried-link table agrees with a Hashtbl model" ~count:200 tried_ops
    (fun ops ->
      let t = Tried.create () and model = Hashtbl.create 64 in
      List.for_all
        (fun op ->
          (match op with
          | Add k ->
              Tried.add t k;
              Hashtbl.replace model k ()
          | Mem _ -> ()
          | Clear ->
              Tried.clear t;
              Hashtbl.reset model);
          (match op with Add k | Mem k -> Tried.mem t k = Hashtbl.mem model k | Clear -> true)
          && Hashtbl.fold (fun k () ok -> ok && Tried.mem t k) model true)
        ops)

(* The scratch holds one route's working state, not one stamp per link:
   a fresh one is the same size on a 2^10-node and a 2^16-node network. *)
let scratch_size_independent_of_n () =
  let words n = Obj.reachable_words (Obj.repr (Route.scratch (build ~n ~links:8 n))) in
  Alcotest.(check int) "reachable words, n = 2^10 vs 2^16" (words (1 lsl 10)) (words (1 lsl 16))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "route"
    [
      ( "failure-free",
        [
          quick "always delivers" delivers_without_failures;
          quick "self route" self_route_is_zero_hops;
          quick "adjacent route" adjacent_route_is_one_hop;
          quick "hops at most distance" hops_at_most_distance;
          quick "distance strictly decreases" path_distance_strictly_decreases;
          quick "path endpoints and length" path_starts_and_ends_correctly;
          quick "one-sided never overshoots" one_sided_never_overshoots;
          quick "one-sided slower on average" one_sided_slower_than_two_sided;
          quick "chain crawl" chain_route_crawls;
          quick "deterministic hop bound" deterministic_network_hop_bound;
          quick "rejects bad endpoints" route_rejects_bad_endpoints;
          quick "hop limit reported" hop_limit_reported;
        ] );
      ( "node-failures",
        [
          quick "chain blockade" chain_blockade_terminate_fails;
          quick "backtracking recovers" backtrack_recovers_when_terminate_fails;
          quick "strategy ordering" strategies_ordering_under_failures;
          quick "reroute without rng" reroute_requires_rng_gracefully;
          quick "backtrack validates history" backtrack_requires_positive_history;
          quick "dead nodes never visited" dead_nodes_never_visited;
          quick "reroute validates attempts" reroute_requires_nonnegative_attempts;
        ] );
      ( "link-failures",
        [
          quick "never block delivery" link_failures_never_block_delivery;
          quick "slow delivery" link_failures_slow_delivery;
          quick "immediate links survive" immediate_links_survive_mask;
        ] );
      ( "sparse-networks",
        [
          quick "delivers" sparse_network_delivers;
          quick "hops bounded by index span" sparse_network_distance_uses_positions;
          quick "one-sided respects positions" sparse_one_sided_respects_positions;
          quick "survives failures" sparse_network_with_failures;
        ] );
      ("reroute", [ quick "more attempts no worse" reroute_more_attempts_no_worse ]);
      ( "circle",
        [
          quick "delivers" ring_delivers;
          quick "hops at most shorter arc" ring_hops_at_most_arc;
          quick "routes across the seam" ring_routes_across_seam;
          quick "one-sided is clockwise" ring_one_sided_is_clockwise;
          quick "survives failures" ring_survives_failures;
        ] );
      ( "loop-erasure",
        [
          quick "simple paths" loop_erased_simple_path;
          quick "excursions erased" loop_erased_excursion;
          quick "equals hops for greedy" loop_erased_matches_hops_without_backtracking;
          quick "shorter under backtracking" loop_erased_shorter_under_backtracking;
        ] );
      ( "byzantine",
        [
          quick "clean network matches greedy" byzantine_free_network_is_greedy;
          quick "naive dies at the first blackhole" byzantine_naive_dies_at_first_blackhole;
          quick "retry routes around" byzantine_retry_routes_around;
          quick "wasted messages counted" byzantine_wasted_counts_blackhole_hits;
          quick "misroute: clean network is plain greedy" byzantine_misroute_clean_network;
          quick "misroute: sabotage inflates hops" byzantine_misroute_inflates_hops;
          quick "rejects byzantine endpoints" byzantine_rejects_bad_endpoints;
          quick "sweep shapes" byzantine_sweep_shapes;
          quick "rejects a history below 1" byzantine_rejects_bad_history;
        ] );
      ( "failure-masks",
        [
          quick "exact fraction" fraction_mask_exact;
          quick "zero fraction" fraction_zero_kills_nobody;
          quick "bernoulli rate" bernoulli_mask_rate;
          quick "compose" compose_masks;
        ] );
      ( "tried-links",
        [
          quick "scratch size independent of n" scratch_size_independent_of_n;
          QCheck_alcotest.to_alcotest prop_tried_matches_hashtbl;
        ] );
      ( "properties",
        List.map (fun p -> QCheck_alcotest.to_alcotest p)
          [
            prop_always_delivers_no_failures;
            prop_hops_bounded_by_distance;
            prop_backtrack_never_worse_than_terminate;
            prop_byzantine_retry_dominates_naive;
            prop_loop_erased_bounded;
          ] );
    ]
