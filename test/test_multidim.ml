module Multidim = Ftr_core.Multidim
module Adversary = Ftr_core.Adversary
module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Torus = Ftr_metric.Torus
module Rng = Ftr_prng.Rng
module Bitset = Ftr_graph.Bitset

let rng () = Rng.of_int 6174

(* ------------------------------------------------------------------ *)
(* Higher-dimensional overlays (Section 7 future work)                 *)
(* ------------------------------------------------------------------ *)

let multidim_structure () =
  let m = Multidim.build ~dims:2 ~side:16 ~links:3 (rng ()) in
  Alcotest.(check int) "size" 256 (Multidim.size m);
  Alcotest.(check int) "dims" 2 (Multidim.dims m);
  Alcotest.(check int) "links" 3 (Multidim.links m);
  Alcotest.(check (float 1e-9)) "default alpha = dims" 2.0 (Multidim.alpha m);
  for u = 0 to 255 do
    Alcotest.(check int) "degree" 7 (Multidim.degree m u)
  done

let multidim_3d_structure () =
  let m = Multidim.build ~dims:3 ~side:8 ~links:2 (rng ()) in
  Alcotest.(check int) "size" 512 (Multidim.size m);
  for u = 0 to 511 do
    (* 6 lattice + 2 long. *)
    Alcotest.(check int) "degree" 8 (Multidim.degree m u)
  done

let multidim_delivers_every_dimension () =
  List.iter
    (fun (dims, side) ->
      let m = Multidim.build ~dims ~side ~links:3 (rng ()) in
      let n = Multidim.size m in
      let r = rng () in
      for _ = 1 to 200 do
        let src = Rng.int r n and dst = Rng.int r n in
        Alcotest.(check bool)
          (Printf.sprintf "delivered in %dd" dims)
          true
          (Route.delivered (Multidim.route m ~src ~dst))
      done)
    [ (1, 512); (2, 24); (3, 8) ]

let multidim_hops_bounded_by_l1 () =
  let m = Multidim.build ~dims:2 ~side:32 ~links:2 (rng ()) in
  let t = Multidim.torus m in
  let r = rng () in
  for _ = 1 to 200 do
    let src = Rng.int r 1024 and dst = Rng.int r 1024 in
    Alcotest.(check bool) "hops <= L1" true
      (Multidim.route_hops m ~src ~dst <= Torus.distance t src dst)
  done

let multidim_matches_line_at_dims1 () =
  (* dims = 1 is the paper's own model (on a circle); delivery times should
     be in the same ballpark as Network.build_ring at equal n and links. *)
  let n = 2048 and links = 8 in
  let m = Multidim.build ~dims:1 ~side:n ~links (rng ()) in
  let ring = Network.build_ring ~n ~links (rng ()) in
  let r = rng () in
  let mean_m = ref 0 and mean_r = ref 0 in
  for _ = 1 to 300 do
    let src = Rng.int r n and dst = Rng.int r n in
    mean_m := !mean_m + Multidim.route_hops m ~src ~dst;
    mean_r := !mean_r + Route.hops (Route.route ring ~src ~dst)
  done;
  let a = float_of_int !mean_m and b = float_of_int !mean_r in
  Alcotest.(check bool)
    (Printf.sprintf "1-d torus %.1f vs ring %.1f" (a /. 300.) (b /. 300.))
    true
    (a < 1.5 *. b && b < 1.5 *. a)

let multidim_optimal_alpha_is_dims () =
  (* Kleinberg's theorem in 3 dimensions: alpha = 3 beats strongly local
     link choices. *)
  let mean alpha =
    let m = Multidim.build ~alpha ~dims:3 ~side:12 ~links:2 (Rng.of_int 99) in
    let n = Multidim.size m in
    let r = Rng.of_int 100 in
    let total = ref 0 in
    for _ = 1 to 300 do
      let src = Rng.int r n and dst = Rng.int r n in
      total := !total + Multidim.route_hops m ~src ~dst
    done;
    float_of_int !total /. 300.0
  in
  let good = mean 3.0 and local = mean 9.0 in
  Alcotest.(check bool)
    (Printf.sprintf "alpha=3 (%.1f) < alpha=9 (%.1f)" good local)
    true (good < local)

let multidim_backtracking_survives_failures () =
  let m = Multidim.build ~dims:2 ~side:48 ~links:6 (rng ()) in
  let n = Multidim.size m in
  let mask = Bitset.create n in
  Bitset.fill mask true;
  let r = rng () in
  for v = 0 to n - 1 do
    if Rng.bernoulli r 0.3 then Bitset.clear mask v
  done;
  let alive = Bitset.get mask in
  let live () =
    let rec go () =
      let v = Rng.int r n in
      if alive v then v else go ()
    in
    go ()
  in
  let terminate_fails = ref 0 and backtrack_fails = ref 0 in
  for _ = 1 to 200 do
    let src = live () and dst = live () in
    (match Multidim.route ~alive m ~src ~dst with
    | Route.Delivered _ -> ()
    | Route.Failed _ -> incr terminate_fails);
    match
      Multidim.route ~alive ~strategy:(Multidim.Backtrack { history = 5 }) m ~src ~dst
    with
    | Route.Delivered _ -> ()
    | Route.Failed _ -> incr backtrack_fails
  done;
  Alcotest.(check bool)
    (Printf.sprintf "backtrack %d <= terminate %d" !backtrack_fails !terminate_fails)
    true
    (!backtrack_fails <= !terminate_fails);
  Alcotest.(check bool) "backtracking nearly always delivers" true (!backtrack_fails < 10)

(* One link set, two routers: the rows of a [dims = 1] torus wrapped as a
   circle network must route exactly alike under [Multidim.route] and
   [Route.route], for every live pair, under Terminate and Backtrack 1..5.
   Both scan a row in order and keep the first strict minimum, and Route
   takes no bisect path on a circle, so ties need no exclusion. *)
let prop_torus_matches_circle =
  QCheck.Test.make ~name:"1-d torus and circle network route alike" ~count:60
    QCheck.(quad (int_range 3 40) (int_range 0 4) (int_range 0 60) small_int)
    (fun (n, links, percent_failed, seed) ->
      let m = Multidim.build ~dims:1 ~side:n ~links (Rng.of_int seed) in
      let csr = Multidim.csr m in
      let module Csr = Ftr_graph.Adjacency.Csr in
      let rows = Array.init n (fun u -> Array.init (Csr.degree csr u) (Csr.nth csr u)) in
      let net =
        Network.of_neighbor_indices ~geometry:Network.Circle ~line_size:n
          ~positions:(Array.init n Fun.id) ~neighbors:rows ~links ()
      in
      let r = Rng.of_int (seed + 1) in
      let mask = Bitset.create n in
      for v = 0 to n - 1 do
        if Rng.int r 100 >= percent_failed then Bitset.set mask v
      done;
      let alive = Bitset.get mask and failures = Ftr_core.Failure.of_node_mask mask in
      let code = function
        | Route.Delivered { hops } -> Printf.sprintf "D%d" hops
        | Route.Failed { hops; stuck_at; reason } ->
            Printf.sprintf "F%d@%d:%s" hops stuck_at (Route.reason_label reason)
      in
      let strategies =
        (Multidim.Terminate, Route.Terminate)
        :: List.map
             (fun history -> (Multidim.Backtrack { history }, Route.Backtrack { history }))
             [ 1; 2; 3; 4; 5 ]
      in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if alive src && alive dst then
            List.iter
              (fun (ms, rs) ->
                let a = code (Multidim.route ~alive ~strategy:ms m ~src ~dst)
                and b = code (Route.route ~failures ~strategy:rs net ~src ~dst) in
                if not (String.equal a b) then
                  QCheck.Test.fail_reportf "%d -> %d: torus %s, circle %s" src dst a b)
              strategies
        done
      done;
      true)

let multidim_rejects () =
  Alcotest.check_raises "bad dims" (Invalid_argument "Multidim.build: dims must be >= 1")
    (fun () -> ignore (Multidim.build ~dims:0 ~side:8 (rng ())));
  let m = Multidim.build ~dims:2 ~side:8 (rng ()) in
  Alcotest.check_raises "off torus" (Invalid_argument "Multidim.route: node off the torus")
    (fun () -> ignore (Multidim.route m ~src:0 ~dst:999));
  Alcotest.check_raises "history 0" (Invalid_argument "Multidim.route: history must be >= 1")
    (fun () ->
      ignore (Multidim.route ~strategy:(Multidim.Backtrack { history = 0 }) m ~src:0 ~dst:5))

(* ------------------------------------------------------------------ *)
(* Adversarial failures (Section 4.3.4.2)                              *)
(* ------------------------------------------------------------------ *)

let adversary_structural_positions () =
  let ps = Adversary.structural_positions ~n:16 ~base:2 ~target:8 in
  (* 8 ± {1,2,4,8}: 0,4,6,7,9,10,12 (16 is off the line). *)
  Alcotest.(check (list int)) "positions" [ 0; 4; 6; 7; 9; 10; 12 ] ps

let adversary_mask_spares_target () =
  let mask = Adversary.structural_mask ~n:1024 ~base:2 ~target:500 in
  Alcotest.(check bool) "target alive" true (Bitset.get mask 500);
  List.iter
    (fun p -> Alcotest.(check bool) "killed" false (Bitset.get mask p))
    (Adversary.structural_positions ~n:1024 ~base:2 ~target:500)

let adversary_kill_budget_is_logarithmic () =
  let kills n = List.length (Adversary.structural_positions ~n ~base:2 ~target:(n / 2)) in
  Alcotest.(check bool) "2 log n kills" true (kills 1024 <= 21);
  Alcotest.(check bool) "grows slowly" true (kills 65536 - kills 1024 <= 13)

let adversary_cuts_geometric_network () =
  (* With its structural in-neighbours gone, the target of a geometric
     network is unreachable from anywhere. *)
  let n = 1024 in
  let net = Network.build_geometric ~n ~base:2 in
  let target = 700 in
  let mask = Adversary.structural_mask ~n ~base:2 ~target in
  let failures = Ftr_core.Failure.of_node_mask mask in
  let r = rng () in
  for _ = 1 to 30 do
    let rec live_src () =
      let s = Rng.int r n in
      if s <> target && Bitset.get mask s then s else live_src ()
    in
    let src = live_src () in
    match
      Route.route ~failures ~strategy:(Route.Backtrack { history = 5 }) ~rng:r net ~src
        ~dst:target
    with
    | Route.Delivered _ -> Alcotest.fail "target should be unreachable"
    | Route.Failed _ -> ()
  done

let adversary_random_network_shrugs () =
  let r = Adversary.isolation_experiment ~n:2048 ~trials:60 ~seed:31 () in
  Alcotest.(check bool)
    (Printf.sprintf "geometric dead (%.2f)" r.Adversary.geometric_failed)
    true
    (r.Adversary.geometric_failed > 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "random fine (%.2f)" r.Adversary.random_failed)
    true
    (r.Adversary.random_failed < 0.05);
  Alcotest.(check bool) "budget logarithmic" true (r.Adversary.kills <= 22)

let adversary_blockade_requires_direct_link () =
  (* Blockade of radius r around the target: only direct long links into
     the target can finish the route. On a chain (no long links) that means
     certain failure. *)
  let n = 256 in
  let chain = Network.build_ideal ~n ~links:0 (rng ()) in
  let target = 128 in
  let mask = Adversary.blockade_mask ~n ~target ~radius:3 in
  let failures = Ftr_core.Failure.of_node_mask mask in
  (match Route.route ~failures ~strategy:(Route.Backtrack { history = 5 }) chain ~src:5 ~dst:target with
  | Route.Delivered _ -> Alcotest.fail "no link can cross the blockade"
  | Route.Failed _ -> ());
  (* With long links the blockade is porous. *)
  let rich = Network.build_ideal ~n:2048 ~links:14 (Rng.of_int 77) in
  let mask = Adversary.blockade_mask ~n:2048 ~target:1024 ~radius:3 in
  let failures = Ftr_core.Failure.of_node_mask mask in
  let r = rng () in
  let ok = ref 0 in
  for _ = 1 to 30 do
    let rec live_src () =
      let s = Rng.int r 2048 in
      if Bitset.get mask s && s <> 1024 then s else live_src ()
    in
    match
      Route.route ~failures ~strategy:(Route.Backtrack { history = 5 }) ~rng:r rich
        ~src:(live_src ()) ~dst:1024
    with
    | Route.Delivered _ -> incr ok
    | Route.Failed _ -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "long links cross (%d/30)" !ok) true (!ok >= 25)

let adversary_hub_attack_mask () =
  let net = Network.build_ideal ~n:512 ~links:4 (rng ()) in
  let mask = Adversary.highest_in_degree_mask net ~kills:50 in
  Alcotest.(check int) "exactly 50 dead" 462 (Bitset.count mask);
  (* Every dead node's in-degree is at least every live node's... the sort
     is by degree; verify the minimum dead degree >= maximum live degree
     minus ties. Weaker, exact check: the 50 dead are the top-50 by
     (degree, index) order. *)
  let degrees = Ftr_core.Network_stats.in_degrees net in
  let dead = ref [] and live_max = ref 0 in
  for v = 0 to 511 do
    if Bitset.get mask v then live_max := max !live_max degrees.(v)
    else dead := degrees.(v) :: !dead
  done;
  let dead_min = List.fold_left min max_int !dead in
  Alcotest.(check bool)
    (Printf.sprintf "dead min %d >= live max %d - 1" dead_min !live_max)
    true
    (dead_min >= !live_max - 1)

let adversary_hub_attack_is_blunt_on_ideal () =
  let net = Network.build_ideal ~n:2048 ~links:11 (rng ()) in
  let r = Adversary.degree_attack_experiment ~kills_fraction:0.1 ~messages:200 ~net ~seed:40 () in
  Alcotest.(check int) "kill budget" 204 r.Adversary.attack_kills;
  (* Egalitarian: targeted beats random by only a small margin. *)
  Alcotest.(check bool)
    (Printf.sprintf "targeted %.3f close to random %.3f" r.Adversary.targeted_failed
       r.Adversary.random_failed)
    true
    (r.Adversary.targeted_failed -. r.Adversary.random_failed < 0.15)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "multidim"
    [
      ( "overlay",
        [
          quick "2-d structure" multidim_structure;
          quick "3-d structure" multidim_3d_structure;
          quick "delivers in 1/2/3 dimensions" multidim_delivers_every_dimension;
          quick "hops bounded by L1" multidim_hops_bounded_by_l1;
          quick "1-d torus matches the ring model" multidim_matches_line_at_dims1;
          quick "optimal exponent equals dimension" multidim_optimal_alpha_is_dims;
          quick "backtracking under failures" multidim_backtracking_survives_failures;
          quick "rejects bad input" multidim_rejects;
          QCheck_alcotest.to_alcotest prop_torus_matches_circle;
        ] );
      ( "adversary",
        [
          quick "structural positions" adversary_structural_positions;
          quick "mask spares the target" adversary_mask_spares_target;
          quick "kill budget logarithmic" adversary_kill_budget_is_logarithmic;
          quick "cuts the geometric network" adversary_cuts_geometric_network;
          quick "random network shrugs" adversary_random_network_shrugs;
          quick "blockade needs direct links" adversary_blockade_requires_direct_link;
          quick "hub-attack mask" adversary_hub_attack_mask;
          quick "hub attack blunt on egalitarian nets" adversary_hub_attack_is_blunt_on_ideal;
        ] );
    ]
