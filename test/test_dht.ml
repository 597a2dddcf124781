module Keyspace = Ftr_dht.Keyspace
module Store = Ftr_dht.Store
module Dynamic = Ftr_dht.Dynamic
module Network = Ftr_core.Network
module Failure = Ftr_core.Failure
module Route = Ftr_core.Route
module Overlay = Ftr_p2p.Overlay
module Engine = Ftr_sim.Engine
module Rng = Ftr_prng.Rng
module Bitset = Ftr_graph.Bitset

(* ------------------------------------------------------------------ *)
(* Keyspace                                                            *)
(* ------------------------------------------------------------------ *)

let keyspace_deterministic () =
  Alcotest.(check int64) "fnv stable" (Keyspace.fnv1a64 "hello") (Keyspace.fnv1a64 "hello");
  Alcotest.(check int) "point stable" (Keyspace.point ~line_size:1000 "hello")
    (Keyspace.point ~line_size:1000 "hello")

let keyspace_fnv_known_vectors () =
  (* Published FNV-1a 64 test vectors. *)
  Alcotest.(check int64) "empty" 0xCBF29CE484222325L (Keyspace.fnv1a64 "");
  Alcotest.(check int64) "'a'" 0xAF63DC4C8601EC8CL (Keyspace.fnv1a64 "a")

let keyspace_points_in_range () =
  for i = 0 to 999 do
    let p = Keyspace.point ~line_size:321 (string_of_int i) in
    Alcotest.(check bool) "in range" true (p >= 0 && p < 321)
  done

let keyspace_spreads_evenly () =
  (* Chi-square over 16 cells with 16000 keys; 99.9% quantile of chi2(15)
     is 37.7. *)
  let cells = Array.make 16 0 in
  let keys = 16_000 in
  for i = 0 to keys - 1 do
    let p = Keyspace.point ~line_size:16 (Printf.sprintf "key-%d" i) in
    cells.(p) <- cells.(p) + 1
  done;
  let expected = Array.make 16 (float_of_int keys /. 16.0) in
  let chi2 = Ftr_stats.Gof.chi_square ~observed:cells ~expected in
  Alcotest.(check bool) (Printf.sprintf "chi2 %.1f < 45" chi2) true (chi2 < 45.0)

let keyspace_salts_independent () =
  (* Replica points of the same key should look unrelated. *)
  let same = ref 0 in
  for i = 0 to 499 do
    let key = Printf.sprintf "k%d" i in
    let p0 = Keyspace.replica_point ~line_size:4096 ~salt:0 key in
    let p1 = Keyspace.replica_point ~line_size:4096 ~salt:1 key in
    if abs (p0 - p1) < 41 then incr same
  done;
  (* Pr[|p0-p1| < 41] ~ 2%, so over 500 keys expect ~10, allow slack. *)
  Alcotest.(check bool) (Printf.sprintf "%d nearby pairs" !same) true (!same < 30)

let keyspace_avalanche () =
  (* Flipping one character of the key should flip about half the bits of
     the 64-bit hash. *)
  let popcount v =
    let c = ref 0 in
    for b = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical v b) 1L = 1L then incr c
    done;
    !c
  in
  let s = Ftr_stats.Summary.create () in
  for i = 0 to 499 do
    let key = Printf.sprintf "avalanche-%d" i in
    let mutated = Printf.sprintf "avalanchf-%d" i in
    let flipped = popcount (Int64.logxor (Keyspace.hash64 key) (Keyspace.hash64 mutated)) in
    Ftr_stats.Summary.add_int s flipped
  done;
  Alcotest.(check bool)
    (Printf.sprintf "mean flipped bits %.1f near 32" (Ftr_stats.Summary.mean s))
    true
    (abs_float (Ftr_stats.Summary.mean s -. 32.0) < 2.0)

let keyspace_salt_zero_is_point () =
  Alcotest.(check int) "salt 0" (Keyspace.point ~line_size:999 "abc")
    (Keyspace.replica_point ~line_size:999 ~salt:0 "abc")

(* ------------------------------------------------------------------ *)
(* Static store                                                        *)
(* ------------------------------------------------------------------ *)

let make_store ?(n = 1024) ?(links = 8) ?(replicas = 1) seed =
  Store.create ~replicas (Network.build_ideal ~n ~links (Rng.of_int seed))

let store_put_get_roundtrip () =
  let store = make_store 1 in
  for i = 0 to 199 do
    Store.put store ~key:(Printf.sprintf "k%d" i) ~value:(Printf.sprintf "v%d" i)
  done;
  for i = 0 to 199 do
    Alcotest.(check (option string)) "roundtrip"
      (Some (Printf.sprintf "v%d" i))
      (Store.get store ~key:(Printf.sprintf "k%d" i))
  done

let store_missing_key () =
  let store = make_store 2 in
  Alcotest.(check (option string)) "missing" None (Store.get store ~key:"nope")

let store_overwrite () =
  let store = make_store 3 in
  Store.put store ~key:"k" ~value:"v1";
  Store.put store ~key:"k" ~value:"v2";
  Alcotest.(check (option string)) "overwritten" (Some "v2") (Store.get store ~key:"k")

let store_remove () =
  let store = make_store 4 in
  Store.put store ~key:"k" ~value:"v";
  Store.remove store ~key:"k";
  Alcotest.(check (option string)) "removed" None (Store.get store ~key:"k");
  Alcotest.(check int) "empty" 0 (Store.stored_pairs store)

let store_owner_is_nearest () =
  let store = make_store 5 in
  let net = Store.network store in
  let key = "some-key" in
  let point = Keyspace.point ~line_size:(Network.line_size net) key in
  Alcotest.(check int) "owner" (Network.nearest_index net ~position:point)
    (Store.owner store key)

let store_replica_count () =
  let store = make_store ~replicas:3 6 in
  Store.put store ~key:"k" ~value:"v";
  let owners = Store.replica_owners store "k" in
  Alcotest.(check bool) "replicas distinct" true (List.length owners >= 2);
  Alcotest.(check int) "stored at each owner" (List.length owners) (Store.stored_pairs store);
  List.iter
    (fun o -> Alcotest.(check bool) "key present" true (List.mem "k" (Store.keys_at store o)))
    owners

let store_load_balanced () =
  (* With an even hash, no node should hold vastly more than its share. *)
  let n = 256 in
  let store = Store.create (Network.build_ideal ~n ~links:4 (Rng.of_int 7)) in
  let keys = 25_600 in
  for i = 0 to keys - 1 do
    Store.put store ~key:(Printf.sprintf "key-%d" i) ~value:"x"
  done;
  let worst = ref 0 in
  for node = 0 to n - 1 do
    let load = List.length (Store.keys_at store node) in
    if load > !worst then worst := load
  done;
  (* Mean load is 100; the max of 256 Poisson(100) draws is ~140. *)
  Alcotest.(check bool) (Printf.sprintf "worst load %d" !worst) true (!worst < 180)

let store_routed_get_pays_hops () =
  let store = make_store 8 in
  Store.put store ~key:"k" ~value:"v";
  let r = Store.routed_get store ~src:0 ~key:"k" in
  Alcotest.(check (option string)) "found" (Some "v") r.Store.value;
  Alcotest.(check bool) "hops counted" true (r.Store.hops >= 0);
  Alcotest.(check int) "one owner reached" 1 (List.length r.Store.reached)

let store_routed_put_then_routed_get () =
  let store = make_store 9 in
  let rp = Store.routed_put store ~src:17 ~key:"routed" ~value:"value" in
  Alcotest.(check bool) "stored somewhere" true (rp.Store.reached <> []);
  let rg = Store.routed_get store ~src:900 ~key:"routed" in
  Alcotest.(check (option string)) "readable from elsewhere" (Some "value") rg.Store.value

let store_survives_failures_with_replicas () =
  (* Kill 40% of nodes including (often) primaries: replicated reads keep
     working through backtracking, unreplicated ones lose data. *)
  let n = 2048 in
  let net = Network.build_ideal ~n ~links:11 (Rng.of_int 10) in
  let replicated = Store.create ~replicas:3 net in
  let bare = Store.create ~replicas:1 net in
  let keys = List.init 150 (fun i -> Printf.sprintf "key-%d" i) in
  List.iter
    (fun k ->
      Store.put replicated ~key:k ~value:k;
      Store.put bare ~key:k ~value:k)
    keys;
  let mask = Failure.random_node_fraction (Rng.of_int 11) ~n ~fraction:0.4 in
  let failures = Failure.of_node_mask mask in
  let rng = Rng.of_int 12 in
  let src =
    let rec live () =
      let v = Rng.int rng n in
      if Bitset.get mask v then v else live ()
    in
    live ()
  in
  let hits store =
    List.fold_left
      (fun acc k ->
        let r =
          Store.routed_get ~failures ~strategy:(Route.Backtrack { history = 5 }) ~rng store
            ~src ~key:k
        in
        if r.Store.value = Some k then acc + 1 else acc)
      0 keys
  in
  let replicated_hits = hits replicated and bare_hits = hits bare in
  Alcotest.(check bool)
    (Printf.sprintf "replicated %d/150 > bare %d/150" replicated_hits bare_hits)
    true
    (replicated_hits > bare_hits);
  Alcotest.(check bool)
    (Printf.sprintf "replicated survives (%d/150)" replicated_hits)
    true
    (replicated_hits >= 130)

let store_rejects () =
  Alcotest.check_raises "no replicas" (Invalid_argument "Store.create: need at least one replica")
    (fun () -> ignore (Store.create ~replicas:0 (Network.build_ideal ~n:16 ~links:1 (Rng.of_int 1))))

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

module Workload = Ftr_dht.Workload

let workload_draw_in_universe () =
  let w = Workload.create ~universe:50 () in
  Alcotest.(check int) "universe" 50 (Workload.universe w);
  let r = Rng.of_int 30 in
  for _ = 1 to 500 do
    let k = Workload.draw w r in
    Alcotest.(check bool) "key exists" true (Array.mem k (Workload.keys w))
  done

let workload_zipf_head_heavy () =
  let w = Workload.create ~exponent:1.0 ~universe:100 () in
  let r = Rng.of_int 31 in
  let hottest = (Workload.keys w).(0) in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Workload.draw w r = hottest then incr hits
  done;
  (* Rank 1 carries 1/H_100 ~ 19% of the mass. *)
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) (Printf.sprintf "head rate %.3f" rate) true
    (abs_float (rate -. 0.193) < 0.02)

let workload_load_measured () =
  let net = Network.build_ideal ~n:1024 ~links:8 (Rng.of_int 32) in
  let store = Store.create net in
  let w = Workload.create ~universe:200 () in
  Array.iter (fun k -> Store.put store ~key:k ~value:"v") (Workload.keys w);
  let report = Workload.measure_load ~store ~requests:400 w (Rng.of_int 33) in
  Alcotest.(check int) "requests" 400 report.Workload.requests;
  Alcotest.(check (float 1e-9)) "all hits" 1.0 report.Workload.hit_rate;
  Alcotest.(check bool) "hops sane" true (report.Workload.mean_hops > 0.0);
  (* Zipf skew concentrates serving load far above the mean. *)
  Alcotest.(check bool)
    (Printf.sprintf "serving hotspot factor %.1f" report.Workload.serve_max_over_mean)
    true
    (report.Workload.serve_max_over_mean > 3.0)

let workload_spread_reduces_hotspot () =
  let net = Network.build_ideal ~n:1024 ~links:8 (Rng.of_int 34) in
  let store = Store.create ~replicas:4 net in
  let w = Workload.create ~universe:100 () in
  Array.iter (fun k -> Store.put store ~key:k ~value:"v") (Workload.keys w);
  let focused = Workload.measure_load ~store ~requests:600 w (Rng.of_int 35) in
  let spread = Workload.measure_load ~spread:true ~store ~requests:600 w (Rng.of_int 35) in
  Alcotest.(check bool)
    (Printf.sprintf "spread %.1f < focused %.1f" spread.Workload.serve_max_over_mean
       focused.Workload.serve_max_over_mean)
    true
    (spread.Workload.serve_max_over_mean < focused.Workload.serve_max_over_mean);
  Alcotest.(check bool) "spread reads still hit" true (spread.Workload.hit_rate > 0.99)

let workload_rejects () =
  Alcotest.check_raises "empty universe"
    (Invalid_argument "Workload.create: universe must be >= 1") (fun () ->
      ignore (Workload.create ~universe:0 ()))

(* ------------------------------------------------------------------ *)
(* Dynamic store                                                       *)
(* ------------------------------------------------------------------ *)

let make_dynamic ?(replicas = 1) ?(line_size = 1024) ?(nodes = 64) seed =
  let engine = Engine.create () in
  let overlay = Overlay.create ~line_size ~links:8 ~rng:(Rng.of_int seed) engine in
  Overlay.populate overlay ~positions:(List.init nodes (fun i -> i * line_size / nodes));
  (engine, overlay, Dynamic.create ~replicas ~line_size overlay)

let dynamic_put_get () =
  let engine, _, dht = make_dynamic 20 in
  Dynamic.put dht ~from:0 ~key:"hello" ~value:"world";
  Engine.run engine;
  let result = ref None in
  Dynamic.get dht ~from:512 ~key:"hello" ~callback:(fun v -> result := v);
  Engine.run engine;
  Alcotest.(check (option string)) "roundtrip across the overlay" (Some "world") !result

let dynamic_missing_key () =
  let engine, _, dht = make_dynamic 21 in
  let result = ref (Some "sentinel") in
  Dynamic.get dht ~from:0 ~key:"absent" ~callback:(fun v -> result := v);
  Engine.run engine;
  Alcotest.(check (option string)) "miss reported" None !result

let dynamic_many_pairs () =
  let engine, _, dht = make_dynamic 22 in
  for i = 0 to 99 do
    Dynamic.put dht ~from:0 ~key:(Printf.sprintf "k%d" i) ~value:(string_of_int i)
  done;
  Engine.run engine;
  Alcotest.(check int) "all stored" 100 (Dynamic.stored_pairs dht);
  let hits = ref 0 in
  for i = 0 to 99 do
    Dynamic.get dht ~from:512 ~key:(Printf.sprintf "k%d" i) ~callback:(fun v ->
        if v = Some (string_of_int i) then incr hits)
  done;
  Engine.run engine;
  Alcotest.(check int) "all found" 100 !hits

let dynamic_crash_loses_unreplicated () =
  let engine, overlay, dht = make_dynamic 23 in
  Dynamic.put dht ~from:0 ~key:"doomed" ~value:"x";
  Engine.run engine;
  (* Find where it landed and crash that node. *)
  let holder = ref (-1) in
  Dynamic.get dht ~from:0 ~key:"doomed" ~callback:(fun _ -> ());
  Engine.run engine;
  List.iter
    (fun pos -> if !holder < 0 && Dynamic.stored_pairs dht > 0 then holder := pos)
    (Overlay.live_positions overlay);
  (* Locate by checking the owner's point. *)
  let point = Keyspace.point ~line_size:1024 "doomed" in
  let owner =
    (* closest live node to the point *)
    List.fold_left
      (fun best pos -> if abs (pos - point) < abs (best - point) then pos else best)
      (List.hd (Overlay.live_positions overlay))
      (Overlay.live_positions overlay)
  in
  Overlay.crash overlay ~pos:owner;
  let result = ref (Some "sentinel") in
  Dynamic.get dht ~from:0 ~key:"doomed" ~callback:(fun v -> result := v);
  Engine.run engine;
  Alcotest.(check (option string)) "value died with its node" None !result

let dynamic_replicas_survive_crash () =
  let engine, overlay, dht = make_dynamic ~replicas:3 24 in
  Dynamic.put dht ~from:0 ~key:"precious" ~value:"kept";
  Engine.run engine;
  (* Crash the primary owner. *)
  let point = Keyspace.point ~line_size:1024 "precious" in
  let owner =
    List.fold_left
      (fun best pos -> if abs (pos - point) < abs (best - point) then pos else best)
      (List.hd (Overlay.live_positions overlay))
      (Overlay.live_positions overlay)
  in
  Overlay.crash overlay ~pos:owner;
  let result = ref None in
  Dynamic.get dht ~from:0 ~key:"precious" ~callback:(fun v -> result := v);
  Engine.run engine;
  Alcotest.(check (option string)) "a replica answered" (Some "kept") !result

let dynamic_rebalance_restores_replicas () =
  let engine, overlay, dht = make_dynamic ~replicas:2 25 in
  for i = 0 to 49 do
    Dynamic.put dht ~from:0 ~key:(Printf.sprintf "k%d" i) ~value:"v"
  done;
  Engine.run engine;
  let before = Dynamic.stored_pairs dht in
  (* Crash a batch of nodes, losing some copies. *)
  let rng = Rng.of_int 26 in
  List.iter
    (fun pos ->
      if Rng.bernoulli rng 0.25 && Overlay.node_count overlay > 8 && pos <> 0 then
        Overlay.crash overlay ~pos)
    (Overlay.live_positions overlay);
  let after_crash = Dynamic.stored_pairs dht in
  Alcotest.(check bool) "copies lost" true (after_crash < before);
  (* Anti-entropy brings the count back up. *)
  ignore (Dynamic.rebalance dht);
  Engine.run engine;
  let after_rebalance = Dynamic.stored_pairs dht in
  Alcotest.(check bool)
    (Printf.sprintf "restored %d -> %d" after_crash after_rebalance)
    true
    (after_rebalance > after_crash);
  let s = Dynamic.stats dht in
  Alcotest.(check bool) "puts counted" true (s.Dynamic.puts >= 50)

let dynamic_handoff_saves_data () =
  let engine, overlay, dht = make_dynamic 27 in
  Dynamic.put dht ~from:0 ~key:"survivor" ~value:"carried";
  Engine.run engine;
  (* Find the holder and have it leave gracefully with a handoff. *)
  let point = Keyspace.point ~line_size:1024 "survivor" in
  let owner =
    List.fold_left
      (fun best pos -> if abs (pos - point) < abs (best - point) then pos else best)
      (List.hd (Overlay.live_positions overlay))
      (Overlay.live_positions overlay)
  in
  let moved = Dynamic.leave_with_handoff dht ~pos:owner in
  Engine.run engine;
  Alcotest.(check int) "one pair handed off" 1 moved;
  Alcotest.(check bool) "node gone" false (Overlay.is_alive overlay owner);
  let result = ref None in
  Dynamic.get dht ~from:0 ~key:"survivor" ~callback:(fun v -> result := v);
  Engine.run engine;
  Alcotest.(check (option string)) "data survived the departure" (Some "carried") !result

let dynamic_handoff_of_empty_node () =
  let engine, overlay, dht = make_dynamic 28 in
  ignore engine;
  let victim = List.nth (Overlay.live_positions overlay) 3 in
  Alcotest.(check int) "nothing to move" 0 (Dynamic.leave_with_handoff dht ~pos:victim);
  Alcotest.(check bool) "still leaves" false (Overlay.is_alive overlay victim)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_store_roundtrip =
  QCheck.Test.make ~name:"store put/get roundtrips arbitrary keys" ~count:100
    QCheck.(triple (int_range 2 256) (int_range 1 4) (small_list string))
    (fun (n, replicas, raw_keys) ->
      let store = Store.create ~replicas (Network.build_ideal ~n ~links:2 (Rng.of_int n)) in
      let keys = List.sort_uniq compare raw_keys in
      List.iteri (fun i k -> Store.put store ~key:k ~value:(string_of_int i)) keys;
      List.for_all
        (fun k ->
          match Store.get store ~key:k with
          | Some _ -> true
          | None -> false)
        keys)

let prop_routed_get_finds_stored =
  QCheck.Test.make ~name:"routed get finds every stored key without failures" ~count:50
    QCheck.(pair (int_range 8 256) small_int)
    (fun (n, seed) ->
      let store = Store.create (Network.build_ideal ~n ~links:3 (Rng.of_int seed)) in
      Store.put store ~key:"k" ~value:"v";
      let r = Rng.of_int (seed + 1) in
      let src = Rng.int r n in
      (Store.routed_get store ~src ~key:"k").Store.value = Some "v")

let prop_store_model_based =
  (* Random put/get/remove sequences against a plain Hashtbl model. *)
  QCheck.Test.make ~name:"store agrees with a hashtable model" ~count:60
    QCheck.(
      pair small_int
        (list_of_size (Gen.int_range 1 60)
           (triple (int_range 0 2) (int_range 0 9) (int_range 0 99))))
    (fun (seed, ops) ->
      let store =
        Store.create ~replicas:2 (Network.build_ideal ~n:128 ~links:2 (Rng.of_int seed))
      in
      let model : (string, string) Hashtbl.t = Hashtbl.create 16 in
      List.for_all
        (fun (op, k, v) ->
          let key = Printf.sprintf "k%d" k in
          match op with
          | 0 ->
              let value = Printf.sprintf "v%d" v in
              Store.put store ~key ~value;
              Hashtbl.replace model key value;
              true
          | 1 ->
              Store.remove store ~key;
              Hashtbl.remove model key;
              true
          | _ -> Store.get store ~key = Hashtbl.find_opt model key)
        ops)

let prop_keyspace_point_stable =
  QCheck.Test.make ~name:"keyspace points deterministic and in range" ~count:300
    QCheck.(pair (int_range 1 100000) string)
    (fun (line_size, key) ->
      let p = Keyspace.point ~line_size key in
      p >= 0 && p < line_size && p = Keyspace.point ~line_size key)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dht"
    [
      ( "keyspace",
        [
          quick "deterministic" keyspace_deterministic;
          quick "fnv known vectors" keyspace_fnv_known_vectors;
          quick "points in range" keyspace_points_in_range;
          quick "spreads evenly (chi-square)" keyspace_spreads_evenly;
          quick "salts independent" keyspace_salts_independent;
          quick "avalanche" keyspace_avalanche;
          quick "salt zero is the primary point" keyspace_salt_zero_is_point;
        ] );
      ( "store",
        [
          quick "put/get roundtrip" store_put_get_roundtrip;
          quick "missing key" store_missing_key;
          quick "overwrite" store_overwrite;
          quick "remove" store_remove;
          quick "owner is nearest node" store_owner_is_nearest;
          quick "replica placement" store_replica_count;
          quick "load balanced" store_load_balanced;
          quick "routed get" store_routed_get_pays_hops;
          quick "routed put then get" store_routed_put_then_routed_get;
          quick "replicas survive failures" store_survives_failures_with_replicas;
          quick "rejects zero replicas" store_rejects;
        ] );
      ( "workload",
        [
          quick "draws from the universe" workload_draw_in_universe;
          quick "zipf head mass" workload_zipf_head_heavy;
          quick "load measurement" workload_load_measured;
          quick "replica spreading tames hotspots" workload_spread_reduces_hotspot;
          quick "rejects empty universe" workload_rejects;
        ] );
      ( "dynamic",
        [
          quick "put/get over the protocol" dynamic_put_get;
          quick "missing key" dynamic_missing_key;
          quick "many pairs" dynamic_many_pairs;
          quick "crash loses unreplicated data" dynamic_crash_loses_unreplicated;
          quick "replicas survive a crash" dynamic_replicas_survive_crash;
          quick "rebalance restores copies" dynamic_rebalance_restores_replicas;
          quick "graceful handoff saves data" dynamic_handoff_saves_data;
          quick "handoff of an empty node" dynamic_handoff_of_empty_node;
        ] );
      ( "properties",
        List.map (fun p -> QCheck_alcotest.to_alcotest p)
          [
            prop_store_roundtrip;
            prop_routed_get_finds_stored;
            prop_keyspace_point_stable;
            prop_store_model_based;
          ] );
    ]
