(* ftr-lint: disable-file T3 test assertions compare small concrete values *)
(* The flat-CSR refactor's safety net.

   The golden values below were recorded from the pre-refactor tree (the
   jagged-row router with Hashtbl exclusion lists) on the exact grids
   re-run here; the refactor's contract is byte-for-byte identical
   semantics, so these tests must pass without any tolerance. The
   qcheck properties pin the CSR rows to the Network accessors and to
   [Csr.of_rows], and the Gc tests pin the "zero minor allocations per
   hop" property the refactor bought. *)

module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Failure = Ftr_core.Failure
module E = Ftr_core.Experiment
module Csr = Ftr_graph.Adjacency.Csr
module Rng = Ftr_prng.Rng

(* ------------------------------------------------------------------ *)
(* Golden-seed regression: route outcomes                              *)
(* ------------------------------------------------------------------ *)

(* Encode an outcome the way the recorder did: D<hops> for delivered,
   F<hops>@<stuck_at> for failed. *)
let outcome_code = function
  | Route.Delivered { hops } -> Printf.sprintf "D%d" hops
  | Route.Failed { hops; stuck_at; _ } -> Printf.sprintf "F%d@%d" hops stuck_at

(* One grid config of the recorder: build at [seed], mask the same rng,
   route 24 live src<>dst pairs drawn from the same rng. [scratch]
   optionally threads one reusable scratch through every call — reuse
   must not change a single outcome. *)
let run_config ?scratch ~seed ~strategy ~fraction () =
  let n = 1024 and links = 10 in
  let rng = Rng.of_int seed in
  let net = Network.build_ideal ~n ~links rng in
  let failures, alive =
    if fraction > 0.0 then begin
      let mask = Failure.random_node_fraction rng ~n ~fraction in
      (Failure.of_node_mask mask, Ftr_graph.Bitset.get mask)
    end
    else (Failure.none, fun _ -> true)
  in
  let outcomes = ref [] in
  let routed = ref 0 in
  while !routed < 24 do
    let src = Rng.int rng n and dst = Rng.int rng n in
    if src <> dst && alive src && alive dst then begin
      incr routed;
      let o = Route.route ?scratch ~failures ~strategy ~rng net ~src ~dst in
      outcomes := outcome_code o :: !outcomes
    end
  done;
  String.concat "," (List.rev !outcomes)

let golden_grid =
  [
    ( 42,
      Route.Terminate,
      0.0,
      "D7,D6,D6,D7,D7,D10,D6,D11,D8,D8,D7,D8,D5,D5,D6,D3,D5,D9,D6,D5,D5,D4,D5,D5" );
    ( 42,
      Route.Backtrack { history = 5 },
      0.3,
      "D8,D13,D19,D10,D6,D7,D7,D3,D13,D487,D5,D2,D9,D5,D14,D10,D7,D7,D3,D10,D5,D2,D7,D4" );
    ( 43,
      Route.Random_reroute { attempts = 3 },
      0.3,
      "D11,D16,D9,D8,D3,D4,D7,D11,D3,D5,D1,D7,D4,D8,D7,D7,D7,D4,D6,D22,D8,D4,D6,D30" );
    ( 44,
      Route.Backtrack { history = 5 },
      0.5,
      "D6,D7,D60,D8,D8,D26,F1292@30,D9,D19,D5,D12,D10,D78,D1,D62,D9,D8,D4,D7,F0@564,D30,D11,D3,D12"
    );
  ]

let golden_route_outcomes () =
  List.iter
    (fun (seed, strategy, fraction, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "seed=%d fail=%g" seed fraction)
        expected
        (run_config ~seed ~strategy ~fraction ()))
    golden_grid

let golden_route_outcomes_with_scratch () =
  List.iter
    (fun (seed, strategy, fraction, expected) ->
      (* A single scratch reused across all 24 messages of each config —
         stale stamps or backtrack history must never leak between
         routes. *)
      let scratch = Route.scratch (Network.build_ideal ~n:1024 ~links:10 (Rng.of_int seed)) in
      Alcotest.(check string)
        (Printf.sprintf "seed=%d fail=%g (scratch)" seed fraction)
        expected
        (run_config ~scratch ~seed ~strategy ~fraction ()))
    golden_grid

(* ------------------------------------------------------------------ *)
(* Golden-seed regression: Figure 6 fractions                          *)
(* ------------------------------------------------------------------ *)

(* Full-precision (hex float) fractions recorded from the pre-refactor
   tree at test scale. Compared as %h strings: bit-for-bit, no epsilon. *)
let golden_figure6 () =
  let rows = E.figure6 ~n:1024 ~links:10 ~networks:2 ~messages:60 ~fractions:[ 0.0; 0.3; 0.6 ] ~seed:5 () in
  let line r =
    Printf.sprintf "p=%g term=%h rer=%h bt=%h bt_hops=%h bt_path=%h" r.E.fail_fraction
      r.E.terminate.E.failed_fraction r.E.reroute.E.failed_fraction
      r.E.backtrack.E.failed_fraction r.E.backtrack.E.mean_hops r.E.backtrack.E.mean_path_hops
  in
  let expected =
    [
      "p=0 term=0x0p+0 rer=0x0p+0 bt=0x0p+0 bt_hops=0x1.8111111111111p+2 \
       bt_path=0x1.8111111111111p+2";
      "p=0.3 term=0x1.1111111111111p-2 rer=0x1p-3 bt=0x1.1111111111111p-6 \
       bt_hops=0x1.2d6cdfa1d6cep+3 bt_path=0x1.b5136bb25136cp+2";
      "p=0.6 term=0x1.8444444444444p-1 rer=0x1.5111111111111p-1 bt=0x1.3333333333333p-3 \
       bt_hops=0x1.5bdd576f108aap+5 bt_path=0x1.3d1eb851eb852p+3";
    ]
  in
  List.iter2 (fun want row -> Alcotest.(check string) "figure6 row" want (line row)) expected rows

(* ------------------------------------------------------------------ *)
(* CSR vs the Network accessors                                       *)
(* ------------------------------------------------------------------ *)

(* A node's neighbour row copied out through [Network.neighbor]. *)
let row net u = Array.init (Network.degree net u) (Network.neighbor net u)

let prop_csr_matches_accessors =
  QCheck.Test.make ~name:"network CSR rows equal degree/neighbor/iter_neighbors" ~count:40
    QCheck.(triple (int_range 2 192) (int_range 0 6) small_int)
    (fun (n, links, seed) ->
      let net = Network.build_ideal ~n ~links (Rng.of_int seed) in
      let c = Network.csr net in
      Csr.validate ~sorted:true c;
      let ok = ref true in
      for u = 0 to n - 1 do
        if Network.degree net u <> Csr.degree c u then ok := false;
        let from_csr = Array.init (Csr.degree c u) (Csr.nth c u) in
        if row net u <> from_csr then ok := false;
        let via_iter = ref [] in
        Network.iter_neighbors net u (fun v -> via_iter := v :: !via_iter);
        if Array.of_list (List.rev !via_iter) <> from_csr then ok := false
      done;
      !ok)

let prop_csr_roundtrip =
  QCheck.Test.make ~name:"Csr.of_rows rebuilds network rows byte-identically" ~count:40
    QCheck.(triple (int_range 2 128) (int_range 0 5) small_int)
    (fun (n, links, seed) ->
      let net = Network.build_ideal ~n ~links (Rng.of_int seed) in
      let rows = Array.init n (row net) in
      let c = Csr.of_rows rows in
      Csr.equal c (Network.csr net)
      && Csr.edge_count c = Array.fold_left (fun a r -> a + Array.length r) 0 rows)

(* ------------------------------------------------------------------ *)
(* Streaming construction: pinned digests                              *)
(* ------------------------------------------------------------------ *)

(* [Network.build_ideal] streams CSR rows straight into the builder. Its
   output is pinned as data: per (n, links, seed), an FNV-1a 64 digest of
   the CSR vectors (offsets, then targets, each int32 as 4 little-endian
   bytes) and, as a behavioural witness, a digest of the two-sided and
   one-sided route outcomes on 16 pairs drawn from [Rng.of_int (seed+1)].
   The values were recorded from the materialize-then-convert builder this
   streaming path replaced, which consumed the RNG in the same order. *)
let fnv_basis = 0xCBF29CE484222325L

let fnv_int h x =
  let h = ref h in
  for b = 0 to 3 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int ((x lsr (8 * b)) land 0xFF))) 0x100000001B3L
  done;
  !h

let fnv_vec h a =
  let module I32 = Ftr_graph.Adjacency.I32 in
  let h = ref h in
  for i = 0 to I32.length a - 1 do
    h := fnv_int !h (I32.get a i)
  done;
  !h

let csr_digest net =
  let { Csr.offsets; targets } = Network.csr net in
  fnv_vec (fnv_vec fnv_basis offsets) targets

let fnv_outcome h = function
  | Route.Delivered { hops } -> fnv_int (fnv_int h 0) hops
  | Route.Failed { hops; stuck_at; _ } -> fnv_int (fnv_int (fnv_int h 1) hops) stuck_at

let route_digest net ~n ~seed =
  let pair_rng = Rng.of_int (seed + 1) in
  let h = ref fnv_basis in
  for _ = 1 to 16 do
    let src = Rng.int pair_rng n and dst = Rng.int pair_rng n in
    List.iter
      (fun side -> h := fnv_outcome !h (Route.route ~side net ~src ~dst))
      [ Route.Two_sided; Route.One_sided ]
  done;
  !h

(* (n, links, seed, CSR digest, route-outcome digest). *)
let ideal_digests =
  [
    (2, 0, 0, 0xA909B37EE2C1AC77L, 0x0E6205E43C2AEA45L);
    (2, 3, 1, 0xB6D1039885C6F7F9L, 0x218EFD391D15D285L);
    (3, 1, 7, 0xE858EAA5FCE67C84L, 0x9CFF10A272F976A5L);
    (16, 0, 5, 0xF31EC858FF96F5FBL, 0x48BBA78C8991C845L);
    (17, 4, 42, 0xDD7D84B98F812DA2L, 0x12963947265B9905L);
    (64, 2, 3, 0x3F99036E2BD24138L, 0xB31653C7FE1FDB34L);
    (100, 8, 11, 0x2F22C8A6171D809AL, 0x13482B77339DAA12L);
    (128, 5, 99, 0xD4FD483695BF3E94L, 0x48CFDBC5EBE37514L);
    (200, 1, 2002, 0x870038034C808FE5L, 0x7EEBC56FEFF40369L);
    (256, 8, 3054, 0xDCF3C914D60CB051L, 0x2FF726B7711369ADL);
    (1000, 6, 17, 0xDEAAB9C50C1C204CL, 0xC4AD86A56813A03DL);
    (4096, 10, 1, 0x9BC2780ECD54D6BCL, 0x75E9C4B8FD4EDA86L);
  ]

let pinned_ideal_digests () =
  List.iter
    (fun (n, links, seed, csr_want, route_want) ->
      let net = Network.build_ideal ~n ~links (Rng.of_int seed) in
      let label what = Printf.sprintf "n=%d links=%d seed=%d %s" n links seed what in
      Alcotest.(check int64) (label "CSR digest") csr_want (csr_digest net);
      Alcotest.(check int64) (label "route digest") route_want (route_digest net ~n ~seed))
    ideal_digests

(* The route section of bench/main.ml as data. Its two streams share one
   network (n=8192, links=14, seed 0xF7A, built from the first split of
   [Rng.of_int seed], the 30% failure mask from the second) and draw
   2,000 pairs from [Rng.of_int (seed+77)]: any pair healthy, live pairs
   under the mask. The digests were recorded from the pre-refactor router
   (jagged rows, Hashtbl + List.mem exclusion, closure failure checks)
   that the section used to rebuild in-binary and agree with. *)
let bench_stream_digests =
  [
    ("healthy terminate", Route.Terminate, false, 0xFE83EC71D9EE25F7L);
    ("30% failed, backtrack 5", Route.Backtrack { history = 5 }, true, 0x6AAB29688D39A274L);
  ]

let pinned_bench_stream_digests () =
  let n = 8192 and seed = 0xF7A in
  let rng = Rng.of_int seed in
  let net = Network.build_ideal ~n ~links:14 (Rng.split rng) in
  let mask = Failure.random_node_fraction (Rng.split rng) ~n ~fraction:0.3 in
  List.iter
    (fun (label, strategy, faulty, want) ->
      let failures = if faulty then Failure.of_node_mask mask else Failure.none in
      let pair_rng = Rng.of_int (seed + 77) in
      let rec draw () =
        let v = Rng.int pair_rng n in
        if faulty && not (Ftr_graph.Bitset.get mask v) then draw () else v
      in
      let h = ref fnv_basis in
      for _ = 1 to 2_000 do
        (* The recorder drew each pair as a tuple, which OCaml evaluates
           right to left: destination first. *)
        let dst = draw () in
        let src = draw () in
        h := fnv_outcome !h (Route.route ~failures ~strategy net ~src ~dst)
      done;
      Alcotest.(check int64) label want !h)
    bench_stream_digests

(* ------------------------------------------------------------------ *)
(* Batch routing: jobs-invariance                                      *)
(* ------------------------------------------------------------------ *)

(* The batch layer's contract: the merged outcome vector is a pure
   function of (network, pairs, options) — never of the worker count or
   the scheduler. The reference is the plain sequential loop with the
   same per-index rng derivation. *)
let prop_batch_jobs_invariant =
  QCheck.Test.make ~name:"Route_batch merged outcomes invariant across jobs" ~count:12
    QCheck.(triple (int_range 16 192) (int_range 0 5) small_int)
    (fun (n, links, seed) ->
      let module Route_batch = Ftr_core.Route_batch in
      let module Seed = Ftr_exec.Seed in
      let rng = Rng.of_int seed in
      let net = Network.build_ideal ~n ~links rng in
      let mask = Failure.random_node_fraction rng ~n ~fraction:0.25 in
      let failures = Failure.of_node_mask mask in
      let alive = Ftr_graph.Bitset.get mask in
      let rec live () =
        let v = Rng.int rng n in
        if alive v then v else live ()
      in
      let pairs = Array.init 97 (fun _ -> (live (), live ())) in
      let strategy = Route.Random_reroute { attempts = 2 } in
      let reference =
        Array.mapi
          (fun i (src, dst) ->
            let rng = Seed.rng_for ~seed:11 ~index:i in
            Route.route ~failures ~strategy ~rng net ~src ~dst)
          pairs
      in
      let batch ~jobs =
        (* chunk 16 forces several chunks per job even at small counts. *)
        Route_batch.run ~jobs ~chunk:16 ~failures ~strategy ~seed:11 net ~pairs
      in
      List.for_all (fun jobs -> batch ~jobs = reference) [ 1; 2; 4 ]
      && Ftr_exec.Pool.with_sequential_forced true (fun () -> batch ~jobs:4 = reference))

(* ------------------------------------------------------------------ *)
(* Duplicate-entry policy (documented on Network.csr)                  *)
(* ------------------------------------------------------------------ *)

let sorted_row a =
  let ok = ref true in
  for k = 1 to Array.length a - 1 do
    if a.(k - 1) > a.(k) then ok := false
  done;
  !ok

let strictly_increasing_row a =
  let ok = ref true in
  for k = 1 to Array.length a - 1 do
    if a.(k - 1) >= a.(k) then ok := false
  done;
  !ok

let all_rows pred net =
  let ok = ref true in
  for u = 0 to Network.size net - 1 do
    if not (pred (row net u)) then ok := false
  done;
  !ok

let prop_duplicate_policy =
  QCheck.Test.make
    ~name:"duplicate policy: random builders sorted, structural builders duplicate-free"
    ~count:25
    QCheck.(pair (int_range 8 192) small_int)
    (fun (n, seed) ->
      let rng = Rng.of_int seed in
      (* Random builders: rows sorted non-decreasing; duplicates allowed
         (multiplicity is part of the sampled distribution). *)
      all_rows sorted_row (Network.build_ideal ~n ~links:4 rng)
      && all_rows sorted_row (Network.build_ring ~n ~links:3 rng)
      && all_rows sorted_row (Network.build_binomial ~n ~links:3 ~present_p:0.7 rng)
      (* Structural builders: strictly increasing — never a duplicate. *)
      && all_rows strictly_increasing_row (Network.build_deterministic ~n ~base:2)
      && all_rows strictly_increasing_row (Network.build_geometric ~n ~base:2)
      && all_rows strictly_increasing_row (Network.build_chordlike ~n ()))

(* A witness that the random builders really do keep duplicate entries
   rather than silently deduplicating: across a handful of seeds at
   least one ideal network must contain a duplicated row entry (several
   independent 1/d draws landing on the same near neighbour is near
   certain at this scale). *)
let random_builder_keeps_duplicates () =
  let found = ref false in
  for seed = 0 to 9 do
    let net = Network.build_ideal ~n:64 ~links:6 (Rng.of_int seed) in
    for u = 0 to 63 do
      for k = 1 to Network.degree net u - 1 do
        if Network.neighbor net u (k - 1) = Network.neighbor net u k then found := true
      done
    done
  done;
  Alcotest.(check bool) "some ideal network has a duplicate entry" true !found

(* ------------------------------------------------------------------ *)
(* Allocation behaviour                                                *)
(* ------------------------------------------------------------------ *)

(* With a reusable scratch, a route's minor-heap allocation is a small
   per-call constant (outcome record plus a few closures — measured at
   ~130 words) and independent of hop count: a 65535-hop route must stay
   under a bound two orders of magnitude below one word per hop. *)
let minor_words_independent_of_hops () =
  let n = 1 lsl 16 in
  (* links:0 leaves only immediate neighbours, so src=0 -> dst=n-1 walks
     every node: the longest route the line can produce. *)
  let net = Network.build_ideal ~n ~links:0 (Rng.of_int 1) in
  let scratch = Route.scratch net in
  (* Warmup sizes the scratch arrays; growth is a one-time cost. *)
  ignore (Route.route ~strategy:(Route.Backtrack { history = 5 }) ~scratch net ~src:0 ~dst:(n - 1));
  let measure f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let terminate =
    measure (fun () -> ignore (Route.route ~scratch net ~src:0 ~dst:(n - 1)))
  in
  let backtrack =
    measure (fun () ->
        ignore
          (Route.route ~strategy:(Route.Backtrack { history = 5 }) ~scratch net ~src:0 ~dst:(n - 1)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "terminate: %.0f minor words for %d hops" terminate (n - 1))
    true (terminate < 512.0);
  Alcotest.(check bool)
    (Printf.sprintf "backtrack: %.0f minor words for %d hops" backtrack (n - 1))
    true (backtrack < 512.0)

(* Steady state on the Figure 6 workload: mean minor words per message
   stays a small constant (the pre-refactor router allocated per hop —
   thousands of words on this grid). *)
let minor_words_steady_state () =
  let n = 4096 in
  let rng = Rng.of_int 9 in
  let net = Network.build_ideal ~n ~links:12 rng in
  let mask = Failure.random_node_fraction rng ~n ~fraction:0.3 in
  let failures = Failure.of_node_mask mask in
  let alive = Ftr_graph.Bitset.get mask in
  let scratch = Route.scratch net in
  let live () =
    let rec go () =
      let v = Rng.int rng n in
      if alive v then v else go ()
    in
    go ()
  in
  let run_messages count =
    for _ = 1 to count do
      let src = live () and dst = live () in
      ignore
        (Route.route ~failures ~strategy:(Route.Backtrack { history = 5 }) ~scratch net ~src ~dst)
    done
  in
  run_messages 50 (* warmup *);
  let w0 = Gc.minor_words () in
  let messages = 500 in
  run_messages messages;
  let per_message = (Gc.minor_words () -. w0) /. float_of_int messages in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per message" per_message)
    true (per_message < 1024.0)

let () =
  Alcotest.run "csr"
    [
      ( "golden",
        [
          Alcotest.test_case "route outcomes" `Quick golden_route_outcomes;
          Alcotest.test_case "route outcomes with shared scratch" `Quick
            golden_route_outcomes_with_scratch;
          Alcotest.test_case "figure6 fractions (bit-exact)" `Quick golden_figure6;
          Alcotest.test_case "build_ideal CSR and route digests" `Quick pinned_ideal_digests;
          Alcotest.test_case "bench route stream digests" `Quick pinned_bench_stream_digests;
        ] );
      ( "duplicates",
        [ Alcotest.test_case "random builders keep duplicates" `Quick random_builder_keeps_duplicates ]
      );
      ( "allocation",
        [
          Alcotest.test_case "minor words independent of hops" `Quick
            minor_words_independent_of_hops;
          Alcotest.test_case "minor words per message bounded" `Quick minor_words_steady_state;
        ] );
      ( "properties",
        List.map (fun p -> QCheck_alcotest.to_alcotest p)
          [
            prop_csr_matches_accessors;
            prop_csr_roundtrip;
            prop_batch_jobs_invariant;
            prop_duplicate_policy;
          ] );
    ]
