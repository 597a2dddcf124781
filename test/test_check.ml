(* ftr-lint: disable-file T3 test assertions compare small concrete values; the comparator rules target runtime code *)
(* The sanitizer must stay quiet on healthy structures and loud on broken
   ones. Healthy halves are qcheck properties over the real builders and
   router; the loud halves inject specific corruptions — a missing ring
   link, an overshooting one-sided hop, a heap whose order flipped — and
   assert the report names the culprit node/hop. *)

module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Failure = Ftr_core.Failure
module Snapshot = Ftr_core.Snapshot
module Rng = Ftr_prng.Rng
module Heap = Ftr_sim.Heap
module Engine = Ftr_sim.Engine
module Overlay = Ftr_p2p.Overlay
module Check = Ftr_check.Check

let pp_first vs =
  match vs with
  | [] -> "no violations"
  | v :: _ -> Format.asprintf "%a" Check.pp_violation v

let expect_clean label vs =
  if vs <> [] then
    Alcotest.failf "%s: %d unexpected violation(s); first: %s" label (List.length vs)
      (pp_first vs)

let find_code code vs = List.find_opt (fun (v : Check.violation) -> v.Check.code = code) vs

let expect_code label code vs =
  match find_code code vs with
  | Some v -> v
  | None ->
      Alcotest.failf "%s: expected a %s violation, got %d other(s); first: %s" label code
        (List.length vs) (pp_first vs)

(* Corruption constructors must not trip the in-path FTR_CHECK hooks when
   the suite runs with the flag exported; build them with the mode off. *)
let quietly f = Ftr_debug.Debug.with_mode false f

(* A clean line network where every node links only to its ring
   neighbours, with one optional extra directed link. *)
let line_net ?broken_at ?extra n =
  let neighbors =
    Array.init n (fun i ->
        let ring =
          (if i > 0 then [ i - 1 ] else []) @ if i < n - 1 then [ i + 1 ] else []
        in
        let ring =
          match broken_at with
          | Some (src, dst) when src = i -> List.filter (fun j -> j <> dst) ring
          | _ -> ring
        in
        let ring =
          match extra with Some (src, dst) when src = i -> dst :: ring | _ -> ring
        in
        let arr = Array.of_list ring in
        Array.sort compare arr;
        arr)
  in
  Network.of_neighbor_indices ~line_size:n
    ~positions:(Array.init n (fun i -> i))
    ~neighbors ~links:0 ()

(* ------------------------------------------------------------------ *)
(* Injected corruptions                                                *)
(* ------------------------------------------------------------------ *)

let broken_ring_detected () =
  (* Node 5 forgets its short link to node 6. *)
  let net = quietly (fun () -> line_net ~broken_at:(5, 6) 8) in
  let v = expect_code "broken ring" "net.ring-broken" (Check.network net) in
  Alcotest.(check string) "names the culprit node" "node 5" v.Check.subject

let overshoot_detected () =
  (* Node 2 holds a long link to 7; hopping 2->7 toward target 5 passes
     the target, which one-sided routing must never do. *)
  let net = quietly (fun () -> line_net ~extra:(2, 7) 10) in
  let path = [ 2; 7 ] in
  let outcome = Route.Failed { hops = 1; stuck_at = 7; reason = Route.No_live_neighbor } in
  let vs = Check.trace ~side:Route.One_sided net ~src:2 ~dst:5 ~outcome ~path in
  let v = expect_code "overshoot" "trace.overshoot" vs in
  Alcotest.(check string) "names the culprit hop" "hop 1 (2->7)" v.Check.subject

let heap_order_detected () =
  (* Flip the comparison under the heap's feet: the layout built under the
     old order is (with overwhelming probability) not a heap under the new
     one, exactly what a buggy sift would produce. *)
  let flipped = ref false in
  let h =
    Heap.create ~compare:(fun (a : int) b -> if !flipped then compare b a else compare a b)
  in
  for i = 1 to 32 do
    Heap.push h i
  done;
  expect_clean "healthy heap" (Check.heap h);
  flipped := true;
  let v = expect_code "flipped heap" "heap.order" (Check.heap h) in
  Alcotest.(check bool) "names a slot" true
    (String.length v.Check.subject > 0
    && String.sub v.Check.subject 0 (min 9 (String.length v.Check.subject)) = "heap slot")

let hop_count_mismatch_detected () =
  let net = quietly (fun () -> line_net 6) in
  let outcome = Route.Delivered { hops = 3 } in
  let vs = Check.trace net ~src:0 ~dst:1 ~outcome ~path:[ 0; 1 ] in
  ignore (expect_code "hop accounting" "trace.hop-count" vs)

let crash_breaks_strict_ring () =
  (* An unrepaired crash leaves the neighbours pointing at the dead node:
     the quiescent-ring check must notice the basin is stale. *)
  let engine = Engine.create () in
  let rng = Rng.of_int 11 in
  let ov = Overlay.create ~line_size:64 ~links:2 ~rng engine in
  Overlay.populate ov ~positions:[ 4; 12; 20; 28; 36; 44 ];
  expect_clean "fresh overlay" (Check.overlay ~strict_ring:true ov);
  Overlay.crash ov ~pos:20;
  ignore (expect_code "stale ring" "overlay.basin" (Check.overlay ~strict_ring:true ov))

(* ------------------------------------------------------------------ *)
(* Healthy structures stay quiet (properties)                          *)
(* ------------------------------------------------------------------ *)

let prop_ideal_networks_pass =
  QCheck.Test.make ~name:"random ideal networks pass Check.network" ~count:40
    QCheck.(triple (int_range 2 256) (int_range 0 6) small_int)
    (fun (n, links, seed) ->
      let net = Network.build_ideal ~n ~links (Rng.of_int seed) in
      Check.network ~expected_links:links net = [])

let prop_ring_networks_pass =
  QCheck.Test.make ~name:"random ring networks pass Check.network" ~count:40
    QCheck.(triple (int_range 3 256) (int_range 0 6) small_int)
    (fun (n, links, seed) ->
      let net = Network.build_ring ~n ~links (Rng.of_int seed) in
      Check.network net = [])

let prop_routes_pass =
  QCheck.Test.make ~name:"random routes pass Check.trace" ~count:60
    QCheck.(triple (int_range 8 256) (int_range 0 5) small_int)
    (fun (n, links, seed) ->
      let rng = Rng.of_int seed in
      let net = Network.build_ideal ~n ~links rng in
      let src = Rng.int rng n and dst = Rng.int rng n in
      let side = if seed mod 2 = 0 then Route.Two_sided else Route.One_sided in
      let _, vs = Check.route_and_check ~side ~rng net ~src ~dst in
      vs = [])

let prop_backtrack_routes_pass =
  QCheck.Test.make ~name:"backtracking under failures passes Check.trace" ~count:40
    QCheck.(pair (int_range 32 256) small_int)
    (fun (n, seed) ->
      let rng = Rng.of_int seed in
      let net = Network.build_ideal ~n ~links:3 rng in
      let mask = Failure.random_node_fraction rng ~n ~fraction:0.2 in
      let failures = Failure.of_node_mask mask in
      let src = Rng.int rng n and dst = Rng.int rng n in
      if Failure.node_alive failures src && Failure.node_alive failures dst then begin
        let _, vs =
          Check.route_and_check ~failures ~strategy:(Route.Backtrack { history = 4 }) ~rng net
            ~src ~dst
        in
        vs = []
      end
      else QCheck.assume_fail ())

let prop_heap_stays_wellformed =
  QCheck.Test.make ~name:"random push/pop sequences keep the heap well-formed" ~count:80
    QCheck.(pair (list_of_size Gen.(int_range 1 64) int) (int_range 0 32))
    (fun (xs, pops) ->
      let h = Heap.create ~compare:(fun (a : int) b -> compare a b) in
      List.iter (Heap.push h) xs;
      for _ = 1 to pops do
        ignore (Heap.pop h)
      done;
      Check.heap h = [])

let prop_snapshot_roundtrip_preserves_invariants =
  QCheck.Test.make ~name:"Snapshot roundtrip preserves networks and their invariants" ~count:40
    QCheck.(triple (int_range 2 128) (int_range 0 5) small_int)
    (fun (n, links, seed) ->
      let net = Network.build_ideal ~n ~links (Rng.of_int seed) in
      let path = Filename.temp_file "ftr_check_test" ".ftrsnap" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Snapshot.save net ~path;
      let restored = Snapshot.load ~path () in
      Network.equal net restored
      && Check.network ~expected_links:links restored = [])

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "check"
    [
      ( "corruptions",
        [
          quick "a broken ring link is flagged with its node" broken_ring_detected;
          quick "an overshooting one-sided hop is flagged with its hop" overshoot_detected;
          quick "a heap order violation is flagged with its slot" heap_order_detected;
          quick "hop accounting mismatches are flagged" hop_count_mismatch_detected;
          quick "an unrepaired crash breaks the strict ring" crash_breaks_strict_ring;
        ] );
      ( "properties",
        List.map
          (fun p -> QCheck_alcotest.to_alcotest p)
          [
            prop_ideal_networks_pass;
            prop_ring_networks_pass;
            prop_routes_pass;
            prop_backtrack_routes_pass;
            prop_heap_stays_wellformed;
            prop_snapshot_roundtrip_preserves_invariants;
          ] );
    ]
