module Engine = Ftr_sim.Engine
module Overlay = Ftr_p2p.Overlay
module Churn = Ftr_p2p.Churn
module Actor = Ftr_p2p.Actor
module Rng = Ftr_prng.Rng
module Tracing = Ftr_obs.Tracing

let make ?(line_size = 256) ?(links = 6) ?(seed = 5) () =
  let engine = Engine.create () in
  let overlay = Overlay.create ~line_size ~links ~rng:(Rng.of_int seed) engine in
  (engine, overlay)

let populate_evenly overlay ~line_size ~count =
  Overlay.populate overlay ~positions:(List.init count (fun i -> i * line_size / count))

(* ------------------------------------------------------------------ *)
(* Static overlay                                                      *)
(* ------------------------------------------------------------------ *)

let populate_counts () =
  let _, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:32;
  Alcotest.(check int) "node count" 32 (Overlay.node_count overlay);
  Alcotest.(check int) "positions listed" 32 (List.length (Overlay.live_positions overlay));
  Alcotest.(check bool) "alive" true (Overlay.is_alive overlay 0);
  Alcotest.(check bool) "vacant" false (Overlay.is_alive overlay 1)

(* The boot sampler snaps to the positions being populated and to no
   others, so a second population, or one after a bootstrap, is refused. *)
let populate_refuses_nonempty () =
  let refused = Invalid_argument "Overlay.populate: the overlay already holds nodes" in
  let _, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:8;
  Alcotest.check_raises "populated twice" refused (fun () ->
      Overlay.populate overlay ~positions:[ 3; 100 ]);
  let _, overlay = make () in
  ignore (Overlay.bootstrap_node overlay ~pos:5);
  Alcotest.check_raises "populated after a bootstrap" refused (fun () ->
      Overlay.populate overlay ~positions:[ 3; 100 ]);
  Alcotest.(check int) "nothing registered by the refusal" 1 (Overlay.node_count overlay)

let lookup_resolves_to_basin_owner () =
  let engine, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:32;
  (* Nodes at multiples of 8; target 13 is owned by 16 (|16-13| < |8-13|)
     unless greedy stops earlier — ownership means no live node closer. *)
  let result = ref None in
  Overlay.lookup overlay ~from:0 ~target:13
    ~callback:(fun ~owner ~hops:_ -> result := Some owner)
    ();
  Engine.run engine;
  (match !result with
  | Some owner -> Alcotest.(check bool) "owner adjacent to target" true (abs (owner - 13) <= 5)
  | None -> Alcotest.fail "lookup did not resolve");
  let s = Overlay.stats overlay in
  Alcotest.(check int) "one success" 1 s.Overlay.lookups_ok;
  Alcotest.(check int) "no failures" 0 s.Overlay.lookups_failed

let lookup_for_own_position () =
  let engine, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:32;
  let result = ref None in
  Overlay.lookup overlay ~from:8 ~target:8 ~callback:(fun ~owner ~hops -> result := Some (owner, hops)) ();
  Engine.run engine;
  Alcotest.(check (option (pair int int))) "resolves locally" (Some (8, 0)) !result

let lookups_all_succeed_statically () =
  let engine, overlay = make ~line_size:1024 ~links:8 () in
  populate_evenly overlay ~line_size:1024 ~count:128;
  let r = Rng.of_int 77 in
  for _ = 1 to 100 do
    let positions = Array.of_list (Overlay.live_positions overlay) in
    let from = positions.(Rng.int r (Array.length positions)) in
    Overlay.lookup overlay ~from ~target:(Rng.int r 1024) ()
  done;
  Engine.run engine;
  let s = Overlay.stats overlay in
  Alcotest.(check int) "all resolved" 100 s.Overlay.lookups_ok;
  Alcotest.(check int) "none failed" 0 s.Overlay.lookups_failed

let lookup_ttl_limits () =
  (* A tiny TTL makes distant lookups fail instead of looping. *)
  let engine = Engine.create () in
  let overlay = Overlay.create ~ttl:2 ~line_size:1024 ~links:1 ~rng:(Rng.of_int 60) engine in
  populate_evenly overlay ~line_size:1024 ~count:128;
  for _ = 1 to 40 do
    Overlay.lookup overlay ~from:0 ~target:1000 ()
  done;
  Engine.run engine;
  let s = Overlay.stats overlay in
  Alcotest.(check int) "all resolved one way" 40 (s.Overlay.lookups_ok + s.Overlay.lookups_failed);
  Alcotest.(check bool)
    (Printf.sprintf "ttl killed most (%d failed)" s.Overlay.lookups_failed)
    true
    (s.Overlay.lookups_failed > 30)

let lookup_rejects_dead_source () =
  let _, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:8;
  Alcotest.check_raises "dead source"
    (Invalid_argument "Overlay.lookup: source is not a live node") (fun () ->
      Overlay.lookup overlay ~from:3 ~target:10 ())

(* ------------------------------------------------------------------ *)
(* Join                                                                *)
(* ------------------------------------------------------------------ *)

let join_inserts_into_ring () =
  let engine, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:16;
  Overlay.join overlay ~pos:100 ~via:0;
  Engine.run engine;
  Alcotest.(check bool) "joined" true (Overlay.is_alive overlay 100);
  Alcotest.(check int) "population grew" 17 (Overlay.node_count overlay)

let joined_node_is_lookup_target () =
  let engine, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:16;
  Overlay.join overlay ~pos:101 ~via:0;
  Engine.run engine;
  (* A lookup for the new node's position must now resolve to it. *)
  let result = ref None in
  Overlay.lookup overlay ~from:0 ~target:101 ~callback:(fun ~owner ~hops:_ -> result := Some owner) ();
  Engine.run engine;
  Alcotest.(check (option int)) "new node owns its point" (Some 101) !result

let joined_node_can_look_up () =
  let engine, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:16;
  Overlay.join overlay ~pos:77 ~via:0;
  Engine.run engine;
  let result = ref None in
  Overlay.lookup overlay ~from:77 ~target:240 ~callback:(fun ~owner ~hops:_ -> result := Some owner) ();
  Engine.run engine;
  Alcotest.(check bool) "resolved" true (Option.is_some !result)

let join_occupied_rejected () =
  let _, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:16;
  Alcotest.check_raises "occupied" (Invalid_argument "Overlay.join: position occupied")
    (fun () -> Overlay.join overlay ~pos:0 ~via:16)

let many_joins_build_network () =
  let engine, overlay = make ~line_size:512 ~links:4 ~seed:8 () in
  ignore (Overlay.bootstrap_node overlay ~pos:0);
  ignore (Overlay.bootstrap_node overlay ~pos:256);
  (* Wire the two seeds by hand via populate-like ring: joining does it. *)
  let r = Rng.of_int 9 in
  let joined = ref 2 in
  for _ = 1 to 60 do
    let pos = Rng.int r 512 in
    if not (Overlay.is_alive overlay pos) then begin
      Overlay.join overlay ~pos ~via:0;
      incr joined;
      Engine.run engine
    end
  done;
  Alcotest.(check int) "all joins survived" !joined (Overlay.node_count overlay);
  (* The grown network routes. *)
  let ok = ref 0 in
  let positions = Array.of_list (Overlay.live_positions overlay) in
  for _ = 1 to 50 do
    let from = positions.(Rng.int r (Array.length positions)) in
    Overlay.lookup overlay ~from ~target:(Rng.int r 512)
      ~callback:(fun ~owner:_ ~hops:_ -> incr ok)
      ()
  done;
  Engine.run engine;
  Alcotest.(check int) "all post-join lookups succeed" 50 !ok

(* ------------------------------------------------------------------ *)
(* Failures and self-healing                                           *)
(* ------------------------------------------------------------------ *)

let crash_then_lookup_self_heals () =
  let engine, overlay = make ~line_size:1024 ~links:8 () in
  populate_evenly overlay ~line_size:1024 ~count:128;
  (* Crash a band of nodes. *)
  let r = Rng.of_int 13 in
  let victims = ref 0 in
  List.iter
    (fun pos ->
      if Rng.bernoulli r 0.25 && Overlay.node_count overlay > 8 then begin
        Overlay.crash overlay ~pos;
        incr victims
      end)
    (Overlay.live_positions overlay);
  Alcotest.(check bool) "some victims" true (!victims > 0);
  (* Lookups still resolve (possibly after repairs). *)
  let positions = Array.of_list (Overlay.live_positions overlay) in
  for _ = 1 to 80 do
    let from = positions.(Rng.int r (Array.length positions)) in
    Overlay.lookup overlay ~from ~target:(Rng.int r 1024) ()
  done;
  Engine.run engine;
  let s = Overlay.stats overlay in
  Alcotest.(check int) "all resolved" 80 (s.Overlay.lookups_ok + s.Overlay.lookups_failed);
  Alcotest.(check bool)
    (Printf.sprintf "most lookups survive (%d ok)" s.Overlay.lookups_ok)
    true
    (s.Overlay.lookups_ok >= 72);
  Alcotest.(check bool) "repairs happened" true (s.Overlay.repairs > 0)

let leave_splices_ring () =
  let engine, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:16;
  Overlay.leave overlay ~pos:16;
  Alcotest.(check bool) "gone" false (Overlay.is_alive overlay 16);
  (* Routing across the gap still works without probes. *)
  Overlay.lookup overlay ~from:0 ~target:32 ();
  Engine.run engine;
  let s = Overlay.stats overlay in
  Alcotest.(check int) "resolved" 1 s.Overlay.lookups_ok

let crash_is_idempotent () =
  let _, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:8;
  Overlay.crash overlay ~pos:0;
  Overlay.crash overlay ~pos:0;
  let s = Overlay.stats overlay in
  Alcotest.(check int) "one crash" 1 s.Overlay.crashes

(* ------------------------------------------------------------------ *)
(* The dead-carrier rule on the engine transport                       *)
(* ------------------------------------------------------------------ *)

let conserved (s : Overlay.stats) =
  s.Overlay.lookups_issued = s.Overlay.lookups_ok + s.Overlay.lookups_failed

let view_of overlay pos =
  let found = ref None in
  Overlay.iter_nodes overlay (fun v -> if v.Overlay.view_pos = pos then found := Some v);
  match !found with Some v -> v | None -> Alcotest.failf "no node at %d" pos

let neighbours_of overlay pos =
  let v = view_of overlay pos in
  Option.to_list v.Overlay.view_left
  @ Option.to_list v.Overlay.view_right
  @ Array.to_list v.Overlay.view_long

(* A lookup from 0 for point 200 (constant latency 1.0), with the first
   hop's node crashed while the message is on the wire to it. *)
let lookup_into_crash ?callback ~seed () =
  let engine = Engine.create () in
  let overlay =
    Overlay.create ~regenerate:false ~line_size:256 ~links:4 ~rng:(Rng.of_int seed) engine
  in
  populate_evenly overlay ~line_size:256 ~count:32;
  let next =
    let v = view_of overlay 0 in
    match
      Actor.best_candidate ~pos:0 ~target:200
        ~left:(Actor.pointer v.Overlay.view_left)
        ~right:(Actor.pointer v.Overlay.view_right) ~long:v.Overlay.view_long
        ~n_long:(Array.length v.Overlay.view_long)
    with
    | -1 -> Alcotest.fail "the lookup would resolve at its origin"
    | next -> next
  in
  Overlay.lookup overlay ~from:0 ~target:200 ?callback ();
  Overlay.crash overlay ~pos:next;
  (engine, overlay, next)

let in_flight_crash_bounces () =
  let result = ref None in
  let engine, overlay, next =
    lookup_into_crash ~seed:31 ~callback:(fun ~owner ~hops:_ -> result := Some owner) ()
  in
  Engine.run engine;
  let s = Overlay.stats overlay in
  (match !result with
  | Some owner ->
      Alcotest.(check bool) "delivered to a live owner" true
        (owner <> next && Overlay.is_alive overlay owner)
  | None -> Alcotest.fail "the bounced lookup was not delivered");
  Alcotest.(check bool) "the origin repaired its link" false (List.mem next (neighbours_of overlay 0));
  Alcotest.(check bool) "repair counted" true (s.Overlay.repairs > 0);
  Alcotest.(check bool) "issued = ok + failed" true (conserved s)

let bounce_to_dead_origin_fails () =
  Ftr_obs.Flag.with_mode true @@ fun () ->
  Tracing.reset ();
  let engine, overlay, _ = lookup_into_crash ~seed:32 () in
  (* The lookup reaches the dead hop at t=1 and bounces; its origin dies
     before the bounce lands at t=2. *)
  Engine.run ~until:1.5 engine;
  Overlay.crash overlay ~pos:0;
  Engine.run engine;
  let s = Overlay.stats overlay in
  Alcotest.(check int) "one failure" 1 s.Overlay.lookups_failed;
  Alcotest.(check bool) "issued = ok + failed" true (conserved s);
  match Tracing.pinned_traces () with
  | [ { Tracing.status = Tracing.Done_failed { reason; stuck_at; _ }; _ } ] ->
      Alcotest.(check string) "reason" "origin_died" reason;
      Alcotest.(check int) "stuck at the origin" 0 stuck_at
  | trs -> Alcotest.failf "expected one failed trace, got %d" (List.length trs)

(* ------------------------------------------------------------------ *)
(* Asynchrony                                                          *)
(* ------------------------------------------------------------------ *)

let jittered_latency_still_resolves () =
  (* The protocol's conclusions must not depend on synchrony: under
     heavy-tailed per-message delays, lookups still all resolve. *)
  let engine = Engine.create () in
  let overlay =
    Overlay.create
      ~latency_model:(Ftr_sim.Latency.exponential ~mean:1.0)
      ~line_size:1024 ~links:8 ~rng:(Rng.of_int 90) engine
  in
  populate_evenly overlay ~line_size:1024 ~count:128;
  let r = Rng.of_int 91 in
  for _ = 1 to 100 do
    let positions = Array.of_list (Overlay.live_positions overlay) in
    let from = positions.(Rng.int r (Array.length positions)) in
    Overlay.lookup overlay ~from ~target:(Rng.int r 1024) ()
  done;
  Engine.run engine;
  let s = Overlay.stats overlay in
  Alcotest.(check int) "all resolved under jitter" 100 s.Overlay.lookups_ok;
  Alcotest.(check bool) "virtual time advanced irregularly" true (Engine.now engine > 0.0)

let jittered_join_works () =
  let engine = Engine.create () in
  let overlay =
    Overlay.create
      ~latency_model:(Ftr_sim.Latency.uniform ~lo:0.5 ~hi:2.0)
      ~line_size:512 ~links:6 ~rng:(Rng.of_int 92) engine
  in
  populate_evenly overlay ~line_size:512 ~count:32;
  Overlay.join overlay ~pos:101 ~via:0;
  Engine.run engine;
  Alcotest.(check bool) "joined under jitter" true (Overlay.is_alive overlay 101);
  let found = ref None in
  Overlay.lookup overlay ~from:0 ~target:101 ~callback:(fun ~owner ~hops:_ -> found := Some owner) ();
  Engine.run engine;
  Alcotest.(check (option int)) "lookup finds it" (Some 101) !found

(* ------------------------------------------------------------------ *)
(* Stabilization                                                       *)
(* ------------------------------------------------------------------ *)

let stabilization_heals_idle_overlay () =
  let engine, overlay = make ~line_size:1024 ~links:8 ~seed:50 () in
  populate_evenly overlay ~line_size:1024 ~count:128;
  (* Crash a quarter of the nodes with NO lookup traffic at all. *)
  let r = Rng.of_int 51 in
  List.iter
    (fun pos ->
      if Rng.bernoulli r 0.25 && Overlay.node_count overlay > 16 then
        Overlay.crash overlay ~pos)
    (Overlay.live_positions overlay);
  (* Background stabilization runs alone for a while. *)
  Overlay.enable_stabilization ~period:5.0 ~checks_per_tick:32 ~until:2000.0 overlay;
  Engine.run ~until:2000.0 engine;
  let s = Overlay.stats overlay in
  Alcotest.(check bool)
    (Printf.sprintf "repairs happened (%d)" s.Overlay.repairs)
    true (s.Overlay.repairs > 0);
  Alcotest.(check bool) "probes paid" true (s.Overlay.probes > 0);
  (* The healed overlay routes cleanly. *)
  let positions = Array.of_list (Overlay.live_positions overlay) in
  for _ = 1 to 60 do
    let from = positions.(Rng.int r (Array.length positions)) in
    Overlay.lookup overlay ~from ~target:(Rng.int r 1024) ()
  done;
  Engine.run engine;
  Alcotest.(check int) "all lookups succeed after healing" 60 s.Overlay.lookups_ok

let stabilization_stops_at_horizon () =
  let engine, overlay = make ~seed:52 () in
  populate_evenly overlay ~line_size:256 ~count:16;
  Overlay.enable_stabilization ~period:1.0 ~until:50.0 overlay;
  Engine.run engine;
  (* The engine drains: no perpetual timer survives the horizon. *)
  Alcotest.(check int) "queue empty" 0 (Engine.pending_events engine);
  Alcotest.(check bool) "clock stopped near horizon" true (Engine.now engine <= 51.0)

let stabilization_rejects_bad_config () =
  let _, overlay = make ~seed:53 () in
  Alcotest.check_raises "bad period"
    (Invalid_argument "Overlay.enable_stabilization: period must be positive") (fun () ->
      Overlay.enable_stabilization ~period:0.0 ~until:10.0 overlay)

(* ------------------------------------------------------------------ *)
(* Join cost                                                           *)
(* ------------------------------------------------------------------ *)

let join_cost_grows_slowly () =
  let rows = Churn.join_cost ~links:6 ~joins:30 ~line_sizes:[ 512; 4096 ] () in
  match rows with
  | [ small; large ] ->
      Alcotest.(check bool) "positive cost" true (small.Churn.mean_messages_per_join > 0.0);
      (* 8x the network must cost far less than 8x the messages —
         logarithmic growth means roughly +30-60%. *)
      Alcotest.(check bool)
        (Printf.sprintf "messages/join: %.1f -> %.1f" small.Churn.mean_messages_per_join
           large.Churn.mean_messages_per_join)
        true
        (large.Churn.mean_messages_per_join < 3.0 *. small.Churn.mean_messages_per_join);
      (* Lookups per join are ~1 + links + Poisson(links), independent of n. *)
      Alcotest.(check bool) "lookups/join flat" true
        (abs_float (large.Churn.mean_lookups_per_join -. small.Churn.mean_lookups_per_join)
        < 4.0)
  | _ -> Alcotest.fail "expected two rows"

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

module Recovery = Ftr_p2p.Recovery

let recovery_run () =
  Recovery.run ~line_size:2048 ~kill_fraction:0.3 ~period:10.0 ~checks_per_tick:16 ~samples:8
    ~probes_per_sample:80 ~seed:70 ()

let recovery_burden_decays () =
  let r = recovery_run () in
  match (r.Recovery.samples, List.rev r.Recovery.samples) with
  | first :: _, last :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "probes/lookup %.2f -> %.2f" first.Recovery.probes_per_lookup
           last.Recovery.probes_per_lookup)
        true
        (last.Recovery.probes_per_lookup < first.Recovery.probes_per_lookup /. 2.0);
      Alcotest.(check bool) "repairs accumulate" true
        (last.Recovery.repairs_so_far > first.Recovery.repairs_so_far)
  | _ -> Alcotest.fail "no samples recorded"

let recovery_success_holds () =
  let r = recovery_run () in
  Alcotest.(check int) "all samples recorded" 8 (List.length r.Recovery.samples);
  Alcotest.(check bool) "a real wound" true (r.Recovery.killed > 30);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "t=%.0f success %.3f" s.Recovery.time s.Recovery.success_rate)
        true
        (s.Recovery.success_rate > 0.95))
    r.Recovery.samples

let churn_sweep_healthy () =
  let rows =
    Recovery.churn_sweep ~line_size:1024 ~duration:300.0 ~rates:[ 0.05; 0.5 ] ~seed:71 ()
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "healthy lookups" true
        (row.Recovery.report.Churn.success_rate > 0.95))
    rows;
  match rows with
  | [ calm; stormy ] ->
      Alcotest.(check bool) "more churn, more repairs" true
        (stormy.Recovery.report.Churn.repairs >= calm.Recovery.report.Churn.repairs)
  | _ -> Alcotest.fail "expected two rows"

let recovery_rejects () =
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Recovery.run: kill_fraction must be in [0,1)") (fun () ->
      ignore (Recovery.run ~kill_fraction:1.0 ()))

(* ------------------------------------------------------------------ *)
(* Churn                                                               *)
(* ------------------------------------------------------------------ *)

let churn_run_reports () =
  let report =
    Churn.run
      ~config:
        {
          Churn.duration = 300.0;
          join_rate = 0.05;
          crash_rate = 0.02;
          leave_rate = 0.02;
          lookup_rate = 0.5;
          min_nodes = 8;
        }
      ~seed:21 ~line_size:512 ~initial_nodes:64 ~links:6 ()
  in
  Alcotest.(check bool) "lookups issued" true (report.Churn.lookups_issued > 50);
  Alcotest.(check bool)
    (Printf.sprintf "high success rate %.3f" report.Churn.success_rate)
    true
    (report.Churn.success_rate > 0.9);
  Alcotest.(check bool) "population survived" true (report.Churn.final_nodes >= 8);
  Alcotest.(check bool) "messages flowed" true (report.Churn.messages > 0)

let churn_deterministic_by_seed () =
  let run () =
    Churn.run
      ~config:
        {
          Churn.duration = 100.0;
          join_rate = 0.1;
          crash_rate = 0.05;
          leave_rate = 0.0;
          lookup_rate = 1.0;
          min_nodes = 4;
        }
      ~seed:33 ~line_size:256 ~initial_nodes:32 ~links:4 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same lookups" a.Churn.lookups_issued b.Churn.lookups_issued;
  Alcotest.(check int) "same successes" a.Churn.lookups_ok b.Churn.lookups_ok;
  Alcotest.(check int) "same messages" a.Churn.messages b.Churn.messages;
  Alcotest.(check int) "same population" a.Churn.final_nodes b.Churn.final_nodes

let churn_respects_min_nodes () =
  let report =
    Churn.run
      ~config:
        {
          Churn.duration = 500.0;
          join_rate = 0.0;
          crash_rate = 0.5;
          leave_rate = 0.5;
          lookup_rate = 0.1;
          min_nodes = 10;
        }
      ~seed:44 ~line_size:256 ~initial_nodes:32 ~links:4 ()
  in
  Alcotest.(check bool) "floor held" true (report.Churn.final_nodes >= 10)

let churn_rejects_bad_setup () =
  Alcotest.check_raises "too few nodes"
    (Invalid_argument "Churn.run: need at least two initial nodes") (fun () ->
      ignore (Churn.run ~line_size:64 ~initial_nodes:1 ~links:2 ()))

(* ------------------------------------------------------------------ *)
(* Random operation sequences (state-machine property)                 *)
(* ------------------------------------------------------------------ *)

type op = Join | Crash | Leave | Lookup

let op_gen =
  QCheck.Gen.frequency
    [ (2, QCheck.Gen.return Join); (1, QCheck.Gen.return Crash); (1, QCheck.Gen.return Leave);
      (4, QCheck.Gen.return Lookup) ]

let prop_random_operations_preserve_invariants =
  QCheck.Test.make ~name:"random op sequences keep the protocol consistent" ~count:25
    QCheck.(make (Gen.pair Gen.small_int (Gen.list_size (Gen.int_range 5 60) op_gen)))
    (fun (seed, ops) ->
      let line_size = 512 in
      let engine = Engine.create () in
      let overlay = Overlay.create ~line_size ~links:4 ~rng:(Rng.of_int seed) engine in
      Overlay.populate overlay ~positions:(List.init 32 (fun i -> i * 16));
      let r = Rng.of_int (seed + 1) in
      let expected = ref 32 in
      let protocol_joins = ref 0 in
      List.iter
        (fun op ->
          (match op with
          | Join ->
              let pos = Rng.int r line_size in
              let vias = Array.of_list (Overlay.live_positions overlay) in
              if (not (Overlay.is_alive overlay pos)) && Array.length vias > 0 then begin
                Overlay.join overlay ~pos ~via:(Rng.pick r vias);
                incr expected;
                incr protocol_joins
              end
          | Crash ->
              if Overlay.node_count overlay > 4 then begin
                let victims = Array.of_list (Overlay.live_positions overlay) in
                Overlay.crash overlay ~pos:(Rng.pick r victims);
                decr expected
              end
          | Leave ->
              if Overlay.node_count overlay > 4 then begin
                let victims = Array.of_list (Overlay.live_positions overlay) in
                Overlay.leave overlay ~pos:(Rng.pick r victims);
                decr expected
              end
          | Lookup ->
              let sources = Array.of_list (Overlay.live_positions overlay) in
              if Array.length sources > 0 then
                Overlay.lookup overlay ~from:(Rng.pick r sources) ~target:(Rng.int r line_size)
                  ());
          (* Let each operation's traffic settle before the next, as a
             sequential client would. *)
          Engine.run engine)
        ops;
      Engine.run engine;
      let s = Overlay.stats overlay in
      (* Invariants: population accounting exact; every user lookup
         resolved one way or the other; no queued events left; the
         sanitizer finds nothing. *)
      Overlay.node_count overlay = !expected
      && List.is_empty (Ftr_check.Check.overlay overlay)
      && s.Overlay.lookups_ok + s.Overlay.lookups_failed = s.Overlay.lookups_issued
      (* Each protocol join issues at least its placement lookup (the 32
         populate bootstraps issue none). *)
      && s.Overlay.maintenance_issued >= !protocol_joins
      && Engine.pending_events engine = 0)

(* The packed-key neighbour choice against a list-based min-scan oracle
   over (distance, position) pairs: over every neighbour that advances,
   the minimal pair, or -1 when none does. Points come from the largest
   line the transports accept, in one of three ways per case: all from
   [0, 24], so ties in distance, duplicate links and a neighbour at the
   node itself all occur; all from the line's last 25 points, where a
   key's position half is widest; or each from either of those or the
   whole line, so distances reach the line's length. Each of left, right
   and long may be empty. *)
let prop_best_candidate_matches_oracle =
  let top = Actor.max_line_size - 1 in
  let small = QCheck.Gen.int_bound 24 and far = QCheck.Gen.int_range (top - 24) top in
  let mixed = QCheck.Gen.(oneof [ small; far; int_bound top ]) in
  let case p = QCheck.Gen.(quad (pair p p) (opt p) (opt p) (list_size (int_bound 6) p)) in
  QCheck.Test.make ~name:"neighbour choice equals the list min-scan" ~count:1000
    QCheck.(make Gen.(oneof [ case small; case far; case mixed ]))
    (fun ((pos, target), left, right, long) ->
      let advancing =
        List.filter
          (fun cand -> Actor.advances ~pos ~target ~cand)
          (Option.to_list left @ Option.to_list right @ long)
      in
      let by_distance (d1, c1) (d2, c2) =
        match Int.compare d1 d2 with 0 -> Int.compare c1 c2 | c -> c
      in
      let oracle =
        match List.sort by_distance (List.map (fun c -> (abs (c - target), c)) advancing) with
        | (_, c) :: _ -> c
        | [] -> -1
      in
      (* A stale slot past [n_long] holding the target itself, which would
         win every scan that read it. *)
      Actor.best_candidate ~pos ~target ~left:(Actor.pointer left) ~right:(Actor.pointer right)
        ~long:(Array.of_list (long @ [ target ]))
        ~n_long:(List.length long)
      = oracle)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "p2p"
    [
      ( "static",
        [
          quick "populate" populate_counts;
          quick "populate refuses a non-empty overlay" populate_refuses_nonempty;
          quick "lookup resolves to basin owner" lookup_resolves_to_basin_owner;
          quick "lookup for own position" lookup_for_own_position;
          quick "all lookups succeed" lookups_all_succeed_statically;
          quick "ttl limits lookups" lookup_ttl_limits;
          quick "rejects dead source" lookup_rejects_dead_source;
        ] );
      ( "join",
        [
          quick "inserts into ring" join_inserts_into_ring;
          quick "joined node is a lookup target" joined_node_is_lookup_target;
          quick "joined node can look up" joined_node_can_look_up;
          quick "occupied position rejected" join_occupied_rejected;
          quick "many joins build a routable network" many_joins_build_network;
        ] );
      ( "failures",
        [
          quick "crash then self-heal" crash_then_lookup_self_heals;
          quick "graceful leave splices ring" leave_splices_ring;
          quick "crash idempotent" crash_is_idempotent;
          quick "in-flight crash bounces and repairs" in_flight_crash_bounces;
          quick "bounce to a dead origin fails" bounce_to_dead_origin_fails;
        ] );
      ( "asynchrony",
        [
          quick "lookups resolve under heavy-tailed delays" jittered_latency_still_resolves;
          quick "joins work under jitter" jittered_join_works;
        ] );
      ( "stabilization",
        [
          quick "heals an idle overlay" stabilization_heals_idle_overlay;
          quick "stops at the horizon" stabilization_stops_at_horizon;
          quick "rejects bad config" stabilization_rejects_bad_config;
        ] );
      ("join-cost", [ quick "grows logarithmically" join_cost_grows_slowly ]);
      ( "recovery",
        [
          quick "repair burden decays" recovery_burden_decays;
          quick "success holds throughout" recovery_success_holds;
          quick "churn sweep keeps lookups healthy" churn_sweep_healthy;
          quick "rejects bad parameters" recovery_rejects;
        ] );
      ( "churn",
        [
          quick "run reports sanely" churn_run_reports;
          quick "deterministic by seed" churn_deterministic_by_seed;
          quick "respects population floor" churn_respects_min_nodes;
          quick "rejects bad setup" churn_rejects_bad_setup;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_best_candidate_matches_oracle;
          QCheck_alcotest.to_alcotest prop_random_operations_preserve_invariants;
        ] );
    ]
