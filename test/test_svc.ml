(* The message-passing overlay service: deterministic mailboxes, the
   round scheduler's jobs-invariance (including under mid-run churn),
   agreement of the round transport with the event-engine transport on a
   static network, and a clean drain when the workload stops mid-churn. *)

module Rng = Ftr_prng.Rng
module Engine = Ftr_sim.Engine
module Overlay = Ftr_p2p.Overlay
module Mailbox = Ftr_svc.Mailbox
module Service = Ftr_svc.Service
module Driver = Ftr_svc.Driver
module Message = Ftr_svc.Message
module Pool = Ftr_exec.Pool

(* ------------------------------------------------------------------ *)
(* Mailbox                                                             *)
(* ------------------------------------------------------------------ *)

(* Everything [drain_due] hands out, in the order it hands it out. *)
let drain mb ~now =
  let out = ref [] in
  Mailbox.drain_due mb ~now (fun e -> out := e :: !out);
  List.rev !out

let key (e : _ Mailbox.entry) = (e.Mailbox.e_time, e.Mailbox.e_src, e.Mailbox.e_seq)

let mailbox_delivery_order () =
  let mb = Mailbox.create () in
  (* Posted out of order on every key component. *)
  assert (Mailbox.post mb ~time:5 ~src:9 ~seq:0 "t5s9");
  assert (Mailbox.post mb ~time:3 ~src:2 ~seq:1 "t3s2q1");
  assert (Mailbox.post mb ~time:3 ~src:2 ~seq:0 "t3s2q0");
  assert (Mailbox.post mb ~time:3 ~src:1 ~seq:7 "t3s1");
  assert (Mailbox.post mb ~time:4 ~src:0 ~seq:0 "t4");
  Alcotest.(check bool) "well ordered" true (Mailbox.well_ordered mb);
  Alcotest.(check bool) "due at 3" true (Mailbox.due mb ~now:3);
  Alcotest.(check bool) "nothing due at 2" false (Mailbox.due mb ~now:2);
  let due = drain mb ~now:3 in
  Alcotest.(check (list string))
    "due at 3, in (time, src, seq) order"
    [ "t3s1"; "t3s2q0"; "t3s2q1" ]
    (List.map (fun e -> e.Mailbox.e_msg) due);
  Alcotest.(check int) "rest stays" 2 (Mailbox.length mb);
  Alcotest.(check bool) "nothing more due at 3" false (Mailbox.due mb ~now:3);
  let rest = drain mb ~now:99 in
  Alcotest.(check (list string)) "rest in order" [ "t4"; "t5s9" ]
    (List.map (fun e -> e.Mailbox.e_msg) rest);
  Alcotest.(check bool) "empty" true (Mailbox.is_empty mb);
  Alcotest.(check bool) "an empty mailbox is never due" false (Mailbox.due mb ~now:max_int)

let mailbox_capacity_drops () =
  let mb = Mailbox.create ~capacity:2 () in
  assert (Mailbox.post mb ~time:1 ~src:0 ~seq:0 0);
  assert (Mailbox.post mb ~time:1 ~src:0 ~seq:1 1);
  Alcotest.(check bool) "third refused" false (Mailbox.post mb ~time:1 ~src:0 ~seq:2 2);
  Alcotest.(check int) "drop counted" 1 (Mailbox.dropped mb);
  Alcotest.(check int) "high water" 2 (Mailbox.high_water mb);
  Alcotest.(check int) "length bounded" 2 (Mailbox.length mb)

(* Any post sequence leaves the mailbox well ordered, and a full drain
   hands back exactly the sorted keys. *)
let mailbox_order_qcheck =
  QCheck.Test.make ~count:200 ~name:"mailbox drains in sorted key order"
    QCheck.(list (tup3 (int_bound 7) (int_bound 5) (int_bound 1000)))
    (fun posts ->
      let mb = Mailbox.create () in
      List.iteri (fun seq (time, src, msg) -> ignore (Mailbox.post mb ~time ~src ~seq msg)) posts;
      let ok_sorted = Mailbox.well_ordered mb in
      let keys = Mailbox.keys mb in
      let drained_keys = List.map key (drain mb ~now:max_int) in
      ok_sorted && drained_keys = keys
      && drained_keys = List.sort compare drained_keys
      && Mailbox.is_empty mb)

(* A drain at any [now] takes exactly the sorted prefix due by [now] and
   leaves the rest stored, still in order and still counted. *)
let mailbox_partial_drain_qcheck =
  QCheck.Test.make ~count:300 ~name:"drain_due takes exactly the due prefix"
    QCheck.(pair (int_bound 9) (small_list (pair (int_bound 7) (int_bound 5))))
    (fun (now, posts) ->
      let mb = Mailbox.create () in
      List.iteri (fun seq (time, src) -> ignore (Mailbox.post mb ~time ~src ~seq ())) posts;
      let sorted = List.sort compare (List.mapi (fun seq (time, src) -> (time, src, seq)) posts) in
      let expect_due, expect_rest = List.partition (fun (time, _, _) -> time <= now) sorted in
      let drained = List.map key (drain mb ~now) in
      drained = expect_due
      && Mailbox.keys mb = expect_rest
      && Mailbox.well_ordered mb
      && Mailbox.length mb = List.length (Mailbox.keys mb)
      && not (Mailbox.due mb ~now))

(* ------------------------------------------------------------------ *)
(* Registry and request table                                          *)
(* ------------------------------------------------------------------ *)

(* A handful of link-less actors, so every lookup resolves at its
   source or one ring step away; the point is the table, not routing. *)
let small_service () =
  let svc = Service.create ~line_size:64 ~links:2 ~seed:3 () in
  List.iter (fun pos -> ignore (Service.register svc ~pos ~alive:true)) [ 40; 8; 24; 56 ];
  svc

(* Enough requests to grow the table several times; every id reads back
   through [request_outcome] and [iter_requests], in id order, and ids
   outside [0, next_request) have no outcome. *)
let request_table () =
  let svc = small_service () in
  let count = 333 in
  let sources = [| 8; 24; 40; 56 |] in
  Pool.with_resident ~jobs:1 (fun pool ->
      for i = 0 to count - 1 do
        let id = Service.request svc ~src:sources.(i mod 4) ~target:(i mod 64) in
        Alcotest.(check int) "ids are dense" i id;
        if i mod 50 = 0 then Service.step svc ~pool
      done;
      ignore (Service.drain svc ~pool));
  Alcotest.(check int) "next request id" count (Service.next_request_id svc);
  for id = 0 to count - 1 do
    match Service.request_outcome svc ~request:id with
    | Some (Message.Delivered _) -> ()
    | Some (Message.Failed _) | None -> Alcotest.failf "request %d did not deliver" id
  done;
  Alcotest.(check bool) "id -1 has no outcome" true
    (Option.is_none (Service.request_outcome svc ~request:(-1)));
  Alcotest.(check bool) "next_request has no outcome" true
    (Option.is_none (Service.request_outcome svc ~request:count));
  let seen = ref [] in
  Service.iter_requests svc (fun rv -> seen := rv :: !seen);
  let seen = List.rev !seen in
  Alcotest.(check (list int)) "iter_requests in id order" (List.init count Fun.id)
    (List.map (fun rv -> rv.Service.rv_id) seen);
  List.iter
    (fun rv ->
      Alcotest.(check int) "source read back" sources.(rv.Service.rv_id mod 4) rv.Service.rv_src;
      Alcotest.(check int) "target read back" (rv.Service.rv_id mod 64) rv.Service.rv_target)
    seen;
  Alcotest.(check int) "nothing pending" 0 (List.length (Service.pending_requests svc))

let register_rejects () =
  let svc = small_service () in
  Alcotest.check_raises "off the line, above"
    (Invalid_argument "Service.register: position off the line") (fun () ->
      ignore (Service.register svc ~pos:64 ~alive:true));
  Alcotest.check_raises "off the line, below"
    (Invalid_argument "Service.register: position off the line") (fun () ->
      ignore (Service.register svc ~pos:(-1) ~alive:true));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Service.register: position already registered") (fun () ->
      ignore (Service.register svc ~pos:24 ~alive:false));
  Alcotest.(check bool) "known" true (Service.known svc 24);
  Alcotest.(check bool) "unknown" false (Service.known svc 25);
  Alcotest.(check bool) "off the line is unknown" false (Service.known svc 64);
  let order = ref [] in
  Service.iter_actors svc (fun v -> order := v.Service.av_pos :: !order);
  Alcotest.(check (list int)) "actors in position order" [ 8; 24; 40; 56 ] (List.rev !order)

(* With telemetry on, each round records its three phases as spans;
   with it off, none. *)
let round_phase_spans () =
  let spans () =
    List.map
      (fun name ->
        match Ftr_obs.Span.find name with Some st -> st.Ftr_obs.Span.count | None -> 0)
      [ "svc.scan"; "svc.round"; "svc.merge" ]
  in
  let one_round () =
    let svc = small_service () in
    ignore (Service.request svc ~src:8 ~target:30);
    Pool.with_resident ~jobs:1 (fun pool -> Service.step svc ~pool)
  in
  Ftr_obs.Span.reset ();
  Ftr_obs.Flag.with_mode false one_round;
  Alcotest.(check (list int)) "off: no spans" [ 0; 0; 0 ] (spans ());
  Ftr_obs.Flag.with_mode true one_round;
  Alcotest.(check (list int)) "on: one of each" [ 1; 1; 1 ] (spans ());
  Ftr_obs.Span.reset ()

(* The round's allocation budget. A 256-actor network with no churn runs
   1,024 lookups to drain; minor words per handled envelope stay under
   [budget]. What an envelope must allocate — the forwarded lookup, its
   envelope and outbox cell, its mailbox entry — comes to about 30
   words, and each lookup adds its request record and completion. This
   workload measures 50.0 words per envelope; a round that finds actors
   through hash lookups, drains mailboxes into lists and builds a
   neighbour list per hop measured 95.6. *)
let round_allocation_budget () =
  let budget = 64.0 in
  let line_size = 4096 and links = 8 and seed = 2002 in
  let engine = Engine.create () in
  let ov = Overlay.create ~line_size ~links ~rng:(Rng.of_int seed) engine in
  Overlay.populate ov ~positions:(List.init 256 (fun i -> i * line_size / 256));
  Engine.run engine;
  let svc = Service.of_overlay ~seed ov in
  let rng = Rng.of_int (seed + 1) in
  let lives = Array.of_list (Overlay.live_positions ov) in
  Pool.with_resident ~jobs:1 (fun pool ->
      let words0 = Gc.minor_words () in
      for _ = 1 to 16 do
        for _ = 1 to 64 do
          let src = lives.(Rng.int rng (Array.length lives)) in
          ignore (Service.request svc ~src ~target:(Rng.int rng line_size))
        done;
        Service.step svc ~pool
      done;
      ignore (Service.drain svc ~pool);
      let words = Gc.minor_words () -. words0 in
      let s = Service.stats svc in
      Alcotest.(check int) "every lookup delivered" s.Service.issued s.Service.ok;
      let per_envelope = words /. float_of_int s.Service.handled in
      if per_envelope > budget then
        Alcotest.failf "%.1f minor words per handled envelope, budget %.0f" per_envelope budget)

(* ------------------------------------------------------------------ *)
(* One protocol, two transports                                        *)
(* ------------------------------------------------------------------ *)

(* Both transports run [Actor]'s handlers. Build a populated overlay with
   a failure set, all under regeneration off and constant latency, so a
   lookup's outcome is a pure function of link state — then check the
   round transport (Service) and the engine transport (Overlay) give the
   same owner and hop count for the same request sequence, with both
   sides' cumulative repairs kept in lockstep by issuing one lookup at a
   time. *)
let transports_agree () =
  let seed = 42 and line_size = 512 and links = 4 and count = 40 in
  let rng = Rng.of_int seed in
  let engine = Engine.create () in
  let ov =
    Overlay.create ~regenerate:false ~line_size ~links ~rng:(Rng.of_int (seed + 1)) engine
  in
  Overlay.populate ov ~positions:(List.init count (fun i -> i * line_size / count));
  Engine.run engine;
  (* Fail ~25% of the nodes, keeping at least three alive. *)
  let live = Array.of_list (Overlay.live_positions ov) in
  let kills = ref [] in
  Array.iter
    (fun pos -> if Rng.float rng < 0.25 && Array.length live - List.length !kills > 3 then kills := pos :: !kills)
    live;
  List.iter (fun pos -> Overlay.crash ov ~pos) !kills;
  Engine.run engine;
  (* Snapshot the post-failure network into the service before either
     side routes anything. *)
  let svc = Service.of_overlay ~regenerate:false ~seed ov in
  let mismatches = ref [] in
  Pool.with_resident ~jobs:2 (fun pool ->
      for _ = 1 to 25 do
        let lives = Array.of_list (Overlay.live_positions ov) in
        let from = lives.(Rng.int rng (Array.length lives)) in
        let target = Rng.int rng line_size in
        (* Engine transport. *)
        let engine_result = ref None in
        Overlay.lookup ov ~from ~target
          ~callback:(fun ~owner ~hops -> engine_result := Some (owner, hops))
          ();
        Engine.run engine;
        (* Round transport: same request, run to quiescence. *)
        let id = Service.request svc ~src:from ~target in
        ignore (Service.drain svc ~pool);
        let rounds_result =
          match Service.request_outcome svc ~request:id with
          | Some (Message.Delivered { owner; hops }) -> Some (owner, hops)
          | Some (Message.Failed _) | None -> None
        in
        if rounds_result <> !engine_result then
          mismatches :=
            Printf.sprintf "%d->%d: engine=%s rounds=%s" from target
              (match !engine_result with
              | Some (o, h) -> Printf.sprintf "ok(%d,%d)" o h
              | None -> "fail")
              (match rounds_result with
              | Some (o, h) -> Printf.sprintf "ok(%d,%d)" o h
              | None -> "fail")
            :: !mismatches
      done);
  match !mismatches with
  | [] -> ()
  | ms -> Alcotest.failf "transport divergence:\n%s" (String.concat "\n" ms)

(* ------------------------------------------------------------------ *)
(* Jobs-invariance under churn                                         *)
(* ------------------------------------------------------------------ *)

let churn_config =
  {
    Driver.default_config with
    Driver.line_size = 512;
    initial = 48;
    links = 4;
    seed = 7;
    ticks = 24;
    rate = 4;
    join_rate = 0.5;
    crash_rate = 0.5;
    leave_rate = 0.25;
    stabilize = 2;
    record = true;
  }

let serialize (res : Driver.result) =
  res.Driver.res_transcript
  ^ String.concat "\n" (Driver.report_lines ~wall:false res.Driver.res_report)
  ^ "\n"

let transcript_jobs_invariant () =
  let reference = serialize (Driver.run { churn_config with Driver.jobs = Some 1 }) in
  List.iter
    (fun j ->
      let out = serialize (Driver.run { churn_config with Driver.jobs = Some j }) in
      Alcotest.(check string) (Printf.sprintf "jobs=%d byte-identical" j) reference out)
    [ 2; 4 ];
  let seq =
    Ftr_exec.Pool.with_sequential_forced true (fun () ->
        serialize (Driver.run { churn_config with Driver.jobs = None }))
  in
  Alcotest.(check string) "FTR_EXEC_SEQ=1 byte-identical" reference seq

let invariants_hold_after_churn () =
  let res = Driver.run { churn_config with Driver.seed = 9 } in
  (match Driver.invariant_problems res with
  | [] -> ()
  | ps -> Alcotest.failf "invariants violated:\n%s" (String.concat "\n" ps));
  let r = res.Driver.res_report in
  Alcotest.(check bool) "work happened" true (r.Driver.rp_issued > 0 && r.Driver.rp_crashes > 0)

(* ------------------------------------------------------------------ *)
(* Kill mid-churn: the scheduler drains clean                          *)
(* ------------------------------------------------------------------ *)

(* Stop the workload abruptly while lookups, joins and repair traffic are
   still in flight, then drain with no new input: every mailbox must
   empty, every request must resolve (or be accounted as a shutdown
   timeout), and nothing may be silently lost. *)
let kill_mid_churn_drains_clean () =
  let cfg = { churn_config with Driver.seed = 11; ticks = 10 } in
  let ov = Driver.build_overlay cfg in
  let svc =
    Service.of_overlay ~shards:cfg.Driver.shards ~record:false ~seed:cfg.Driver.seed ov
  in
  let rng = Ftr_exec.Seed.rng_for ~seed:cfg.Driver.seed ~index:cfg.Driver.line_size in
  Pool.with_resident ~jobs:3 (fun pool ->
      (* Run churn ticks, then kill the workload with mail still queued. *)
      for _ = 1 to cfg.Driver.ticks do
        Driver.control cfg rng svc;
        Service.step svc ~pool
      done;
      Alcotest.(check bool) "mail still in flight at the kill point" true
        (Service.mail_pending svc);
      ignore (Service.drain svc ~pool));
  Service.force_timeouts svc;
  Alcotest.(check bool) "all mailboxes drained" false (Service.mail_pending svc);
  let s = Service.stats svc in
  Alcotest.(check int) "request conservation" s.Service.issued
    (s.Service.ok + s.Service.failed + s.Service.timed_out);
  Alcotest.(check int) "no overflow drops" 0 s.Service.dropped;
  Service.iter_actors svc (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "actor %d mailbox empty" v.Service.av_pos)
        0 v.Service.av_mail_length;
      Alcotest.(check bool)
        (Printf.sprintf "actor %d mailbox ordered" v.Service.av_pos)
        true v.Service.av_mail_well_ordered)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "svc"
    [
      ( "mailbox",
        [
          Alcotest.test_case "delivery order" `Quick mailbox_delivery_order;
          Alcotest.test_case "capacity drops" `Quick mailbox_capacity_drops;
          QCheck_alcotest.to_alcotest mailbox_order_qcheck;
          QCheck_alcotest.to_alcotest mailbox_partial_drain_qcheck;
        ] );
      ( "registry",
        [
          Alcotest.test_case "request table grows and reads back" `Quick request_table;
          Alcotest.test_case "register rejects bad positions" `Quick register_rejects;
          Alcotest.test_case "round phases are spans" `Quick round_phase_spans;
          Alcotest.test_case "minor words per envelope" `Quick round_allocation_budget;
        ] );
      ( "transports",
        [ Alcotest.test_case "engine and rounds agree" `Quick transports_agree ] );
      ( "determinism",
        [
          Alcotest.test_case "transcript jobs-invariant under churn" `Slow
            transcript_jobs_invariant;
          Alcotest.test_case "invariants hold after churn" `Quick invariants_hold_after_churn;
        ] );
      ( "drain",
        [ Alcotest.test_case "kill mid-churn drains clean" `Quick kill_mid_churn_drains_clean ]
      );
    ]
