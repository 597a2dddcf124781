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

(* Everything [drain_due] hands out, in the order it hands it out, as
   (src, seq, payload). *)
let drain mb ~now =
  let out = ref [] in
  Mailbox.drain_due mb ~now (fun () ~src ~seq msg -> out := (src, seq, msg) :: !out) ();
  List.rev !out

let payload (_, _, msg) = msg

(* The full key of a drained entry whose payload starts with its
   delivery time. *)
let key (src, seq, (time, _)) = (time, src, seq)

let mailbox_delivery_order () =
  let mb = Mailbox.create ~vacant:"" () in
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
    (List.map payload due);
  Alcotest.(check int) "rest stays" 2 (Mailbox.length mb);
  Alcotest.(check bool) "nothing more due at 3" false (Mailbox.due mb ~now:3);
  let rest = drain mb ~now:99 in
  Alcotest.(check (list string)) "rest in order" [ "t4"; "t5s9" ]
    (List.map payload rest);
  Alcotest.(check bool) "empty" true (Mailbox.is_empty mb);
  Alcotest.(check bool) "an empty mailbox is never due" false (Mailbox.due mb ~now:max_int)

let mailbox_capacity_drops () =
  let mb = Mailbox.create ~capacity:2 ~vacant:(-1) () in
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
      let mb = Mailbox.create ~vacant:(0, 0) () in
      List.iteri
        (fun seq (time, src, msg) -> ignore (Mailbox.post mb ~time ~src ~seq (time, msg)))
        posts;
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
      let mb = Mailbox.create ~vacant:(0, ()) () in
      List.iteri (fun seq (time, src) -> ignore (Mailbox.post mb ~time ~src ~seq (time, ()))) posts;
      let sorted = List.sort compare (List.mapi (fun seq (time, src) -> (time, src, seq)) posts) in
      let expect_due, expect_rest = List.partition (fun (time, _, _) -> time <= now) sorted in
      let drained = List.map key (drain mb ~now) in
      drained = expect_due
      && Mailbox.keys mb = expect_rest
      && Mailbox.well_ordered mb
      && Mailbox.length mb = List.length (Mailbox.keys mb)
      && not (Mailbox.due mb ~now))

(* The flat mailbox against a reference model: a sorted list of
   (time, src, seq, payload) under the same capacity. Random posts near
   a moving clock, interleaved with drains, under a capacity of 1 to 12,
   take the flat arrays through growth (4 cells, doubling up to the
   capacity), sliding the window down over a drained prefix, and
   capacity drops. After every operation the two agree on what a drain
   hands out (and in which order), which posts were refused, [length],
   [dropped], [high_water], [keys] and [well_ordered]. *)
type mailbox_op = Post of int * int (* time ahead of the clock, src *) | Drain of int (* ticks *)

let mailbox_model_qcheck =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun dt src -> Post (dt, src)) (int_bound 3) (int_bound 3));
          (1, map (fun dt -> Drain dt) (int_bound 2));
        ])
  in
  let print_op = function
    | Post (dt, src) -> Printf.sprintf "Post(+%d, %d)" dt src
    | Drain dt -> Printf.sprintf "Drain(+%d)" dt
  in
  QCheck.Test.make ~count:500 ~name:"flat mailbox agrees with a sorted-list model"
    QCheck.(
      pair (int_range 1 12)
        (make
           ~print:(fun ops -> String.concat "; " (List.map print_op ops))
           Gen.(list_size (int_bound 80) op)))
    (fun (capacity, ops) ->
      let mb = Mailbox.create ~capacity ~vacant:"" () in
      let model = ref [] and dropped = ref 0 and high = ref 0 and now = ref 0 in
      let agree = ref true in
      let check b = agree := !agree && b in
      List.iteri
        (fun seq op ->
          (match op with
          | Post (dt, src) ->
              let time = !now + dt and msg = string_of_int seq in
              let fits = List.length !model < capacity in
              if fits then begin
                model := List.merge compare !model [ (time, src, seq, msg) ];
                high := max !high (List.length !model)
              end
              else incr dropped;
              check (Mailbox.post mb ~time ~src ~seq msg = fits)
          | Drain dt ->
              now := !now + dt;
              let due, rest = List.partition (fun (time, _, _, _) -> time <= !now) !model in
              model := rest;
              let expect = List.map (fun (_, src, seq, msg) -> (src, seq, msg)) due in
              check (drain mb ~now:!now = expect));
          check (Mailbox.length mb = List.length !model);
          check (Mailbox.dropped mb = !dropped);
          check (Mailbox.high_water mb = !high);
          check (Mailbox.keys mb = List.map (fun (time, src, seq, _) -> (time, src, seq)) !model);
          check (Mailbox.well_ordered mb))
        ops;
      !agree)

(* Draining clears the payload's cell: once handed out, a payload is
   garbage as soon as the handler drops it, even while the mailbox is
   still in use. The posts below take the arrays through a growth (four
   cells to eight) and a slide of the window down over a drained
   prefix; the payloads still stored stay reachable, the drained ones
   are collected. *)
let mailbox_drained_payload_collectable () =
  let weak = Weak.create 10 in
  let mb = Mailbox.create ~capacity:8 ~vacant:(ref (-1)) () in
  let post i =
    let msg = ref i in
    Weak.set weak i (Some msg);
    assert (Mailbox.post mb ~time:i ~src:0 ~seq:i msg)
  in
  let drain_to now = Mailbox.drain_due mb ~now (fun () ~src:_ ~seq:_ _ -> ()) () in
  for i = 0 to 5 do post i done;
  drain_to 3;
  (* Two of six left in arrays of eight: posts 6 and 7 fill them to the
     end, and post 8 slides the window down to the front. *)
  for i = 6 to 9 do post i done;
  drain_to 7;
  Gc.full_major ();
  let live = List.filter (fun i -> Option.is_some (Weak.get weak i)) (List.init 10 Fun.id) in
  Alcotest.(check (list int)) "only the stored payloads survive" [ 8; 9 ] live;
  Alcotest.(check int) "two stored" 2 (Mailbox.length mb)

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
   through [iter_requests], in id order, with its outcome. *)
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
  let seen = ref [] in
  Service.iter_requests svc (fun rv -> seen := rv :: !seen);
  let seen = List.rev !seen in
  Alcotest.(check (list int)) "iter_requests in id order" (List.init count Fun.id)
    (List.map (fun rv -> rv.Service.rv_id) seen);
  List.iter
    (fun rv ->
      Alcotest.(check int) "source read back" sources.(rv.Service.rv_id mod 4) rv.Service.rv_src;
      Alcotest.(check int) "target read back" (rv.Service.rv_id mod 64) rv.Service.rv_target;
      match rv.Service.rv_outcome with
      | Some (Message.Delivered _) -> ()
      | Some (Message.Failed _) | None -> Alcotest.failf "request %d did not deliver" rv.Service.rv_id)
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

(* The service's allocation budget, requests included. A 256-actor
   network with no churn runs 1,024 lookups to drain; minor words per
   handled envelope stay under [budget]. This workload measures 8.5
   words per envelope, most of it [Service.request]'s (the request
   record, the fresh lookup and its first delivery); the round alone is
   held to 8 by the next test. Rounds that copied the lookup per hop and
   queued envelopes, outbox cells and mailbox entries as lists measured
   50.0, and a round that also found actors through hash lookups and
   built a neighbour list per hop measured 95.6. *)
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

(* The steady round allocates almost nothing per message: flat
   mailboxes and outboxes, lookups forwarded in place, one handler
   closure per shard. The same 256-actor network, warmed until every
   array has grown, then 32 more ticks of 64 lookups with no churn,
   telemetry off and no transcript; only [Service.step] is measured
   ([Service.request] is set-up). What is left is the [Lookup] box per
   forward, and per lookup its completion and outcome, the reply and
   the request's outcome cell: 4.3 words per handled envelope. A round
   that copied the lookup per hop and queued envelopes, outbox cells and
   mailbox entries as lists allocated 38.7. *)
let step_allocation_budget () =
  let budget = 8.0 in
  let line_size = 4096 and links = 8 and seed = 2002 in
  let engine = Engine.create () in
  let ov = Overlay.create ~line_size ~links ~rng:(Rng.of_int seed) engine in
  Overlay.populate ov ~positions:(List.init 256 (fun i -> i * line_size / 256));
  Engine.run engine;
  let svc = Service.of_overlay ~record:false ~seed ov in
  let rng = Rng.of_int (seed + 1) in
  let lives = Array.of_list (Overlay.live_positions ov) in
  let words = ref 0.0 and handled = ref 0 in
  let tick pool ~measured =
    for _ = 1 to 64 do
      let src = lives.(Rng.int rng (Array.length lives)) in
      ignore (Service.request svc ~src ~target:(Rng.int rng line_size))
    done;
    let handled0 = (Service.stats svc).Service.handled in
    let words0 = Gc.minor_words () in
    Service.step svc ~pool;
    if measured then begin
      words := !words +. (Gc.minor_words () -. words0);
      handled := !handled + (Service.stats svc).Service.handled - handled0
    end
  in
  Ftr_obs.Flag.with_mode false (fun () ->
      Pool.with_resident ~jobs:1 (fun pool ->
          for _ = 1 to 32 do tick pool ~measured:false done;
          for _ = 1 to 32 do tick pool ~measured:true done;
          ignore (Service.drain svc ~pool)));
  let s = Service.stats svc in
  Alcotest.(check int) "every lookup delivered" s.Service.issued s.Service.ok;
  let per_envelope = !words /. float_of_int !handled in
  if per_envelope > budget then
    Alcotest.failf "%.1f minor words per handled envelope in Service.step, budget %.0f"
      per_envelope budget

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
        let outcome = ref None in
        Service.iter_requests svc (fun rv ->
            if rv.Service.rv_id = id then outcome := rv.Service.rv_outcome);
        let rounds_result =
          match !outcome with
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
          QCheck_alcotest.to_alcotest mailbox_model_qcheck;
          Alcotest.test_case "drained payload is collectable" `Quick
            mailbox_drained_payload_collectable;
        ] );
      ( "registry",
        [
          Alcotest.test_case "request table grows and reads back" `Quick request_table;
          Alcotest.test_case "register rejects bad positions" `Quick register_rejects;
          Alcotest.test_case "round phases are spans" `Quick round_phase_spans;
          Alcotest.test_case "minor words per envelope" `Quick round_allocation_budget;
          Alcotest.test_case "steady step allocates almost nothing" `Quick step_allocation_budget;
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
