(* The message-passing overlay service: deterministic mailboxes, the
   round scheduler's jobs-invariance (including under mid-run churn),
   agreement of the round transport with the event-engine transport on a
   static network, and a clean drain when the workload stops mid-churn. *)

module Rng = Ftr_prng.Rng
module Sample = Ftr_prng.Sample
module Actor = Ftr_p2p.Actor
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

(* Everything [drain] hands [dst], in the order it hands it out, as
   (src, seq, payload). *)
let drain mb dst =
  let out = ref [] in
  Mailbox.drain mb dst (fun () ~src ~seq msg -> out := (src, seq, msg) :: !out) ();
  List.rev !out

(* Admit [lane]'s new posts; the refused ones, as (dst, src, seq,
   payload). *)
let admit mb lane =
  let refused = ref [] in
  Mailbox.admit mb ~lane (fun () ~dst ~src ~seq msg -> refused := (dst, src, seq, msg) :: !refused) ();
  List.rev !refused

let payload (_, _, msg) = msg

let mailbox_delivery_order () =
  let mb = Mailbox.create ~lanes:2 ~vacant:"" () in
  (* Posted out of order on both key components, to two destinations,
     through two lanes, with the control post (src -1) in lane 0. *)
  let post lane dst src seq msg = Mailbox.post mb ~lane ~dst ~src ~seq msg in
  post 1 2 9 0 "d2s9";
  post 1 0 2 1 "d0s2q1";
  post 1 0 2 0 "d0s2q0";
  post 0 0 (-1) 3 "d0ctl";
  post 1 0 1 7 "d0s1";
  post 1 2 4 0 "d2s4";
  Alcotest.(check int) "posts count once admitted" 0 (Mailbox.posted mb);
  Alcotest.check_raises "lane 1 is not admitted"
    (Invalid_argument "Mailbox.deliver: a lane holds unadmitted posts") (fun () ->
      Mailbox.deliver mb);
  Alcotest.(check int) "nothing refused" 0 (List.length (admit mb 1) + List.length (admit mb 0));
  Alcotest.(check int) "four queued for 0" 4 (Mailbox.pending mb 0);
  Alcotest.(check int) "six queued" 6 (Mailbox.posted mb);
  Alcotest.(check int) "nothing delivered yet" 0 (Mailbox.length mb 0);
  Mailbox.deliver mb;
  Alcotest.(check int) "nothing queued after the delivery" 0 (Mailbox.posted mb);
  Alcotest.(check bool) "well ordered" true (Mailbox.well_ordered mb);
  Alcotest.(check (list (pair int int))) "keys of 2" [ (4, 0); (9, 0) ] (Mailbox.keys mb 2);
  Alcotest.(check int) "nothing for 1" 0 (Mailbox.length mb 1);
  (* A post made while draining waits for the next delivery. *)
  post 0 0 5 0 "next";
  ignore (admit mb 0);
  Alcotest.(check (list string))
    "0's mail in (src, seq) order"
    [ "d0ctl"; "d0s1"; "d0s2q0"; "d0s2q1" ]
    (List.map payload (drain mb 0));
  Alcotest.(check int) "drained" 0 (Mailbox.length mb 0);
  Alcotest.(check int) "a second drain finds nothing" 0 (List.length (drain mb 0));
  Alcotest.check_raises "2 is not drained yet"
    (Invalid_argument "Mailbox.deliver: the last tick is not drained") (fun () ->
      Mailbox.deliver mb);
  Alcotest.(check (list string)) "2's mail" [ "d2s4"; "d2s9" ] (List.map payload (drain mb 2));
  Mailbox.deliver mb;
  Alcotest.(check (list string)) "the next tick" [ "next" ] (List.map payload (drain mb 0));
  Alcotest.(check int) "an unseen destination has nothing" 0 (List.length (drain mb 99))

let mailbox_capacity_drops () =
  let mb = Mailbox.create ~capacity:2 ~lanes:2 ~vacant:(-1) () in
  Mailbox.post mb ~lane:1 ~dst:0 ~src:3 ~seq:0 0;
  Mailbox.post mb ~lane:1 ~dst:0 ~src:3 ~seq:1 1;
  Mailbox.post mb ~lane:1 ~dst:1 ~src:3 ~seq:2 2;
  Mailbox.post mb ~lane:0 ~dst:0 ~src:(-1) ~seq:0 3;
  (* Lane 0 is admitted first, so its post arrives first and the
     second of lane 1's posts to 0 is the one past the bound. *)
  Alcotest.(check int) "lane 0 fits" 0 (List.length (admit mb 0));
  Alcotest.(check (list (pair int int))) "lane 1's newcomer refused" [ (0, 1) ]
    (List.map (fun (dst, _, _, msg) -> (dst, msg)) (admit mb 1));
  Alcotest.(check int) "drop counted" 1 (Mailbox.dropped mb);
  Alcotest.(check int) "high water" 2 (Mailbox.high_water mb);
  Alcotest.(check int) "queue bounded" 2 (Mailbox.pending mb 0);
  Mailbox.deliver mb;
  Alcotest.(check (list int)) "the admitted two delivered" [ 3; 0 ] (List.map payload (drain mb 0));
  Alcotest.(check (list int)) "another destination takes mail" [ 2 ] (List.map payload (drain mb 1));
  (* The bound is per tick: delivered mail no longer counts. *)
  List.iter (fun seq -> Mailbox.post mb ~lane:1 ~dst:0 ~src:3 ~seq seq) [ 4; 5; 6 ];
  Alcotest.(check (list int)) "the next tick's third refused" [ 6 ]
    (List.map (fun (_, _, _, msg) -> msg) (admit mb 1));
  Alcotest.(check int) "two drops" 2 (Mailbox.dropped mb);
  Alcotest.(check int) "high water stays" 2 (Mailbox.high_water mb)

(* Any posts, through any lanes to any destinations, are delivered to
   each destination sorted by (src, seq). *)
let mailbox_order_qcheck =
  QCheck.Test.make ~count:200 ~name:"mailbox drains in sorted key order"
    QCheck.(list (quad (int_bound 2) (int_bound 7) (int_range (-1) 5) (int_bound 1000)))
    (fun posts ->
      let mb = Mailbox.create ~lanes:3 ~vacant:0 () in
      List.iteri (fun seq (lane, dst, src, msg) -> Mailbox.post mb ~lane ~dst ~src ~seq msg) posts;
      List.iter (fun lane -> ignore (admit mb lane)) [ 2; 0; 1 ];
      Mailbox.deliver mb;
      let ordered = Mailbox.well_ordered mb in
      let sent_to dst =
        List.sort compare
          (List.concat
             (List.mapi
                (fun seq (_, d, src, msg) -> if d = dst then [ (src, seq, msg) ] else [])
                posts))
      in
      ordered && List.for_all (fun dst -> drain mb dst = sent_to dst) (List.init 8 Fun.id))

(* The inbox against a reference model: per lane, the posts not admitted
   yet; per destination, the admitted posts in arrival order and the
   sorted list of the mail delivered and not drained yet. Random posts
   (senders -1 to 3) through two lanes to four destinations, admissions,
   partial drains and ticks, under a capacity of 1 to 12, take the flat
   arrays through growth, capacity drops and the swap of each lane's
   payload arrays. A tick admits both lanes, drains what is left of the
   last tick destination by destination, then delivers. After every
   operation the two agree on what a drain hands out (and in which
   order), which posts an admission refuses, [length], [pending],
   [posted], [dropped], [high_water], [keys] and [well_ordered]. *)
type mailbox_op =
  | Post of int * int * int (* lane, destination, sender *)
  | Admit of int (* lane *)
  | Drain of int (* destination *)
  | Tick

let mailbox_model_qcheck =
  let lanes = 2 and dsts = 4 in
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 8,
            map3
              (fun lane dst src -> Post (lane, dst, src))
              (int_bound (lanes - 1)) (int_bound (dsts - 1)) (int_range (-1) 3) );
          (2, map (fun lane -> Admit lane) (int_bound (lanes - 1)));
          (1, map (fun dst -> Drain dst) (int_bound (dsts - 1)));
          (1, return Tick);
        ])
  in
  let print_op = function
    | Post (lane, dst, src) -> Printf.sprintf "Post(%d: %d<-%d)" lane dst src
    | Admit lane -> Printf.sprintf "Admit %d" lane
    | Drain dst -> Printf.sprintf "Drain %d" dst
    | Tick -> "Tick"
  in
  QCheck.Test.make ~count:500 ~name:"flat mailbox agrees with a sorted-list model"
    QCheck.(
      pair (int_range 1 12)
        (make
           ~print:(fun ops -> String.concat "; " (List.map print_op ops))
           Gen.(list_size (int_bound 160) op)))
    (fun (capacity, ops) ->
      let mb = Mailbox.create ~capacity ~lanes ~vacant:"" () in
      let unadmitted = Array.make lanes [] in
      let queued = Array.make dsts [] and delivered = Array.make dsts [] in
      let dropped = ref 0 and high = ref 0 in
      let agree = ref true in
      let check b = agree := !agree && b in
      let admit_model lane =
        let refused =
          List.filter
            (fun (dst, src, seq, msg) ->
              let fits = List.length queued.(dst) < capacity in
              if fits then begin
                queued.(dst) <- queued.(dst) @ [ (src, seq, msg) ];
                high := max !high (List.length queued.(dst))
              end
              else incr dropped;
              not fits)
            unadmitted.(lane)
        in
        unadmitted.(lane) <- [];
        check (admit mb lane = refused)
      in
      let drain_model dst =
        check (drain mb dst = delivered.(dst));
        delivered.(dst) <- []
      in
      List.iteri
        (fun seq op ->
          (match op with
          | Post (lane, dst, src) ->
              let msg = string_of_int seq in
              unadmitted.(lane) <- unadmitted.(lane) @ [ (dst, src, seq, msg) ];
              Mailbox.post mb ~lane ~dst ~src ~seq msg
          | Admit lane -> admit_model lane
          | Drain dst -> drain_model dst
          | Tick ->
              for lane = 0 to lanes - 1 do
                admit_model lane
              done;
              for dst = 0 to dsts - 1 do
                drain_model dst
              done;
              Mailbox.deliver mb;
              for dst = 0 to dsts - 1 do
                delivered.(dst) <- List.sort compare queued.(dst);
                queued.(dst) <- []
              done);
          for dst = 0 to dsts - 1 do
            check (Mailbox.length mb dst = List.length delivered.(dst));
            check (Mailbox.pending mb dst = List.length queued.(dst));
            check (Mailbox.keys mb dst = List.map (fun (src, seq, _) -> (src, seq)) delivered.(dst))
          done;
          check (Mailbox.posted mb = Array.fold_left (fun n q -> n + List.length q) 0 queued);
          check (Mailbox.dropped mb = !dropped);
          check (Mailbox.high_water mb = !high);
          check (Mailbox.well_ordered mb))
        ops;
      !agree)

(* Draining clears the payload's cell, and so does a refusal: once
   handed out, a payload is garbage as soon as the handler drops it,
   while the inbox is still in use. Three ticks of posts through two
   lanes to three destinations, one of them refused at capacity, take
   the arrays through growth and through the swap of each lane's posted
   and delivered payload arrays. Once a tick is drained nothing it
   delivered or refused stays reachable, and only the payloads queued
   for the next tick do. *)
let mailbox_drained_payload_collectable () =
  let count = 40 in
  let weak = Weak.create count in
  let mb = Mailbox.create ~capacity:9 ~lanes:2 ~vacant:(ref (-1)) () in
  let post i =
    let msg = ref i in
    Weak.set weak i (Some msg);
    (* The first tick's ten posts all go to destination 0, one past the
       capacity. *)
    let dst = if i < 10 then 0 else i mod 3 in
    Mailbox.post mb ~lane:(i mod 2) ~dst ~src:(i mod 5) ~seq:i msg
  in
  let tick () =
    let refused = admit mb 0 @ admit mb 1 in
    Mailbox.deliver mb;
    for dst = 0 to 2 do
      Mailbox.drain mb dst (fun () ~src:_ ~seq:_ _ -> ()) ()
    done;
    List.length refused
  in
  let live () =
    Gc.full_major ();
    List.filter (fun i -> Option.is_some (Weak.get weak i)) (List.init count Fun.id)
  in
  for i = 0 to 9 do post i done;
  Alcotest.(check int) "one refused" 1 (tick ());
  for i = 10 to 29 do post i done;
  Alcotest.(check int) "none refused" 0 (tick ());
  Alcotest.(check (list int)) "every delivered or refused payload is collected" [] (live ());
  for i = 30 to count - 1 do post i done;
  ignore (admit mb 0 @ admit mb 1);
  Alcotest.(check (list int)) "only the queued payloads survive" (List.init 10 (fun i -> 30 + i))
    (live ());
  Alcotest.(check int) "ten queued" 10 (Mailbox.posted mb)

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

(* [Service.nth_live] descends a Fenwick tree; the reference walks the
   line. After every operation of a random schedule of registrations
   (live and dead), crashes, leaves (which depart at the next round) and
   joins, each rank must name the same position, and the live count
   must be the number of positions the view marks alive. Line sizes that
   are not powers of two exercise the descent's last, partial step. *)
let nth_live_matches_walk =
  QCheck.Test.make ~count:60 ~name:"nth_live agrees with a walk of the line"
    QCheck.(pair (int_range 2 300) (list_of_size (Gen.int_range 1 60) (pair (int_bound 3) small_nat)))
    (fun (line_size, ops) ->
      let line_size = max 2 line_size in
      let svc = Service.create ~line_size ~links:2 ~seed:7 () in
      let walk k =
        let rec go pos k =
          if Service.view_alive svc pos then if k = 0 then pos else go (pos + 1) (k - 1)
          else go (pos + 1) k
        in
        go 0 k
      in
      let agrees () =
        let live = ref 0 in
        for pos = 0 to line_size - 1 do
          if Service.view_alive svc pos then incr live
        done;
        !live = Service.live_count svc
        && List.for_all (fun k -> Service.nth_live svc k = walk k) (List.init !live Fun.id)
      in
      let free x =
        let rec go pos tries =
          if tries = line_size then None
          else if Service.known svc pos then go ((pos + 1) mod line_size) (tries + 1)
          else Some pos
        in
        go (x mod line_size) 0
      in
      let live_pick x = Service.nth_live svc (x mod Service.live_count svc) in
      Pool.with_resident ~jobs:1 (fun pool ->
          List.for_all
            (fun (op, x) ->
              (match op with
              | 0 | 1 -> (
                  match free x with
                  | Some pos -> ignore (Service.register svc ~pos ~alive:(op = 0))
                  | None -> ())
              | 2 -> if Service.live_count svc > 0 then Service.crash svc ~pos:(live_pick x)
              | _ -> (
                  if Service.live_count svc > 1 then Service.leave svc ~pos:(live_pick x);
                  match free x with
                  | Some pos when Service.live_count svc > 0 ->
                      Service.join svc ~pos ~via:(live_pick (x / 2))
                  | Some _ | None -> ()));
              Service.step svc ~pool;
              agrees ())
            ops))

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

(* Both transports refuse a line longer than the actor's packed
   neighbour keys cover, by name and before allocating anything for it. *)
let line_past_key_packing_refused () =
  let line_size = Ftr_p2p.Actor.max_line_size + 1 in
  Alcotest.check_raises "service"
    (Invalid_argument "Service.create: line_size must be at most Actor.max_line_size")
    (fun () -> ignore (Service.create ~line_size ~links:8 ~seed:1 ()));
  Alcotest.check_raises "overlay"
    (Invalid_argument "Overlay.create: line_size must be at most Actor.max_line_size")
    (fun () ->
      ignore (Overlay.create ~line_size ~links:8 ~rng:(Rng.of_int 1) (Engine.create ())))

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
   held to 6 by the next test. Rounds that copied the lookup per hop and
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
  let budget = 6.0 in
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
(* Boot                                                                *)
(* ------------------------------------------------------------------ *)

let actor_views svc =
  let acc = ref [] in
  Service.iter_actors svc (fun v -> acc := v :: !acc);
  List.rev !acc

let same_actor (v : Service.actor_view) (w : Service.actor_view) =
  Int.equal v.av_pos w.av_pos
  && Bool.equal v.av_alive w.av_alive
  && Option.equal Int.equal v.av_left w.av_left
  && Option.equal Int.equal v.av_right w.av_right
  && Int.equal (Array.length v.av_long) (Array.length w.av_long)
  && Array.for_all2 Int.equal v.av_long w.av_long
  && Int.equal v.av_mail_length w.av_mail_length

(* [Service.boot] builds, actor by actor, the service [of_overlay] makes
   of the engine overlay's [populate]: positions, liveness, both ring
   pointers and every long-link array in order. Populations run from two
   nodes to every point of the line, at strides that do not divide it. *)
let boot_matches_engine_boot =
  let gen =
    QCheck.Gen.(
      int_range 2 1500 >>= fun line_size ->
      frequency [ (1, return 2); (1, return line_size); (4, int_range 2 line_size) ]
      >>= fun initial ->
      quad (return (line_size, initial)) (int_range 1 20) bool (int_bound 10_000))
  in
  let print ((line_size, initial), links, regenerate, seed) =
    Printf.sprintf "line_size=%d initial=%d links=%d regenerate=%b seed=%d" line_size initial
      links regenerate seed
  in
  QCheck.Test.make ~count:150 ~name:"Service.boot equals of_overlay of the engine boot"
    (QCheck.make ~print gen)
    (fun ((line_size, initial), links, regenerate, seed) ->
      let cfg =
        { Driver.default_config with Driver.line_size; initial; links; regenerate; seed }
      in
      let reference = Service.of_overlay ~regenerate ~seed (Driver.build_overlay cfg) in
      List.equal same_actor (actor_views (Driver.boot cfg)) (actor_views reference))

(* The boot sampler leaves nodes below their budget ℓ (CHANGES.md PR 26,
   FOUND): a self-snap is dropped and a repeat kept. Pinned on 128 nodes
   at stride 8 on a 1,024-point line with ℓ = 8, so a change to the rule
   shows here as a declared difference. *)
let boot_sampler_leaves_nodes_short () =
  let links = 8 in
  let actors = Array.init 128 (fun i -> Actor.create ~pos:(i * 8) ~links ~rng:(Rng.of_int 0) ()) in
  Actor.boot_links ~line_size:1024 ~links
    (Sample.power_law ~exponent:1.0 ~max_length:1023)
    (Rng.of_int 1) actors;
  let total = ref 0 and duplicates = ref 0 and short = ref 0 in
  Array.iteri
    (fun i (a : Actor.t) ->
      Alcotest.(check int) "left neighbour" (if i = 0 then Actor.none else a.pos - 8) a.left;
      Alcotest.(check int) "right neighbour" (if i = 127 then Actor.none else a.pos + 8) a.right;
      let held = Actor.long_links a in
      total := !total + Array.length held;
      let distinct = List.length (List.sort_uniq Int.compare (Array.to_list held)) in
      duplicates := !duplicates + Array.length held - distinct;
      if Array.length held < links then incr short)
    actors;
  Alcotest.(check int) "long links" 727 !total;
  Alcotest.(check int) "duplicates" 54 !duplicates;
  Alcotest.(check int) "nodes below budget" 124 !short

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
  let svc = Driver.boot { cfg with Driver.record = false } in
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
        0 v.Service.av_mail_length);
  Alcotest.(check bool) "inbox ordered" true (Mailbox.well_ordered (Service.inbox svc))

(* The bounded-inbox rule in a running service: at most [capacity]
   deliveries per actor per tick, the newcomer dropped in arrival order.
   A churny service with a capacity of 2 drops mail; every drop is
   counted and named in the transcript, every request still ends in
   exactly one outcome (a dropped lookup times out at shutdown), and the
   transcript, drops included, is byte-identical across worker counts. *)
let overflow_accounted () =
  let cfg = { churn_config with Driver.seed = 13; capacity = Some 2; rate = 12 } in
  let run jobs = Driver.run { cfg with Driver.jobs } in
  let res = run (Some 1) in
  let s = Service.stats res.Driver.res_service in
  let drop_lines =
    List.length
      (List.filter
         (fun l -> Option.is_some (Ftr_lint.Suppress.find_sub l " drop "))
         (String.split_on_char '\n' res.Driver.res_transcript))
  in
  Alcotest.(check bool) "mail was dropped" true (s.Service.dropped > 0);
  Alcotest.(check int) "one transcript line per drop" s.Service.dropped drop_lines;
  Alcotest.(check int) "the inbox counts the same drops" s.Service.dropped
    (Mailbox.dropped (Service.inbox res.Driver.res_service));
  Alcotest.(check int) "request conservation" s.Service.issued
    (s.Service.ok + s.Service.failed + s.Service.timed_out);
  Alcotest.(check bool) "high water at the bound" true
    (Mailbox.high_water (Service.inbox res.Driver.res_service) = 2);
  let reference = serialize res in
  List.iter
    (fun j ->
      Alcotest.(check string) (Printf.sprintf "jobs=%d byte-identical" j) reference
        (serialize (run (Some j))))
    [ 2; 4 ];
  Alcotest.(check string) "FTR_EXEC_SEQ=1 byte-identical" reference
    (Ftr_exec.Pool.with_sequential_forced true (fun () -> serialize (run None)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "svc"
    [
      ( "mailbox",
        [
          Alcotest.test_case "delivery order" `Quick mailbox_delivery_order;
          Alcotest.test_case "capacity drops" `Quick mailbox_capacity_drops;
          QCheck_alcotest.to_alcotest mailbox_order_qcheck;
          QCheck_alcotest.to_alcotest mailbox_model_qcheck;
          Alcotest.test_case "drained payload is collectable" `Quick
            mailbox_drained_payload_collectable;
        ] );
      ( "registry",
        [
          Alcotest.test_case "request table grows and reads back" `Quick request_table;
          Alcotest.test_case "register rejects bad positions" `Quick register_rejects;
          QCheck_alcotest.to_alcotest nth_live_matches_walk;
          Alcotest.test_case "a line past the key packing is refused" `Quick
            line_past_key_packing_refused;
          Alcotest.test_case "round phases are spans" `Quick round_phase_spans;
          Alcotest.test_case "minor words per envelope" `Quick round_allocation_budget;
          Alcotest.test_case "steady step allocates almost nothing" `Quick step_allocation_budget;
        ] );
      ( "transports",
        [ Alcotest.test_case "engine and rounds agree" `Quick transports_agree ] );
      ( "boot",
        [
          QCheck_alcotest.to_alcotest boot_matches_engine_boot;
          Alcotest.test_case "the sampler leaves nodes short of ℓ" `Quick
            boot_sampler_leaves_nodes_short;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "transcript jobs-invariant under churn" `Slow
            transcript_jobs_invariant;
          Alcotest.test_case "invariants hold after churn" `Quick invariants_hold_after_churn;
          Alcotest.test_case "inbox overflow is accounted" `Quick overflow_accounted;
        ] );
      ( "drain",
        [ Alcotest.test_case "kill mid-churn drains clean" `Quick kill_mid_churn_drains_clean ]
      );
    ]
