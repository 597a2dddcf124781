(* The round scheduler: a bulk-synchronous actor runtime whose merged
   transcript is byte-identical across worker counts.

   One round = one logical tick:

   1. (coordinator) control events — joins, crashes, leaves, stabilize
      pulses, request issuance — are applied by the driver before the
      round; dead actors' due mail is drained here, generating bounces.
   2. (workers) due live actors, in sorted position order, are cut into
      [nshards] contiguous slices. Slice boundaries depend only on the
      due set and the fixed shard count — never on [--jobs] — and every
      slice is processed sequentially by whichever worker claims it, so
      the per-slice event order is jobs-invariant too. Handlers write
      only their own actor plus per-shard accumulators.
   3. (coordinator) accumulators are merged in slice order: transcript
      chunks appended, counters added, completions applied, each
      shard's inbox lane admitted for the next tick, departures folded
      into the liveness view. Since slices partition the sorted due list,
      the merged order equals the order a single worker would have
      produced: delivery order is a pure function of
      (seed, logical time, sender id, sequence number).

   Every message is delivered at the next tick: control posts at the
   round that follows them, shard sends and bounces at the round after
   theirs. So one [Mailbox.t] inbox holds all the mail: the shards post
   into their own lanes of it during the round, the coordinator into
   lane 0, and the scan opens each round by delivering it, sorted by
   destination and then by (sender, sequence). Destinations are dense
   slot ids fixed at registration, so the inbox's per-destination arrays
   are as long as the registry, not the line.

   The liveness view is a frozen byte per line position: written by the
   coordinator between rounds, read-only inside one — the second half of
   the barrier discipline that makes the inbox safe without locks. *)

module Rng = Ftr_prng.Rng
module Sample = Ftr_prng.Sample
module Seed = Ftr_exec.Seed
module Pool = Ftr_exec.Pool
module Debug = Ftr_debug.Debug
module Actor = Ftr_p2p.Actor
open Message

type stats = {
  mutable issued : int; (* user requests *)
  mutable ok : int;
  mutable failed : int;
  mutable timed_out : int; (* force-timed-out at shutdown *)
  mutable hops_total : int; (* over delivered user requests *)
  mutable maint_issued : int;
  mutable maint_ok : int;
  mutable maint_failed : int;
  mutable messages : int; (* routed lookup forwards *)
  mutable replies : int; (* service replies: Resolved, Splice, Set_left/right *)
  mutable probes : int;
  mutable repairs : int;
  mutable redirects : int;
  mutable joins : int;
  mutable crashes : int;
  mutable leaves : int;
  mutable bounces : int; (* lookups bounced off dead carriers *)
  mutable dropped : int; (* inbox-capacity drops *)
  mutable dead_letters : int; (* non-lookup mail to dead actors, dropped by protocol *)
  mutable handled : int; (* envelopes processed *)
  mutable rounds : int;
}

type request_state = {
  rq_id : int;
  rq_src : int;
  rq_target : int;
  rq_issued : int;
  rq_traced : bool;
  mutable rq_outcome : outcome option;
  mutable rq_done_at : int;
}

(* One registered actor with the delivery state this transport keeps
   beside it: its inbox destination id (dense, in registration order)
   and its per-sender sequence counter. *)
type slot = { actor : Actor.t; id : int; mutable next_seq : int }

(* What fills an inbox payload cell that holds no message: a constant
   constructor, so it keeps nothing alive. *)
let vacant = Stabilize

(* The inbox lane the coordinator posts into; shard [s] posts into lane
   [s + 1]. *)
let coord_lane = 0

(* Per-shard accumulator: everything a worker produces besides its own
   actors' state and its inbox lane, merged by the coordinator in shard
   order, and the handler context that writes it, built once with the
   service. A send goes straight into the shard's lane of the inbox,
   addressed by slot id, so it allocates nothing once the lane has grown
   to the shard's traffic. *)
type shard_acc = {
  ctx : Actor.ctx;
  buf : Buffer.t;
  mutable strays : int; (* sends to unregistered positions *)
  mutable completions_rev : (lookup * outcome) list;
  mutable departs_rev : int list;
}

type t = {
  line_size : int;
  links : int;
  ttl : int;
  seed : int;
  regenerate : bool;
  nshards : int;
  ids : int array; (* by line position: the slot id, -1 = never registered *)
  mutable order : int array; (* every registered actor's slot id by position, in [0, registered) *)
  mutable by_id : slot array; (* every registered actor by slot id, in [0, registered) *)
  mutable registered : int;
  inbox : payload Mailbox.t; (* destinations are slot ids *)
  mutable due : int array; (* this round's due live actors' slot ids, in [0, ndue) *)
  mutable ndue : int;
  mutable accs : shard_acc array; (* one per shard, cleared every round *)
  alive_view : Bytes.t;
  mutable live : int; (* registered positions the view marks alive *)
  mutable live_tree : int array; (* Fenwick tree over the view, from the first [nth_live] *)
  pl : Sample.power_law;
  mutable now : int;
  mutable next_request : int;
  mutable coord_seq : int;
  mutable requests : request_state array; (* by request id, in [0, next_request) *)
  hops_hist : int array; (* per-success hop counts, exact *)
  (* Telemetry on: the user lookups completed since the last
     [report_requests], the delivered ones' hop counts in
     [unreported_hops.(0 .. n_unreported - 1)]. *)
  mutable unreported_hops : int array;
  mutable n_unreported : int;
  mutable unreported_failed : int;
  stats : stats;
  transcript : Buffer.t;
  record : bool;
}

(* The slot id at line position [pos], -1 when none is registered there. *)
let[@inline] id_of t pos = if pos >= 0 && pos < t.line_size then t.ids.(pos) else -1

(* Shard [shard]'s accumulator and handler context; its sends go into
   inbox lane [shard + 1]. *)
let fresh_acc t shard =
  let lane = shard + 1 in
  let rec acc =
    {
      ctx =
        {
          Actor.line_size = t.line_size;
          links = t.links;
          ttl = t.ttl;
          regenerate = t.regenerate;
          alive_view = t.alive_view;
          pl = t.pl;
          counters = Actor.fresh_counters ();
          send =
            (fun ~src ~dst payload ->
              let sid = id_of t src.Actor.pos in
              if sid < 0 then invalid_arg "Service: send from an unregistered actor";
              let s = t.by_id.(sid) in
              let seq = s.next_seq in
              s.next_seq <- seq + 1;
              let id = id_of t dst in
              if id >= 0 then Mailbox.post t.inbox ~lane ~dst:id ~src:src.Actor.pos ~seq payload
              else if Debug.enabled () then
                (* Every destination comes out of the registry, so this
                   is a scheduler bug, not load. *)
                Debug.failf "Service: message for unregistered position %d (from %d)" dst
                  src.Actor.pos
              else acc.strays <- acc.strays + 1);
          complete = (fun l o -> acc.completions_rev <- (l, o) :: acc.completions_rev);
          depart = (fun pos -> acc.departs_rev <- pos :: acc.departs_rev);
        };
      buf = Buffer.create (if t.record then 1024 else 1);
      strays = 0;
      completions_rev = [];
      departs_rev = [];
    }
  in
  acc

let create ?capacity ?(ttl = 256) ?(regenerate = true) ?(shards = 8) ?(record = false)
    ~line_size ~links ~seed () =
  if line_size < 2 then invalid_arg "Service.create: line_size must be >= 2";
  if line_size > Actor.max_line_size then
    invalid_arg "Service.create: line_size must be at most Actor.max_line_size";
  if links < 1 then invalid_arg "Service.create: links must be >= 1";
  if shards < 1 then invalid_arg "Service.create: shards must be >= 1";
  let t =
    {
      line_size;
      links;
      ttl;
      seed;
      regenerate;
      nshards = shards;
      ids = Array.make line_size (-1);
      order = [||];
      by_id = [||];
      registered = 0;
      inbox = Mailbox.create ?capacity ~lanes:(shards + 1) ~vacant ();
      due = [||];
      ndue = 0;
      accs = [||];
      alive_view = Bytes.make line_size '\000';
      live = 0;
      live_tree = [||];
      pl = Sample.power_law ~exponent:1.0 ~max_length:(line_size - 1);
      now = 0;
      next_request = 0;
      coord_seq = 0;
      requests = [||];
      hops_hist = Array.make (ttl + 2) 0;
      unreported_hops = [||];
      n_unreported = 0;
      unreported_failed = 0;
      stats =
        {
          issued = 0;
          ok = 0;
          failed = 0;
          timed_out = 0;
          hops_total = 0;
          maint_issued = 0;
          maint_ok = 0;
          maint_failed = 0;
          messages = 0;
          replies = 0;
          probes = 0;
          repairs = 0;
          redirects = 0;
          joins = 0;
          crashes = 0;
          leaves = 0;
          bounces = 0;
          dropped = 0;
          dead_letters = 0;
          handled = 0;
          rounds = 0;
        };
      transcript = Buffer.create (if record then 65536 else 16);
      record;
    }
  in
  t.accs <- Array.init shards (fresh_acc t);
  t

let stats t = t.stats

let line_size t = t.line_size

let links t = t.links

let next_request_id t = t.next_request

let transcript t = Buffer.contents t.transcript

let hops_histogram t = Array.copy t.hops_hist

let linef t fmt = Printf.ksprintf (fun s -> Buffer.add_string t.transcript s; Buffer.add_char t.transcript '\n') fmt

(* ------------------------------------------------------------------ *)
(* Membership and registry                                             *)
(* ------------------------------------------------------------------ *)

let view_alive t pos = pos >= 0 && pos < t.line_size && Bytes.get t.alive_view pos = '\001'

let known t pos = id_of t pos >= 0

let live_count t = t.live

(* [live_tree] is a Fenwick tree over line positions, 1-based: cell [i]
   counts the live positions in (i - lowbit i, i]. It is built by the
   first [nth_live] (a service that never picks holds none) and kept by
   the view's two writers, [mark_dead] and [add_slot]. *)
let tree_add t pos delta =
  let i = ref (pos + 1) in
  while !i <= Array.length t.live_tree - 1 do
    t.live_tree.(!i) <- t.live_tree.(!i) + delta;
    i := !i + (!i land - !i)
  done

let build_tree t =
  let tree = Array.make (t.line_size + 1) 0 in
  for i = 1 to t.line_size do
    if view_alive t (i - 1) then tree.(i) <- tree.(i) + 1;
    let j = i + (i land -i) in
    if j <= t.line_size then tree.(j) <- tree.(j) + tree.(i)
  done;
  t.live_tree <- tree

(* The [k]-th live actor's position, counting from 0 in position order:
   a descent of the tree to the longest prefix of the line holding at
   most [k] live positions, in O(log line_size). *)
let nth_live t k =
  if k < 0 || k >= t.live then invalid_arg "Service.nth_live: no such live actor";
  if Array.length t.live_tree = 0 then build_tree t;
  let step = ref 1 in
  while 2 * !step <= t.line_size do
    step := 2 * !step
  done;
  let i = ref 0 and k = ref k in
  while !step > 0 do
    let j = !i + !step in
    if j <= t.line_size && t.live_tree.(j) <= !k then begin
      i := j;
      k := !k - t.live_tree.(j)
    end;
    step := !step / 2
  done;
  !i

(* The view's one writer besides registration: marks [pos] departed and
   keeps [live] counting the marked bytes. *)
let mark_dead t pos =
  if view_alive t pos then begin
    Bytes.set t.alive_view pos '\000';
    t.live <- t.live - 1;
    tree_add t pos (-1)
  end

(* [arr], or a copy of twice the size when index [n] is past its end.
   The new cells hold [x] — the element about to be stored at [n] — so
   growth needs no placeholder value. *)
let room arr n x =
  if n < Array.length arr then arr
  else begin
    let a = Array.make (max 16 (2 * n)) x in
    Array.blit arr 0 a 0 n;
    a
  end

let add_slot t ~pos ~alive ~id =
  if pos < 0 || pos >= t.line_size then invalid_arg "Service.register: position off the line";
  if t.ids.(pos) >= 0 then invalid_arg "Service.register: position already registered";
  let a = Actor.create ~pos ~links:t.links ~rng:(Seed.rng_for ~seed:t.seed ~index:pos) () in
  a.Actor.alive <- alive;
  let s = { actor = a; id; next_seq = 0 } in
  t.ids.(pos) <- id;
  t.by_id <- room t.by_id id s;
  t.by_id.(id) <- s;
  if alive then begin
    Bytes.set t.alive_view pos '\001';
    t.live <- t.live + 1;
    tree_add t pos 1
  end;
  s

(* Registration keeps [order] sorted by shifting the larger positions up
   one cell: a join costs one insertion, never a rescan of the line. *)
let register t ~pos ~alive =
  let s = add_slot t ~pos ~alive ~id:t.registered in
  let order = room t.order t.registered s.id in
  let i = ref t.registered in
  while !i > 0 && t.by_id.(order.(!i - 1)).actor.Actor.pos > pos do
    order.(!i) <- order.(!i - 1);
    decr i
  done;
  order.(!i) <- s.id;
  t.order <- order;
  t.registered <- t.registered + 1;
  s.actor

(* Snapshot constructor: the service starts from exactly the link state
   the engine transport reached (populate, joins, crashes...), so the two
   transports can be compared on the same (seed, network, failure set).
   Dead registry entries come along too — they are what in-flight mail
   bounces off. The overlay hands its nodes over unsorted; they are
   registered in position order, so slot ids follow positions and
   [order] is the identity. That allocates each actor's records, and
   lays out the inbox's per-destination arrays, in the order the scan
   and the shards walk them: a steady round ran about a tenth faster
   than with the records allocated in the overlay's hash order. *)
let of_overlay ?capacity ?ttl ?(regenerate = true) ?shards ?record ~seed ov =
  let module O = Ftr_p2p.Overlay in
  let t =
    create ?capacity
      ~ttl:(match ttl with Some v -> v | None -> O.ttl ov)
      ~regenerate ?shards ?record ~line_size:(O.line_size ov) ~links:(O.links ov) ~seed ()
  in
  let views = ref [] in
  O.iter_nodes ov (fun v -> views := v :: !views);
  let register id v =
    let s = add_slot t ~pos:v.O.view_pos ~alive:v.O.view_alive ~id in
    let a = s.actor in
    a.Actor.left <- Actor.pointer v.O.view_left;
    a.Actor.right <- Actor.pointer v.O.view_right;
    Array.blit v.O.view_long 0 a.Actor.long 0 (Array.length v.O.view_long);
    a.Actor.n_long <- Array.length v.O.view_long
  in
  List.iteri register (List.sort (fun v w -> Int.compare v.O.view_pos w.O.view_pos) !views);
  t.registered <- List.length !views;
  t.order <- Array.init t.registered Fun.id;
  t

(* The service's own boot: one live actor per position, registered in
   position order (so slot ids follow positions, as in [of_overlay]),
   wired by the boot sampler both transports share. The sampler draws
   from stream [line_size + 1] of [seed], the stream the engine overlay
   of [Driver.build_overlay] draws from, so the two boots build the same
   actors link for link. *)
let boot ?capacity ?ttl ?regenerate ?shards ?record ~line_size ~links ~seed ~positions () =
  Ftr_obs.Span.time "svc.boot" @@ fun () ->
  let t = create ?capacity ?ttl ?regenerate ?shards ?record ~line_size ~links ~seed () in
  if positions = [] then invalid_arg "Service.boot: need at least one position";
  let sorted = List.sort_uniq Int.compare positions in
  let actors = Array.of_list (List.map (fun pos -> register t ~pos ~alive:true) sorted) in
  Actor.boot_links ~line_size ~links t.pl (Seed.rng_for ~seed ~index:(line_size + 1)) actors;
  t

(* ------------------------------------------------------------------ *)
(* Posting                                                             *)
(* ------------------------------------------------------------------ *)

(* A post the inbox refused at capacity: counted, and named in the
   transcript. *)
let refuse t ~dst ~src ~seq payload =
  t.stats.dropped <- t.stats.dropped + 1;
  if t.record then
    linef t "t=%d drop %d<-%d#%d %s" t.now t.by_id.(dst).actor.Actor.pos src seq (describe payload)

(* Post [payload] from [src] (an actor's position; -1 = the
   coordinator/driver) to [dst] for the next round, under the key
   (src, seq), and admit it at once. [Mailbox.post] is a payload's one
   way into the inbox, and the inbox hands each destination its mail in
   key order. *)
let post t ~src ~dst ~seq payload =
  let id = id_of t dst in
  if id >= 0 then begin
    Mailbox.post t.inbox ~lane:coord_lane ~dst:id ~src ~seq payload;
    Mailbox.admit t.inbox ~lane:coord_lane refuse t
  end
  else if Debug.enabled () then
    (* Every destination comes out of the registry (neighbour sets,
       origins, join targets), so this is a scheduler bug, not load. *)
    Debug.failf "Service: message for unregistered position %d (from %d)" dst src
  else t.stats.dead_letters <- t.stats.dead_letters + 1

let coord_send t ~dst payload =
  let seq = t.coord_seq in
  t.coord_seq <- seq + 1;
  post t ~src:(-1) ~dst ~seq payload

(* ------------------------------------------------------------------ *)
(* Completion accounting (coordinator only)                            *)
(* ------------------------------------------------------------------ *)

let is_request t id = id >= 0 && id < t.next_request

let complete t (l : lookup) (o : outcome) =
  match l.kind with
  | User ->
      if is_request t l.request && Option.is_none t.requests.(l.request).rq_outcome then begin
        let rq = t.requests.(l.request) in
        rq.rq_outcome <- Some o;
        rq.rq_done_at <- t.now;
        (match o with
        | Delivered { hops; _ } ->
            t.stats.ok <- t.stats.ok + 1;
            t.stats.hops_total <- t.stats.hops_total + hops;
            let b = min hops (Array.length t.hops_hist - 1) in
            t.hops_hist.(b) <- t.hops_hist.(b) + 1
        | Failed _ -> t.stats.failed <- t.stats.failed + 1);
        if t.record then linef t "t=%d req %d %s" t.now l.request (describe_outcome o);
        if Ftr_obs.Flag.enabled () then begin
          (match o with
          | Delivered { hops; _ } ->
              t.unreported_hops <- room t.unreported_hops t.n_unreported hops;
              t.unreported_hops.(t.n_unreported) <- hops;
              t.n_unreported <- t.n_unreported + 1
          | Failed _ -> t.unreported_failed <- t.unreported_failed + 1);
          if rq.rq_traced then begin
            (* Trace ids pure in the request id, whatever the completion order. *)
            Ftr_obs.Tracing.set_next_index rq.rq_id;
            Actor.replay_trace ~nodes:"service" ~strategy:"svc_lookup" l o
          end
        end
      end
  | Placement _ | Link | Solicit _ -> (
      match o with
      | Delivered _ -> t.stats.maint_ok <- t.stats.maint_ok + 1
      | Failed _ -> t.stats.maint_failed <- t.stats.maint_failed + 1)

(* The user lookups completed since the last call, into
   [svc_requests_total{outcome}] and [svc_request_hops]: one registry
   update per metric per round, not one per completion. *)
let report_requests t =
  if Ftr_obs.Flag.enabled () then begin
    if t.n_unreported > 0 then begin
      Ftr_obs.Metrics.incr_by ~labels:[ ("outcome", "delivered") ] "svc_requests_total"
        t.n_unreported;
      Ftr_obs.Metrics.observe_ints "svc_request_hops" t.unreported_hops t.n_unreported;
      t.n_unreported <- 0
    end;
    if t.unreported_failed > 0 then begin
      Ftr_obs.Metrics.incr_by ~labels:[ ("outcome", "failed") ] "svc_requests_total"
        t.unreported_failed;
      t.unreported_failed <- 0
    end
  end

(* ------------------------------------------------------------------ *)
(* Control operations (between rounds)                                 *)
(* ------------------------------------------------------------------ *)

let request ?(traced = false) t ~src ~target =
  if not (view_alive t src) then invalid_arg "Service.request: source is not a live actor";
  if target < 0 || target >= t.line_size then invalid_arg "Service.request: target off the line";
  let id = t.next_request in
  let rq =
    {
      rq_id = id;
      rq_src = src;
      rq_target = target;
      rq_issued = t.now;
      rq_traced = traced;
      rq_outcome = None;
      rq_done_at = -1;
    }
  in
  t.requests <- room t.requests id rq;
  t.requests.(id) <- rq;
  t.next_request <- id + 1;
  t.stats.issued <- t.stats.issued + 1;
  if t.record then linef t "t=%d req %d %d->%d" t.now id src target;
  coord_send t ~dst:src
    (Lookup (fresh_lookup ~traced ~request:id ~origin:src ~target User));
  id

let join t ~pos ~via =
  if pos < 0 || pos >= t.line_size then invalid_arg "Service.join: position off the line";
  if known t pos then invalid_arg "Service.join: position already in the registry";
  if not (view_alive t via) then invalid_arg "Service.join: bootstrap node is dead";
  ignore (register t ~pos ~alive:true);
  t.stats.joins <- t.stats.joins + 1;
  t.stats.maint_issued <- t.stats.maint_issued + 1;
  if t.record then linef t "t=%d join %d via %d" t.now pos via;
  if Ftr_obs.Flag.enabled () then Ftr_obs.Metrics.incr "svc_joins_total";
  coord_send t ~dst:via
    (Lookup (fresh_lookup ~request:(-1) ~origin:pos ~target:pos (Placement { joiner = pos })))

let crash t ~pos =
  let id = id_of t pos in
  if id >= 0 && t.by_id.(id).actor.Actor.alive then begin
    t.by_id.(id).actor.Actor.alive <- false;
    mark_dead t pos;
    t.stats.crashes <- t.stats.crashes + 1;
    if t.record then linef t "t=%d crash %d" t.now pos;
    if Ftr_obs.Flag.enabled () then Ftr_obs.Metrics.incr "svc_crashes_total"
  end

let leave t ~pos =
  if view_alive t pos then begin
    if t.record then linef t "t=%d leave %d" t.now pos;
    coord_send t ~dst:pos Leave_now
  end

let stabilize t ~pos =
  if view_alive t pos then begin
    if t.record then linef t "t=%d stab %d" t.now pos;
    coord_send t ~dst:pos Stabilize
  end

(* ------------------------------------------------------------------ *)
(* The round                                                           *)
(* ------------------------------------------------------------------ *)

(* Mail delivered to a dead actor, drained by the coordinator in key
   order under the shared dead-carrier rule ([Actor.dead_mail]): a
   returned lookup travels back to its sender as a [Bounce] at the next
   tick. *)
let drain_dead t (s : slot) =
  Mailbox.drain t.inbox s.id
    (fun (s : slot) ~src ~seq msg ->
      let pos = s.actor.Actor.pos in
      t.stats.handled <- t.stats.handled + 1;
      if t.record then linef t "t=%d dead %d<-%d#%d %s" t.now pos src seq (describe msg);
      match Actor.dead_mail ~dead:pos ~src msg with
      | Actor.Return_to_sender payload ->
          t.stats.bounces <- t.stats.bounces + 1;
          let bounce_seq = s.next_seq in
          s.next_seq <- bounce_seq + 1;
          post t ~src:pos ~dst:src ~seq:bounce_seq payload
      | Actor.Lost (l, o) -> complete t l o
      | Actor.Dead_letter -> t.stats.dead_letters <- t.stats.dead_letters + 1)
    s

(* Phase 1: deliver the mail posted since the last round, then one pass
   over the registry in position order. An actor with mail is due: a
   dead one's mail is drained on the spot, a live one is queued in the
   reusable due buffer for the shards. Dead drains only post mail for
   the next tick, so they cannot change which live actors are due. *)
let scan t =
  Mailbox.deliver t.inbox;
  if Debug.enabled () && not (Mailbox.well_ordered t.inbox) then
    Debug.failf "Service: the inbox lost its delivery order at t=%d" t.now;
  t.ndue <- 0;
  for i = 0 to t.registered - 1 do
    let id = t.order.(i) in
    if Mailbox.length t.inbox id > 0 then begin
      let s = t.by_id.(id) in
      if s.actor.Actor.alive then begin
        if t.ndue = Array.length t.due then t.due <- room t.due t.ndue id;
        t.due.(t.ndue) <- id;
        t.ndue <- t.ndue + 1
      end
      else drain_dead t s
    end
  done

let process_shard t acc shard =
  let n = t.ndue in
  let lo = shard * n / t.nshards and hi = (shard + 1) * n / t.nshards in
  (* One handler for the whole shard: the drain passes it the actor. *)
  let handle a ~src ~seq msg =
    if t.record then
      Buffer.add_string acc.buf
        (Printf.sprintf "t=%d %d<-%d#%d %s\n" t.now a.Actor.pos src seq (describe msg));
    Actor.handle acc.ctx a msg
  in
  for i = lo to hi - 1 do
    let id = t.due.(i) in
    Mailbox.drain t.inbox id handle t.by_id.(id).actor
  done

(* Fold shard [s]'s accumulator into the service and leave it empty for
   the next round. *)
let merge_acc t s acc =
  let c = acc.ctx.Actor.counters in
  t.stats.messages <- t.stats.messages + c.Actor.c_messages;
  t.stats.replies <- t.stats.replies + c.Actor.c_replies;
  t.stats.probes <- t.stats.probes + c.Actor.c_probes;
  t.stats.repairs <- t.stats.repairs + c.Actor.c_repairs;
  t.stats.redirects <- t.stats.redirects + c.Actor.c_redirects;
  t.stats.maint_issued <- t.stats.maint_issued + c.Actor.c_maint_issued;
  t.stats.handled <- t.stats.handled + c.Actor.c_handled;
  Actor.clear_counters c;
  if t.record then begin
    Buffer.add_buffer t.transcript acc.buf;
    Buffer.clear acc.buf
  end;
  List.iter (fun (l, o) -> complete t l o) (List.rev acc.completions_rev);
  (* Everything the shard sent this round is delivered at the next tick,
     within the inbox's bound: its lane is counted here, in shard order. *)
  Mailbox.admit t.inbox ~lane:(s + 1) refuse t;
  t.stats.dead_letters <- t.stats.dead_letters + acc.strays;
  acc.strays <- 0;
  List.iter
    (fun pos ->
      mark_dead t pos;
      t.stats.leaves <- t.stats.leaves + 1;
      if Ftr_obs.Flag.enabled () then Ftr_obs.Metrics.incr "svc_leaves_total")
    (List.rev acc.departs_rev);
  acc.completions_rev <- [];
  acc.departs_rev <- []

let merge t = Array.iteri (merge_acc t) t.accs

(* One round: scan (drain the dead, collect the due), fan the due live
   actors out over the shards, merge. Advances the logical clock by one
   tick. With telemetry on, each phase is a span: [svc.scan],
   [svc.round] (the handlers) and [svc.merge]. *)
let step t ~pool =
  t.stats.rounds <- t.stats.rounds + 1;
  let spans = Ftr_obs.Flag.enabled () in
  if spans then Ftr_obs.Span.time "svc.scan" (fun () -> scan t) else scan t;
  if t.ndue > 0 then begin
    let run () = Pool.run_resident pool ~count:t.nshards (fun s -> process_shard t t.accs.(s) s) in
    if spans then Ftr_obs.Span.time "svc.round" run else run ();
    if spans then Ftr_obs.Span.time "svc.merge" (fun () -> merge t) else merge t
  end;
  report_requests t;
  t.now <- t.now + 1

(* Between rounds all delivered mail has been drained, so what is left
   is what waits for the next delivery. *)
let mail_pending t = Mailbox.posted t.inbox > 0

(* Run rounds with no new control input until the inbox is empty (or
   the safety cap trips — which the selfcheck would then report as
   leftover mail). Returns the number of rounds it took. *)
let drain ?cap t ~pool =
  let cap = match cap with Some c -> c | None -> (4 * t.ttl) + 16 in
  let rounds = ref 0 in
  while mail_pending t && !rounds < cap do
    step t ~pool;
    incr rounds
  done;
  !rounds

let pending_requests t =
  let acc = ref [] in
  for id = t.next_request - 1 downto 0 do
    let rq = t.requests.(id) in
    if Option.is_none rq.rq_outcome then acc := rq :: !acc
  done;
  !acc

(* Shutdown semantics for requests still open when the service stops:
   they are accounted as timeouts, not losses. *)
let force_timeouts t =
  List.iter
    (fun rq ->
      rq.rq_outcome <-
        Some (Failed { stuck_at = rq.rq_src; hops = 0; reason = "service_shutdown" });
      rq.rq_done_at <- t.now;
      t.stats.timed_out <- t.stats.timed_out + 1;
      if t.record then linef t "t=%d req %d timeout" t.now rq.rq_id)
    (pending_requests t)

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

type actor_view = {
  av_pos : int;
  av_alive : bool;
  av_left : int option;
  av_right : int option;
  av_long : int array;
  av_mail_length : int; (* mail waiting for the actor: delivered or posted *)
}

let inbox t = t.inbox

let iter_actors t f =
  for i = 0 to t.registered - 1 do
    let { actor = a; id; _ } = t.by_id.(t.order.(i)) in
    f
        {
          av_pos = a.Actor.pos;
          av_alive = a.Actor.alive;
          av_left = Actor.pointer_opt a.Actor.left;
          av_right = Actor.pointer_opt a.Actor.right;
          av_long = Actor.long_links a;
          av_mail_length = Mailbox.length t.inbox id + Mailbox.pending t.inbox id;
        }
  done

type request_view = {
  rv_id : int;
  rv_src : int;
  rv_target : int;
  rv_issued : int;
  rv_done_at : int;
  rv_outcome : outcome option;
}

let iter_requests t f =
  for id = 0 to t.next_request - 1 do
    let rq = t.requests.(id) in
    f
      {
        rv_id = rq.rq_id;
        rv_src = rq.rq_src;
        rv_target = rq.rq_target;
        rv_issued = rq.rq_issued;
        rv_done_at = rq.rq_done_at;
        rv_outcome = rq.rq_outcome;
      }
  done
