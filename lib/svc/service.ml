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
      chunks appended, counters added, completions applied, outboxes
      posted into mailboxes (delivery at now+latency), departures
      folded into the liveness view. Since slices partition the sorted
      due list, the merged order equals the order a single worker would
      have produced: delivery order is a pure function of
      (seed, logical time, sender id, sequence number).

   The liveness view is a frozen byte per line position: written by the
   coordinator between rounds, read-only inside one — the second half of
   the barrier discipline that makes the mailboxes safe without locks. *)

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
  mutable dropped : int; (* mailbox-capacity drops *)
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
   beside it: its mailbox and its per-sender sequence counter. *)
type slot = { actor : Actor.t; mailbox : payload Mailbox.t; mutable next_seq : int }

(* Per-shard accumulator: everything a worker produces besides its own
   actors' state, merged by the coordinator in shard order. *)
type shard_acc = {
  counters : Actor.counters;
  buf : Buffer.t;
  mutable out_rev : envelope list;
  mutable completions_rev : (lookup * outcome) list;
  mutable departs_rev : int list;
}

type t = {
  line_size : int;
  links : int;
  ttl : int;
  seed : int;
  capacity : int option;
  regenerate : bool;
  nshards : int;
  latency : int;
  actors : (int, slot) Hashtbl.t;
  mutable order : int array; (* sorted positions of every registered actor *)
  mutable order_dirty : bool;
  alive_view : Bytes.t;
  pl : Sample.power_law;
  mutable now : int;
  mutable next_request : int;
  mutable coord_seq : int;
  requests : (int, request_state) Hashtbl.t;
  hops_hist : int array; (* per-success hop counts, exact *)
  stats : stats;
  transcript : Buffer.t;
  record : bool;
}

let create ?capacity ?(ttl = 256) ?(regenerate = true) ?(shards = 8) ?(record = false)
    ~line_size ~links ~seed () =
  if line_size < 2 then invalid_arg "Service.create: line_size must be >= 2";
  if links < 1 then invalid_arg "Service.create: links must be >= 1";
  if shards < 1 then invalid_arg "Service.create: shards must be >= 1";
  {
    line_size;
    links;
    ttl;
    seed;
    capacity;
    regenerate;
    nshards = shards;
    latency = 1;
    actors = Hashtbl.create 1024;
    order = [||];
    order_dirty = false;
    alive_view = Bytes.make line_size '\000';
    pl = Sample.power_law ~exponent:1.0 ~max_length:(line_size - 1);
    now = 0;
    next_request = 0;
    coord_seq = 0;
    requests = Hashtbl.create 64;
    hops_hist = Array.make (ttl + 2) 0;
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

let stats t = t.stats

let now t = t.now

let line_size t = t.line_size

let links t = t.links

let seed t = t.seed

let next_request_id t = t.next_request

let transcript t = Buffer.contents t.transcript

let hops_histogram t = Array.copy t.hops_hist

let linef t fmt = Printf.ksprintf (fun s -> Buffer.add_string t.transcript s; Buffer.add_char t.transcript '\n') fmt

(* ------------------------------------------------------------------ *)
(* Membership and registry                                             *)
(* ------------------------------------------------------------------ *)

let refresh_order t =
  if t.order_dirty then begin
    let acc = ref [] in
    Hashtbl.iter (fun pos _ -> acc := pos :: !acc) t.actors;
    let arr = Array.of_list !acc in
    Array.sort Int.compare arr;
    t.order <- arr;
    t.order_dirty <- false
  end

let view_alive t pos = pos >= 0 && pos < t.line_size && Bytes.get t.alive_view pos = '\001'

let known t pos = Hashtbl.mem t.actors pos

let live_positions t =
  refresh_order t;
  Array.to_list (Array.of_seq (Seq.filter (view_alive t) (Array.to_seq t.order)))

let live_count t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr n) t.alive_view;
  !n

let register t ~pos ~alive =
  if pos < 0 || pos >= t.line_size then invalid_arg "Service.register: position off the line";
  if Hashtbl.mem t.actors pos then invalid_arg "Service.register: position already registered";
  let a = Actor.create ~pos ~rng:(Seed.rng_for ~seed:t.seed ~index:pos) () in
  a.Actor.alive <- alive;
  Hashtbl.replace t.actors pos
    { actor = a; mailbox = Mailbox.create ?capacity:t.capacity ~owner:pos (); next_seq = 0 };
  if alive then Bytes.set t.alive_view pos '\001';
  t.order_dirty <- true;
  a

(* Snapshot constructor: the service starts from exactly the link state
   the engine transport reached (populate, joins, crashes...), so the two
   transports can be compared on the same (seed, network, failure set).
   Dead registry entries come along too — their mailboxes are what in-
   flight mail bounces off. *)
let of_overlay ?capacity ?ttl ?(regenerate = true) ?shards ?record ~seed ov =
  let module O = Ftr_p2p.Overlay in
  let t =
    create ?capacity
      ~ttl:(match ttl with Some v -> v | None -> O.ttl ov)
      ~regenerate ?shards ?record ~line_size:(O.line_size ov) ~links:(O.links ov) ~seed ()
  in
  O.iter_nodes ov (fun v ->
      let a = register t ~pos:v.O.view_pos ~alive:v.O.view_alive in
      a.Actor.left <- v.O.view_left;
      a.Actor.right <- v.O.view_right;
      a.Actor.long <- v.O.view_long;
      a.Actor.births <- v.O.view_births;
      a.Actor.birth_tick <- List.fold_left max 0 v.O.view_births);
  refresh_order t;
  t

(* ------------------------------------------------------------------ *)
(* Posting                                                             *)
(* ------------------------------------------------------------------ *)

let post_env t (env : envelope) =
  match Hashtbl.find_opt t.actors env.dst with
  | None ->
      (* Every destination comes out of the registry (neighbour sets,
         origins, join targets), so this is a scheduler bug, not load. *)
      if Debug.enabled () then
        Debug.failf "Service: message for unregistered position %d (from %d)" env.dst env.src
      else t.stats.dead_letters <- t.stats.dead_letters + 1
  | Some s ->
      if Debug.enabled () && env.deliver_at < t.now then
        Debug.failf "Service: delivery time %d before now %d" env.deliver_at t.now;
      if not (Mailbox.post s.mailbox ~time:env.deliver_at ~src:env.src ~seq:env.seq env.payload)
      then begin
        t.stats.dropped <- t.stats.dropped + 1;
        if t.record then
          linef t "t=%d drop %d<-%d#%d %s" t.now env.dst env.src env.seq (describe env.payload)
      end
      else if Debug.enabled () && not (Mailbox.well_ordered s.mailbox) then
        Debug.failf "Service: mailbox %d lost its delivery order" env.dst

let coord_send t ~dst ~deliver_at payload =
  let seq = t.coord_seq in
  t.coord_seq <- seq + 1;
  post_env t { src = -1; dst; seq; deliver_at; payload }

(* ------------------------------------------------------------------ *)
(* Completion accounting (coordinator only)                            *)
(* ------------------------------------------------------------------ *)

let complete t (l : lookup) (o : outcome) =
  match l.kind with
  | User -> (
      match Hashtbl.find_opt t.requests l.request with
      | Some rq when Option.is_none rq.rq_outcome ->
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
            Ftr_obs.Metrics.incr
              ~labels:
                [ ("outcome", match o with Delivered _ -> "delivered" | Failed _ -> "failed") ]
              "svc_requests_total";
            (match o with
            | Delivered { hops; _ } ->
                Ftr_obs.Metrics.observe "svc_request_hops" (float_of_int hops)
            | Failed _ -> ());
            if rq.rq_traced then begin
              (* Trace ids pure in the request id, whatever the completion order. *)
              Ftr_obs.Tracing.set_next_index rq.rq_id;
              Actor.replay_trace ~nodes:"service" ~strategy:"svc_lookup" l o
            end
          end
      | Some _ | None -> ())
  | Placement _ | Link | Solicit _ -> (
      match o with
      | Delivered _ -> t.stats.maint_ok <- t.stats.maint_ok + 1
      | Failed _ -> t.stats.maint_failed <- t.stats.maint_failed + 1)

(* ------------------------------------------------------------------ *)
(* Control operations (between rounds)                                 *)
(* ------------------------------------------------------------------ *)

let request ?(traced = false) t ~src ~target =
  if not (view_alive t src) then invalid_arg "Service.request: source is not a live actor";
  if target < 0 || target >= t.line_size then invalid_arg "Service.request: target off the line";
  let id = t.next_request in
  t.next_request <- id + 1;
  Hashtbl.replace t.requests id
    {
      rq_id = id;
      rq_src = src;
      rq_target = target;
      rq_issued = t.now;
      rq_traced = traced;
      rq_outcome = None;
      rq_done_at = -1;
    };
  t.stats.issued <- t.stats.issued + 1;
  if t.record then linef t "t=%d req %d %d->%d" t.now id src target;
  coord_send t ~dst:src ~deliver_at:t.now
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
  coord_send t ~dst:via ~deliver_at:t.now
    (Lookup (fresh_lookup ~request:(-1) ~origin:pos ~target:pos (Placement { joiner = pos })))

let crash t ~pos =
  match Hashtbl.find_opt t.actors pos with
  | Some { actor = a; _ } when a.Actor.alive ->
      a.Actor.alive <- false;
      Bytes.set t.alive_view pos '\000';
      t.stats.crashes <- t.stats.crashes + 1;
      if t.record then linef t "t=%d crash %d" t.now pos;
      if Ftr_obs.Flag.enabled () then Ftr_obs.Metrics.incr "svc_crashes_total"
  | Some _ | None -> ()

let leave t ~pos =
  if view_alive t pos then begin
    if t.record then linef t "t=%d leave %d" t.now pos;
    coord_send t ~dst:pos ~deliver_at:t.now Leave_now
  end

let stabilize t ~pos =
  if view_alive t pos then begin
    if t.record then linef t "t=%d stab %d" t.now pos;
    coord_send t ~dst:pos ~deliver_at:t.now Stabilize
  end

(* ------------------------------------------------------------------ *)
(* The round                                                           *)
(* ------------------------------------------------------------------ *)

(* Mail due at a dead actor, drained by the coordinator in sorted order
   under the shared dead-carrier rule ([Actor.dead_mail]): a returned
   lookup travels back to its sender as a [Bounce] after one more
   latency. *)
let drain_dead t (s : slot) =
  let pos = s.actor.Actor.pos in
  List.iter
    (fun (e : payload Mailbox.entry) ->
      t.stats.handled <- t.stats.handled + 1;
      if t.record then
        linef t "t=%d dead %d<-%d#%d %s" t.now pos e.Mailbox.e_src e.Mailbox.e_seq
          (describe e.Mailbox.e_msg);
      match Actor.dead_mail ~dead:pos ~src:e.Mailbox.e_src e.Mailbox.e_msg with
      | Actor.Return_to_sender payload ->
          t.stats.bounces <- t.stats.bounces + 1;
          let seq = s.next_seq in
          s.next_seq <- seq + 1;
          post_env t
            {
              src = pos;
              dst = e.Mailbox.e_src;
              seq;
              deliver_at = t.now + t.latency;
              payload;
            }
      | Actor.Lost (l, o) -> complete t l o
      | Actor.Dead_letter -> t.stats.dead_letters <- t.stats.dead_letters + 1)
    (Mailbox.take_due s.mailbox ~now:t.now)

let fresh_acc () =
  {
    counters = Actor.fresh_counters ();
    buf = Buffer.create 1024;
    out_rev = [];
    completions_rev = [];
    departs_rev = [];
  }

let process_shard t (due : slot array) acc shard =
  let n = Array.length due in
  let lo = shard * n / t.nshards and hi = (shard + 1) * n / t.nshards in
  let ctx =
    {
      Actor.line_size = t.line_size;
      links = t.links;
      ttl = t.ttl;
      regenerate = t.regenerate;
      alive_view = t.alive_view;
      pl = t.pl;
      counters = acc.counters;
      send =
        (fun ~src ~dst payload ->
          let s = Hashtbl.find t.actors src.Actor.pos in
          let seq = s.next_seq in
          s.next_seq <- seq + 1;
          acc.out_rev <-
            {
              src = src.Actor.pos;
              dst;
              seq;
              deliver_at = t.now + t.latency;
              payload;
            }
            :: acc.out_rev);
      complete = (fun l o -> acc.completions_rev <- (l, o) :: acc.completions_rev);
      depart = (fun pos -> acc.departs_rev <- pos :: acc.departs_rev);
    }
  in
  for i = lo to hi - 1 do
    let { actor = a; mailbox; _ } = due.(i) in
    List.iter
      (fun (e : payload Mailbox.entry) ->
        if t.record then
          Buffer.add_string acc.buf
            (Printf.sprintf "t=%d %d<-%d#%d %s\n" t.now a.Actor.pos e.Mailbox.e_src
               e.Mailbox.e_seq (describe e.Mailbox.e_msg));
        Actor.handle ctx a e.Mailbox.e_msg)
      (Mailbox.take_due mailbox ~now:t.now)
  done

let merge_acc t acc =
  let c = acc.counters in
  t.stats.messages <- t.stats.messages + c.Actor.c_messages;
  t.stats.replies <- t.stats.replies + c.Actor.c_replies;
  t.stats.probes <- t.stats.probes + c.Actor.c_probes;
  t.stats.repairs <- t.stats.repairs + c.Actor.c_repairs;
  t.stats.redirects <- t.stats.redirects + c.Actor.c_redirects;
  t.stats.maint_issued <- t.stats.maint_issued + c.Actor.c_maint_issued;
  t.stats.handled <- t.stats.handled + c.Actor.c_handled;
  if t.record then Buffer.add_buffer t.transcript acc.buf;
  List.iter (fun (l, o) -> complete t l o) (List.rev acc.completions_rev);
  List.iter (fun env -> post_env t env) (List.rev acc.out_rev);
  List.iter
    (fun pos ->
      Bytes.set t.alive_view pos '\000';
      t.stats.leaves <- t.stats.leaves + 1;
      if Ftr_obs.Flag.enabled () then Ftr_obs.Metrics.incr "svc_leaves_total")
    (List.rev acc.departs_rev)

(* One round: drain the dead, fan the due live actors out over the
   shards, merge. Advances the logical clock by one tick. *)
let step t ~pool =
  refresh_order t;
  t.stats.rounds <- t.stats.rounds + 1;
  Array.iter
    (fun pos ->
      let s = Hashtbl.find t.actors pos in
      if not s.actor.Actor.alive then
        match Mailbox.next_due s.mailbox with
        | Some d when d <= t.now -> drain_dead t s
        | Some _ | None -> ())
    t.order;
  let due = ref [] in
  Array.iter
    (fun pos ->
      let s = Hashtbl.find t.actors pos in
      if s.actor.Actor.alive then
        match Mailbox.next_due s.mailbox with
        | Some d when d <= t.now -> due := s :: !due
        | Some _ | None -> ())
    t.order;
  let due = Array.of_list (List.rev !due) in
  if Array.length due > 0 then begin
    let accs = Array.init t.nshards (fun _ -> fresh_acc ()) in
    let run () = Pool.run_resident pool ~count:t.nshards (fun s -> process_shard t due accs.(s) s) in
    if Ftr_obs.Flag.enabled () then Ftr_obs.Span.time "svc.round" run else run ();
    Array.iter (fun acc -> merge_acc t acc) accs
  end;
  t.now <- t.now + 1

let mail_pending t =
  refresh_order t;
  Array.exists
    (fun pos -> not (Mailbox.is_empty (Hashtbl.find t.actors pos).mailbox))
    t.order

(* Run rounds with no new control input until every mailbox is empty (or
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
    match Hashtbl.find_opt t.requests id with
    | Some rq when Option.is_none rq.rq_outcome -> acc := rq :: !acc
    | Some _ | None -> ()
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
  av_long : int list;
  av_births : int list;
  av_mail_length : int;
  av_mail_capacity : int;
  av_mail_dropped : int;
  av_mail_high_water : int;
  av_mail_well_ordered : bool;
  av_mail_keys : (int * int * int) list;
}

let iter_actors t f =
  refresh_order t;
  Array.iter
    (fun pos ->
      let { actor = a; mailbox; _ } = Hashtbl.find t.actors pos in
      f
        {
          av_pos = a.Actor.pos;
          av_alive = a.Actor.alive;
          av_left = a.Actor.left;
          av_right = a.Actor.right;
          av_long = a.Actor.long;
          av_births = a.Actor.births;
          av_mail_length = Mailbox.length mailbox;
          av_mail_capacity = Mailbox.capacity mailbox;
          av_mail_dropped = Mailbox.dropped mailbox;
          av_mail_high_water = Mailbox.high_water mailbox;
          av_mail_well_ordered = Mailbox.well_ordered mailbox;
          av_mail_keys = Mailbox.keys mailbox;
        })
    t.order

type request_view = {
  rv_id : int;
  rv_src : int;
  rv_target : int;
  rv_issued : int;
  rv_done_at : int;
  rv_outcome : outcome option;
}

let request_outcome t ~request =
  match Hashtbl.find_opt t.requests request with
  | Some rq -> rq.rq_outcome
  | None -> None

let iter_requests t f =
  for id = 0 to t.next_request - 1 do
    match Hashtbl.find_opt t.requests id with
    | Some rq ->
        f
          {
            rv_id = rq.rq_id;
            rv_src = rq.rq_src;
            rv_target = rq.rq_target;
            rv_issued = rq.rq_issued;
            rv_done_at = rq.rq_done_at;
            rv_outcome = rq.rq_outcome;
          }
    | None -> ()
  done
