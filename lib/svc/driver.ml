(* The serve workload driver: boots a [Service.t] on an evenly spread
   population ([Service.boot]), then runs a tick loop that injects user
   lookups and (optionally) mid-run churn — joins, crashes, graceful
   leaves, stabilization pulses — before draining the scheduler clean.

   All randomness comes from [Ftr_exec.Seed] streams: per-actor RNGs use
   the actor's line position as the stream index, the driver's own
   workload RNG uses index [line_size] and the boot sampler uses index
   [line_size + 1], so no stream is ever shared. Wall-clock
   only feeds the requests/s figure, read through [Ftr_obs.Span.now]
   (rule T2); everything else in the report is deterministic, and
   [report_lines ~wall:false] renders exactly that deterministic subset
   for the byte-identity selfcheck. *)

module Rng = Ftr_prng.Rng
module Sample = Ftr_prng.Sample
module Seed = Ftr_exec.Seed
module Pool = Ftr_exec.Pool

type config = {
  line_size : int;
  initial : int; (* nodes populated before the service starts *)
  links : int;
  seed : int;
  ticks : int; (* control horizon; draining adds more rounds *)
  rate : int; (* user lookups issued per tick *)
  join_rate : float; (* Poisson means per tick *)
  crash_rate : float;
  leave_rate : float;
  stabilize : int; (* stabilization pulses per tick *)
  ttl : int;
  jobs : int option; (* worker domains; None = recommended *)
  shards : int; (* fixed shard count — must not vary with jobs *)
  capacity : int option; (* mailbox capacity override *)
  regenerate : bool;
  record : bool; (* keep the transcript *)
  explain : int option; (* request id to trace through Ftr_obs.Tracing *)
}

let default_config =
  {
    line_size = 4096;
    initial = 256;
    links = 4;
    seed = 1;
    ticks = 64;
    rate = 8;
    join_rate = 0.0;
    crash_rate = 0.0;
    leave_rate = 0.0;
    stabilize = 0;
    ttl = 256;
    jobs = None;
    shards = 8;
    capacity = None;
    regenerate = true;
    record = false;
    explain = None;
  }

type report = {
  rp_ticks : int;
  rp_rounds : int;
  rp_live : int;
  rp_issued : int;
  rp_delivered : int;
  rp_failed : int;
  rp_timed_out : int;
  rp_mean_hops : float;
  rp_p50_hops : int;
  rp_p99_hops : int;
  rp_messages : int;
  rp_replies : int;
  rp_probes : int;
  rp_repairs : int;
  rp_redirects : int;
  rp_joins : int;
  rp_crashes : int;
  rp_leaves : int;
  rp_bounces : int;
  rp_dropped : int;
  rp_dead_letters : int;
  rp_handled : int;
  rp_maint_issued : int;
  rp_maint_ok : int;
  rp_maint_failed : int;
  rp_wall_seconds : float;
  rp_requests_per_second : float;
}

type result = { res_report : report; res_transcript : string; res_service : Service.t }

(* Exact quantile over the per-hop-count histogram: smallest hop count h
   such that at least [q] of the delivered requests took <= h hops. *)
let hist_quantile hist q =
  let total = Array.fold_left ( + ) 0 hist in
  if total = 0 then 0
  else begin
    let need = int_of_float (ceil (q *. float_of_int total)) in
    let need = if need < 1 then 1 else need in
    let cum = ref 0 and ans = ref (Array.length hist - 1) and found = ref false in
    Array.iteri
      (fun h n ->
        cum := !cum + n;
        if (not !found) && !cum >= need then begin
          ans := h;
          found := true
        end)
      hist;
    !ans
  end

let report_of svc ~ticks ~wall =
  let s = Service.stats svc in
  let hist = Service.hops_histogram svc in
  {
    rp_ticks = ticks;
    rp_rounds = s.Service.rounds;
    rp_live = Service.live_count svc;
    rp_issued = s.Service.issued;
    rp_delivered = s.Service.ok;
    rp_failed = s.Service.failed;
    rp_timed_out = s.Service.timed_out;
    rp_mean_hops =
      (if s.Service.ok = 0 then 0.0
       else float_of_int s.Service.hops_total /. float_of_int s.Service.ok);
    rp_p50_hops = hist_quantile hist 0.5;
    rp_p99_hops = hist_quantile hist 0.99;
    rp_messages = s.Service.messages;
    rp_replies = s.Service.replies;
    rp_probes = s.Service.probes;
    rp_repairs = s.Service.repairs;
    rp_redirects = s.Service.redirects;
    rp_joins = s.Service.joins;
    rp_crashes = s.Service.crashes;
    rp_leaves = s.Service.leaves;
    rp_bounces = s.Service.bounces;
    rp_dropped = s.Service.dropped;
    rp_dead_letters = s.Service.dead_letters;
    rp_handled = s.Service.handled;
    rp_maint_issued = s.Service.maint_issued;
    rp_maint_ok = s.Service.maint_ok;
    rp_maint_failed = s.Service.maint_failed;
    rp_wall_seconds = wall;
    rp_requests_per_second =
      (if wall > 0.0 then float_of_int s.Service.issued /. wall else 0.0);
  }

(* The deterministic rendering: with [wall = false] (the default) every
   line is a pure function of the run, byte-comparable across jobs. *)
let report_lines ?(wall = false) r =
  let l = ref [] in
  let add fmt = Printf.ksprintf (fun s -> l := s :: !l) fmt in
  add "service report";
  add "  ticks       %d (rounds %d)" r.rp_ticks r.rp_rounds;
  add "  live nodes  %d" r.rp_live;
  add "  requests    issued %d  delivered %d  failed %d  timed_out %d" r.rp_issued
    r.rp_delivered r.rp_failed r.rp_timed_out;
  add "  hops        mean %.3f  p50 %d  p99 %d" r.rp_mean_hops r.rp_p50_hops r.rp_p99_hops;
  add "  traffic     forwards %d  replies %d  probes %d  handled %d" r.rp_messages r.rp_replies
    r.rp_probes r.rp_handled;
  add "  repair      repairs %d  redirects %d  bounces %d" r.rp_repairs r.rp_redirects
    r.rp_bounces;
  add "  churn       joins %d  crashes %d  leaves %d" r.rp_joins r.rp_crashes r.rp_leaves;
  add "  maintenance issued %d  ok %d  failed %d" r.rp_maint_issued r.rp_maint_ok
    r.rp_maint_failed;
  add "  mail        dropped %d  dead_letters %d" r.rp_dropped r.rp_dead_letters;
  if wall then
    add "  wall        %.3fs  (%.0f requests/s)" r.rp_wall_seconds r.rp_requests_per_second;
  List.rev !l

let report_json ?(wall = true) r =
  let module J = Ftr_obs.Json in
  let fields =
    [
      ("ticks", J.Int r.rp_ticks);
      ("rounds", J.Int r.rp_rounds);
      ("live_nodes", J.Int r.rp_live);
      ("issued", J.Int r.rp_issued);
      ("delivered", J.Int r.rp_delivered);
      ("failed", J.Int r.rp_failed);
      ("timed_out", J.Int r.rp_timed_out);
      ("mean_hops", J.Float r.rp_mean_hops);
      ("p50_hops", J.Int r.rp_p50_hops);
      ("p99_hops", J.Int r.rp_p99_hops);
      ("forwards", J.Int r.rp_messages);
      ("replies", J.Int r.rp_replies);
      ("probes", J.Int r.rp_probes);
      ("repairs", J.Int r.rp_repairs);
      ("redirects", J.Int r.rp_redirects);
      ("joins", J.Int r.rp_joins);
      ("crashes", J.Int r.rp_crashes);
      ("leaves", J.Int r.rp_leaves);
      ("bounces", J.Int r.rp_bounces);
      ("dropped", J.Int r.rp_dropped);
      ("dead_letters", J.Int r.rp_dead_letters);
      ("handled", J.Int r.rp_handled);
      ("maint_issued", J.Int r.rp_maint_issued);
      ("maint_ok", J.Int r.rp_maint_ok);
      ("maint_failed", J.Int r.rp_maint_failed);
    ]
  in
  let fields =
    if wall then
      fields
      @ [
          ("wall_seconds", J.Float r.rp_wall_seconds);
          ("requests_per_second", J.Float r.rp_requests_per_second);
        ]
    else fields
  in
  J.Obj fields

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

(* The boot population: [initial] positions spread evenly on the line. *)
let positions cfg = List.init cfg.initial (fun i -> i * cfg.line_size / cfg.initial)

(* The starting network: a booted population is the closest thing the
   paper has to "a long-running system in steady state". *)
let boot cfg =
  Service.boot ?capacity:cfg.capacity ~ttl:cfg.ttl ~regenerate:cfg.regenerate
    ~shards:cfg.shards ~record:cfg.record ~line_size:cfg.line_size ~links:cfg.links
    ~seed:cfg.seed ~positions:(positions cfg) ()

(* The same population on the event-engine transport, [Overlay.populate]
   drawing from the boot sampler's stream: [Service.of_overlay] of it
   equals [boot cfg] actor for actor. It stays for the e2e benchmark's
   set-up and for the transport comparisons in the tests. *)
let build_overlay cfg =
  let rng = Seed.rng_for ~seed:cfg.seed ~index:(cfg.line_size + 1) in
  let engine = Ftr_sim.Engine.create () in
  let ov =
    Ftr_p2p.Overlay.create ~ttl:cfg.ttl ~regenerate:cfg.regenerate ~line_size:cfg.line_size
      ~links:cfg.links ~rng engine
  in
  Ftr_p2p.Overlay.populate ov ~positions:(positions cfg);
  Ftr_sim.Engine.run engine;
  ov

(* A live actor's position, uniform over the live ones in one draw of
   [rng], or -1 when none is left. Nothing is allocated: the draw is an
   index into the live actors in position order, walked in the registry. *)
let pick_live rng svc =
  let n = Service.live_count svc in
  if n = 0 then -1 else Service.nth_live svc (Rng.int rng n)

(* One tick's control inputs, in a fixed order (crashes, leaves, joins,
   stabilize pulses, user requests) so the control stream is part of the
   deterministic prefix every worker count shares. *)
let control cfg rng svc =
  let live_floor = 2 in
  if cfg.crash_rate > 0.0 then
    for _ = 1 to Sample.poisson rng ~lambda:cfg.crash_rate do
      if Service.live_count svc > live_floor then Service.crash svc ~pos:(pick_live rng svc)
    done;
  if cfg.leave_rate > 0.0 then
    for _ = 1 to Sample.poisson rng ~lambda:cfg.leave_rate do
      if Service.live_count svc > live_floor then Service.leave svc ~pos:(pick_live rng svc)
    done;
  if cfg.join_rate > 0.0 then
    for _ = 1 to Sample.poisson rng ~lambda:cfg.join_rate do
      let via = pick_live rng svc in
      if via >= 0 then begin
        (* A fresh position: never-occupied grid points keep the
           registry conservation exact (a position is one actor, ever). *)
        let rec fresh tries =
          if tries = 0 then -1
          else
            let pos = Rng.int rng cfg.line_size in
            if Service.known svc pos then fresh (tries - 1) else pos
        in
        let pos = fresh 64 in
        if pos >= 0 then Service.join svc ~pos ~via
      end
    done;
  for _ = 1 to cfg.stabilize do
    let pos = pick_live rng svc in
    if pos >= 0 then Service.stabilize svc ~pos
  done;
  for _ = 1 to cfg.rate do
    let src = pick_live rng svc in
    if src >= 0 then begin
      let target = Rng.int rng cfg.line_size in
      let traced =
        match cfg.explain with Some k -> k = Service.next_request_id svc | None -> false
      in
      ignore (Service.request ~traced svc ~src ~target)
    end
  done

let run cfg =
  let svc = boot cfg in
  let rng = Seed.rng_for ~seed:cfg.seed ~index:cfg.line_size in
  let wall0 = Ftr_obs.Span.now () in
  Pool.with_resident ?jobs:cfg.jobs (fun pool ->
      for _tick = 1 to cfg.ticks do
        control cfg rng svc;
        Service.step svc ~pool
      done;
      ignore (Service.drain svc ~pool));
  Service.force_timeouts svc;
  let wall = Ftr_obs.Span.elapsed wall0 in
  if Ftr_obs.Flag.enabled () then begin
    Ftr_obs.Metrics.incr_by "svc_rounds_total" (Service.stats svc).Service.rounds;
    Ftr_obs.Metrics.set_gauge "svc_live_nodes" (float_of_int (Service.live_count svc))
  end;
  {
    res_report = report_of svc ~ticks:cfg.ticks ~wall;
    res_transcript = Service.transcript svc;
    res_service = svc;
  }

(* ------------------------------------------------------------------ *)
(* Selfcheck invariants                                                *)
(* ------------------------------------------------------------------ *)

(* Structural invariants a finished run must satisfy; each violation is
   one human-readable line. Used by [p2psim serve --selfcheck] and the
   kill-mid-churn test. *)
let invariant_problems res =
  let svc = res.res_service in
  let r = res.res_report in
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if r.rp_issued <> r.rp_delivered + r.rp_failed + r.rp_timed_out then
    bad "request conservation: issued %d <> delivered %d + failed %d + timed_out %d"
      r.rp_issued r.rp_delivered r.rp_failed r.rp_timed_out;
  if r.rp_dropped <> 0 then bad "inbox overflow dropped %d messages" r.rp_dropped;
  let inbox = Service.inbox svc in
  if not (Mailbox.well_ordered inbox) then bad "the inbox violates the delivery order";
  if Mailbox.high_water inbox > Mailbox.capacity inbox then
    bad "inbox high water %d exceeds capacity %d" (Mailbox.high_water inbox)
      (Mailbox.capacity inbox);
  Service.iter_actors svc (fun v ->
      if v.Service.av_mail_length <> 0 && v.Service.av_alive then
        bad "actor %d still holds %d undrained messages" v.Service.av_pos
          v.Service.av_mail_length;
      if Array.length v.Service.av_long > Service.links svc then
        bad "actor %d carries %d long links (budget %d)" v.Service.av_pos
          (Array.length v.Service.av_long) (Service.links svc));
  List.rev !problems
