(* ftr-lint: disable-file R1 T2 -- benchmark wall-clock timing is the measurement itself *)

(* The five workloads. Each runs in its own process: it builds its inputs
   from the seed, sets the system up (several times, for a median), then
   measures for the requested seconds and checks every outcome.

   - Route workloads measure in passes over a fixed list of windows; a
     window is one closed-loop [Route_batch.run] call, and every pass must
     reproduce its network's first pass exactly.
   - Service and overlay workloads measure in episodes: set up, run the
     generated schedule tick by tick, drain, check. Every episode replays
     the same schedule from the same seed, so every episode must produce
     the same outcome digest.

   A traced run ([trace = true]) runs the first pass or episode untimed by
   spans (the reference for [obs.traced_slowdown]) and every later one
   with a span around each call into a layer. *)

module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Route_batch = Ftr_core.Route_batch
module Snapshot = Ftr_core.Snapshot
module Failure = Ftr_core.Failure
module Csr = Ftr_graph.Adjacency.Csr
module Bitset = Ftr_graph.Bitset
module Service = Ftr_svc.Service
module Driver = Ftr_svc.Driver
module Message = Ftr_svc.Message
module Overlay = Ftr_p2p.Overlay
module Engine = Ftr_sim.Engine
module Pool = Ftr_exec.Pool
module Seed = Ftr_exec.Seed

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  small : bool; (* about 1/50 of the full sizes: the @bench-smoke scale *)
  work_dir : string; (* scratch files (snapshots), inside the checkout *)
  spans : Spans.t;
}

type result = {
  attempted : int; (* lookups issued over the whole run *)
  mismatched : int; (* lookups whose outcome is missing or disagrees with its reference *)
  problems : string list; (* failed correctness gates *)
  digest : string; (* hash of (outcome, hops) in lookup-id order *)
  values : (string, float) Hashtbl.t; (* metric name -> value *)
}

let now_ns = Spans.now_ns

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let ms_of_ns ns = float_of_int ns *. 1e-6

(* Peak resident set of this process, from /proc (Linux). *)
let rss_peak_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> ( match int_of_string_opt kb with Some k -> float_of_int k /. 1024.0 | None -> acc)
              | [] -> acc)
          | _ -> acc)
        nan
        (String.split_on_char '\n' status)

(* Outcome digest: FNV-1a over the ints describing each outcome. *)
let mix h x = (h lxor (x land 0xffff_ffff)) * 0x100_0000_01b3 land max_int

let digest_hex h = Printf.sprintf "%016x" h

(* Run [step] while the next one still fits in [seconds] (judged by the
   mean of those so far), at least [min_runs] times. [step i] returns
   nothing; the caller's accumulators carry the results. *)
let repeat ~seconds ~min_runs step =
  let t0 = now_ns () in
  let runs = ref 0 in
  let continue_ () =
    !runs < min_runs
    ||
    let elapsed = seconds_since t0 in
    elapsed +. (elapsed /. float_of_int !runs) <= seconds
  in
  while continue_ () do
    step !runs;
    incr runs
  done;
  !runs

type gc_window = { minor0 : float; major0 : int }

let gc_start () = { minor0 = Gc.minor_words (); major0 = (Gc.quick_stat ()).Gc.major_collections }

let gc_stop g ~lookups out =
  let put = Hashtbl.replace out in
  put "gc.minor_words_per_lookup" ((Gc.minor_words () -. g.minor0) /. float_of_int lookups);
  put "gc.major_collections"
    (float_of_int ((Gc.quick_stat ()).Gc.major_collections - g.major0))

(* The per-layer entries every traced run fills the same way. *)
let finish_trace o out ~measured_s =
  let sp = o.spans in
  let put = Hashtbl.replace out in
  let bench_self =
    List.fold_left
      (fun acc n -> if String.equal n "setup" || String.equal n "workload" then acc else acc +. Spans.self_s sp n)
      0.0 Catalog.bench_spans
  in
  put "trace.unattributed_share" (bench_self /. measured_s);
  put "gc.top_heap_mb"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0)

let p50_us sp name = Spans.percentile_s sp name 0.5 *. 1e6

(* A run measures in slices (route passes, service episodes) and reports
   the median over slices of each slice's throughput and latency
   percentiles, so a burst of load from outside the process moves only
   the slices it overlapped. Each slice is first scaled by the host
   clock's slowdown over it ([Clock]). *)
type slices = { mutable rates : float list; mutable p50s : float list; mutable p99s : float list }

let slices () = { rates = []; p50s = []; p99s = [] }

let add_slice sl ~lookups ~ns ~slowdown latency =
  sl.rates <- (float_of_int lookups /. (float_of_int ns *. 1e-9) *. slowdown) :: sl.rates;
  sl.p50s <- (Stats.percentile latency 0.5 /. slowdown) :: sl.p50s;
  sl.p99s <- (Stats.percentile latency 0.99 /. slowdown) :: sl.p99s

let put_slices put sl =
  put "lookups_per_s" (Stats.median sl.rates);
  put "latency_p50_ms" (Stats.median sl.p50s);
  put "latency_p99_ms" (Stats.median sl.p99s)

(* ------------------------------------------------------------------ *)
(* Route workloads                                                     *)
(* ------------------------------------------------------------------ *)

type route_spec = {
  n : int;
  links : int;
  fail : float; (* fraction of nodes failed; 0 = healthy *)
  strategy : Route.strategy;
  max_hops : int;
  snapshot : bool; (* set-up goes build -> save -> map -> validate *)
  setups : int;
  networks : int; (* distinct networks, routed one per pass in turn *)
  window : int; (* pairs per Route_batch.run call *)
  windows : int; (* windows per pass *)
}

let route_large small =
  {
    n = (if small then 1 lsl 14 else 1 lsl 20);
    links = 8;
    fail = 0.0;
    strategy = Route.Terminate;
    max_hops = 1024;
    snapshot = true;
    setups = 3;
    networks = 1;
    window = 256;
    windows = (if small then 16 else 500);
  }

let route_faulty small =
  {
    n = (if small then 1 lsl 12 else 1 lsl 16);
    links = 16;
    fail = 0.4;
    strategy = Route.Backtrack { history = 5 };
    max_hops = 1024;
    snapshot = false;
    setups = 5;
    networks = 5;
    (* Small windows: a window holding a route that spends the whole hop
       budget stands out, so p99 latency tracks the failure tail rather
       than host noise. *)
    window = 64;
    windows = (if small then 32 else 1600);
  }

let same_outcome a b =
  match (a, b) with
  | Route.Delivered { hops = h }, Route.Delivered { hops = h' } -> h = h'
  | Route.Failed f, Route.Failed f' ->
      f.hops = f'.hops && f.stuck_at = f'.stuck_at
      && String.equal (Route.reason_label f.reason) (Route.reason_label f'.reason)
  | Route.Delivered _, Route.Failed _ | Route.Failed _, Route.Delivered _ -> false

(* One set-up of network [slot]: build, then (route_large) snapshot round
   trip through the mmap loader, then (route_faulty) the failure mask. The
   snapshot file is unlinked as soon as it is mapped; the mapping outlives
   it. *)
let route_setup o spec ~slot k =
  let sp = o.spans in
  let t0 = now_ns () in
  Spans.enter sp (Spans.id sp "setup");
  Spans.enter sp (Spans.id sp "network.build");
  let built = Network.build_ideal ~n:spec.n ~links:spec.links (Seed.rng_for ~seed:o.seed ~index:(4 * slot)) in
  Spans.leave sp;
  let net =
    if not spec.snapshot then built
    else begin
      let path = Filename.concat o.work_dir (Printf.sprintf "route.%d.ftrsnap" k) in
      Spans.enter sp (Spans.id sp "snapshot.save");
      Snapshot.save built ~path;
      Spans.leave sp;
      Spans.enter sp (Spans.id sp "snapshot.map");
      let mapped = Snapshot.load ~validate:false ~path () in
      Spans.leave sp;
      Spans.enter sp (Spans.id sp "snapshot.validate");
      Csr.validate ~sorted:true (Network.csr mapped);
      Spans.leave sp;
      Sys.remove path;
      mapped
    end
  in
  let mask =
    if spec.fail > 0.0 then begin
      Spans.enter sp (Spans.id sp "failure.mask");
      let mask =
        Failure.random_node_fraction (Seed.rng_for ~seed:o.seed ~index:((4 * slot) + 1)) ~n:spec.n
          ~fraction:spec.fail
      in
      let view = Failure.of_node_mask mask in
      Spans.leave sp;
      Some (mask, view)
    end
    else None
  in
  Spans.leave sp;
  (net, mask, seconds_since t0)

let run_route o spec =
  let sp = o.spans in
  let out = Hashtbl.create 64 in
  let put = Hashtbl.replace out in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Spans.set_active sp o.trace;
  Spans.enter sp (Spans.id sp "workload");
  let clock = Clock.create () in
  (* Set up [setups] times for a median. Set-up k builds network
     [k mod networks], each from its own seed stream, and pass p routes
     network [p mod networks] only, so the working set within a pass is
     one network. Where the failures fall sets route_faulty's cost per
     lookup, so a run on a single network would let one draw move its
     throughput by several percent. *)
  let setup_times = ref [] and systems = Array.make spec.networks None in
  for k = 0 to spec.setups - 1 do
    let slot = k mod spec.networks in
    systems.(slot) <- None;
    Gc.full_major ();
    let net, mask, s = route_setup o spec ~slot k in
    setup_times := (s /. Clock.section clock) :: !setup_times;
    systems.(slot) <- Some (net, mask)
  done;
  let systems = Array.map Option.get systems in
  let pair_rng = Seed.rng_for ~seed:o.seed ~index:3 in
  let windows =
    Array.map
      (fun (_, mask) ->
        let alive = match mask with Some (bits, _) -> Bitset.get bits | None -> fun _ -> true in
        Array.init spec.windows (fun _ -> Gen.pairs pair_rng ~n:spec.n ~count:spec.window ~alive))
      systems
  in
  let nwin = spec.windows and per_pass = spec.windows * spec.window in
  (* Reference outcomes: each network's first pass. *)
  let first = Array.init spec.networks (fun _ -> Array.make nwin [||]) in
  let sl = slices () in
  let lookups = ref 0 and mismatched = ref 0 in
  (* Untraced reference (pass 0) and traced passes, for the slowdown. *)
  let plain_batch_ns = ref 0 in
  let traced_lookups = ref 0 and traced_hops = ref 0 and traced_words = ref 0.0 in
  let strategy = Some spec.strategy and max_hops = Some spec.max_hops in
  let scratch = Some (Route.scratch (fst systems.(0))) in
  let id_measure = Spans.id sp "measure" and id_window = Spans.id sp "window" in
  let id_batch = Spans.id sp "route_batch.run" and id_route = Spans.id sp "route.route" in
  let gc = gc_start () in
  let pass p =
    let traced = o.trace && p > 0 in
    let j = p mod spec.networks in
    let net, mask = systems.(j) in
    let failures = Option.map snd mask in
    Spans.set_active sp traced;
    Spans.enter sp id_measure;
    let latency = Stats.samples () in
    let t_pass = now_ns () in
    for w = 0 to nwin - 1 do
      let pairs = windows.(j).(w) in
      Spans.enter sp id_window;
      let t0 = now_ns () in
      Spans.enter sp id_batch;
      let outs = Route_batch.run ~jobs:1 ?failures ?strategy ?max_hops net ~pairs in
      Spans.leave sp;
      let dt = now_ns () - t0 in
      if p = 0 then plain_batch_ns := !plain_batch_ns + dt;
      let failed = Array.fold_left (fun acc o -> if Route.delivered o then acc else acc + 1) 0 outs in
      Stats.add latency ~weight:(Array.length pairs - failed) (ms_of_ns dt);
      Stats.add latency ~weight:failed infinity;
      if p < spec.networks then first.(j).(w) <- outs
      else
        Array.iteri (fun i o -> if not (same_outcome o first.(j).(w).(i)) then incr mismatched) outs;
      if traced then begin
        (* Route the same pairs one call at a time; each call must agree
           with the batch. *)
        let words0 = Gc.minor_words () in
        Array.iteri
          (fun i (src, dst) ->
            Spans.enter_lookup sp id_route ((w * spec.window) + i);
            let o = Route.route ?failures ?strategy ?max_hops ?scratch net ~src ~dst in
            Spans.leave sp;
            traced_hops := !traced_hops + Route.hops o;
            if not (same_outcome o outs.(i)) then incr mismatched)
          pairs;
        traced_words := !traced_words +. (Gc.minor_words () -. words0);
        traced_lookups := !traced_lookups + Array.length pairs
      end;
      Spans.leave sp;
      lookups := !lookups + Array.length pairs
    done;
    let dt = now_ns () - t_pass in
    Spans.leave sp;
    add_slice sl ~lookups:per_pass ~ns:dt ~slowdown:(Clock.section clock) latency;
    if p = 0 then gc_stop gc ~lookups:per_pass out
  in
  let passes = repeat ~seconds:o.seconds ~min_runs:(max spec.networks (if o.trace then 2 else 1)) pass in
  Spans.set_active sp o.trace;
  Spans.leave sp;
  put "host.clock_slowdown" (Clock.median_slowdown clock);
  (* Exact figures, from the reference passes. *)
  let hops = Stats.hist () in
  let delivered = ref 0 and no_live = ref 0 and hop_limit = ref 0 in
  let h = ref 0 in
  Array.iter
    (Array.iter (Array.iter (fun o ->
         (match o with
         | Route.Delivered { hops = k } ->
             incr delivered;
             Stats.hist_add hops k;
             h := mix (mix !h 1) k
         | Route.Failed { hops = k; stuck_at; reason } ->
             let code =
               match reason with
               | Route.No_live_neighbor ->
                   incr no_live;
                   0
               | Route.Hop_limit ->
                   incr hop_limit;
                   1
               | Route.No_live_reroute_target -> 2
             in
             h := mix (mix (mix (mix !h 0) k) stuck_at) code))))
    first;
  if !mismatched > 0 then problem "%d routed outcomes disagree with their network's first pass" !mismatched;
  if o.trace then begin
    let traced_passes = float_of_int (passes - 1) in
    let batch_s = Spans.total_s sp "route_batch.run" in
    let route_s = Spans.total_s sp "route.route" in
    let net_csr = Network.csr (fst systems.(0)) in
    put "network.build_s" (Spans.percentile_s sp "network.build" 0.5);
    put "network.bytes_per_node"
      (float_of_int (4 * (spec.n + spec.n + 1 + Csr.edge_count net_csr)) /. float_of_int spec.n);
    put "snapshot.save_s" (Spans.percentile_s sp "snapshot.save" 0.5);
    put "snapshot.map_s" (Spans.percentile_s sp "snapshot.map" 0.5);
    put "snapshot.validate_s" (Spans.percentile_s sp "snapshot.validate" 0.5);
    put "failure.mask_s" (Spans.percentile_s sp "failure.mask" 0.5);
    put "route.call_us_p50" (p50_us sp "route.route");
    put "route.call_us_p99" (Spans.percentile_s sp "route.route" 0.99 *. 1e6);
    put "route.ns_per_hop" (route_s *. 1e9 /. float_of_int !traced_hops);
    put "route.hops_per_call" (float_of_int !traced_hops /. float_of_int !traced_lookups);
    put "route.minor_words_per_call" (!traced_words /. float_of_int !traced_lookups);
    put "route.failed_no_live_neighbor" (float_of_int !no_live);
    put "route.failed_hop_limit" (float_of_int !hop_limit);
    put "route_batch.run_s" (batch_s /. traced_passes);
    put "route_batch.self_share" (1.0 -. (route_s /. batch_s));
    put "pool.jobs" 1.0;
    put "obs.traced_slowdown"
      (batch_s /. float_of_int !traced_lookups
      /. (float_of_int !plain_batch_ns *. 1e-9 /. float_of_int per_pass));
    finish_trace o out ~measured_s:(Spans.total_s sp "measure")
  end
  else begin
    put "setup_s" (Stats.median !setup_times);
    put_slices put sl;
    put "delivered_frac" (float_of_int !delivered /. float_of_int (spec.networks * per_pass));
    put "hops_mean" (Stats.hist_mean hops);
    put "hops_p99" (Stats.hist_quantile hops 0.99)
  end;
  {
    attempted = !lookups;
    mismatched = !mismatched;
    problems = List.rev !problems;
    digest = digest_hex !h;
    values = out;
  }

(* ------------------------------------------------------------------ *)
(* Service and overlay workloads                                       *)
(* ------------------------------------------------------------------ *)

type serve_spec = {
  line_size : int;
  initial : int;
  slinks : int;
  rate : int; (* lookups per tick *)
  ticks : int; (* ticks per episode, before the drain *)
  churn : Gen.churn;
  jobs : int; (* worker domains of the service's crew *)
}

let churn = { Gen.crash = 2.0; leave = 1.0; join = 3.0; stabilize = 16 }

let serve_base small ~ticks ~churn ~jobs =
  {
    line_size = (if small then 1 lsl 12 else 1 lsl 16);
    initial = (if small then 256 else 4096);
    slinks = 8;
    rate = (if small then 16 else 256);
    ticks = (if small then 32 else ticks);
    churn;
    jobs;
  }

let serve_steady small = serve_base small ~ticks:384 ~churn:Gen.no_churn ~jobs:1

let serve_churn small =
  serve_base small ~ticks:192 ~churn ~jobs:(min 2 (Domain.recommended_domain_count ()))

let overlay_churn small = serve_base small ~ticks:384 ~churn ~jobs:1

let overlay_config o spec =
  {
    Driver.default_config with
    Driver.line_size = spec.line_size;
    initial = spec.initial;
    links = spec.slinks;
    seed = o.seed;
  }

(* Wall-clock tick boundaries of one episode: lookups issued in tick i
   and completed in tick j waited from [start.(i)] to [stop.(j)]. They
   are counted per (i, j) and added to the latency samples at the end,
   so the sample set stays small however many lookups ran. *)
type ticks = { start : int array; stop : int array; waits : (int, int) Hashtbl.t; width : int }

let tick_clock n = { start = Array.make n 0; stop = Array.make n 0; waits = Hashtbl.create 4096; width = n }

let note_wait tc ~issued ~done_at =
  let key = (issued * tc.width) + done_at in
  Hashtbl.replace tc.waits key (1 + Option.value ~default:0 (Hashtbl.find_opt tc.waits key))

let flush_waits tc latency =
  Hashtbl.iter
    (fun key count ->
      let i = key / tc.width and j = key mod tc.width in
      Stats.add latency ~weight:count (ms_of_ns (tc.stop.(j) - tc.start.(i))))
    tc.waits

(* State shared by the episodes of one service or overlay run. *)
type episodes = {
  slices : slices;
  clock : Clock.t;
  issue_lag : Stats.samples;
  mutable setup_s : float list;
  mutable measured_ns : int; (* traced episodes *)
  mutable lookups : int;
  mutable plain_ns_per_lookup : float; (* episode 0 of a traced run *)
  mutable digests : string list;
  mutable mismatched : int;
  mutable problems : string list;
  first : (string, float) Hashtbl.t; (* exact per-episode figures of episode 0 *)
}

let fresh_episodes () =
  {
    slices = slices ();
    clock = Clock.create ();
    issue_lag = Stats.samples ();
    setup_s = [];
    measured_ns = 0;
    lookups = 0;
    plain_ns_per_lookup = nan;
    digests = [];
    mismatched = 0;
    problems = [];
    first = Hashtbl.create 16;
  }

let record_hops ep ~episode ~issued hops delivered =
  if episode = 0 then begin
    let put = Hashtbl.replace ep.first in
    put "delivered_frac" (float_of_int delivered /. float_of_int issued);
    put "hops_mean" (Stats.hist_mean hops);
    put "hops_p99" (Stats.hist_quantile hops 0.99)
  end

(* Set-up pieces: the populated overlay every churn subsystem starts
   from, and its snapshot into a service. *)
let build_overlay o spec =
  let sp = o.spans in
  Spans.enter sp (Spans.id sp "overlay.populate");
  let ov = Driver.build_overlay (overlay_config o spec) in
  Spans.leave sp;
  ov

let snapshot_service o ov =
  let sp = o.spans in
  Spans.enter sp (Spans.id sp "svc.of_overlay");
  let svc = Service.of_overlay ~seed:o.seed ov in
  Spans.leave sp;
  svc

(* One timed set-up under the "setup" span. *)
let setup o ep f =
  let sp = o.spans in
  let t0 = now_ns () in
  Spans.enter sp (Spans.id sp "setup");
  let v = f () in
  Spans.leave sp;
  ep.setup_s <- (seconds_since t0 /. Clock.section ep.clock) :: ep.setup_s;
  v

(* An episode's end: its throughput and latency become one slice (only
   untraced episodes report end-to-end figures); traced episodes feed the
   slowdown. *)
let close_episode o ep ~traced ~issued ~ns latency =
  let slowdown = Clock.section ep.clock in
  if not o.trace then add_slice ep.slices ~lookups:issued ~ns ~slowdown latency;
  if traced then begin
    ep.measured_ns <- ep.measured_ns + ns;
    ep.lookups <- ep.lookups + issued
  end
  else ep.plain_ns_per_lookup <- float_of_int ns /. float_of_int issued

let serve_episode o spec sched pool ep episode =
  let sp = o.spans in
  let traced = o.trace && episode > 0 in
  Spans.set_active sp traced;
  Ftr_obs.Flag.set_mode traced;
  let svc = setup o ep (fun () -> snapshot_service o (build_overlay o spec)) in
  (* [Service.drain]'s own safety cap on drain rounds. *)
  let cap = (4 * Driver.default_config.Driver.ttl) + 16 in
  let tc = tick_clock (spec.ticks + cap) in
  let id_tick = Spans.id sp "tick" and id_step = Spans.id sp "svc.step" in
  let id_request = Spans.id sp "svc.request" and id_noop = Spans.id sp "pool.noop" in
  let id_crash = Spans.id sp "svc.crash" and id_leave = Spans.id sp "svc.leave" in
  let id_join = Spans.id sp "svc.join" and id_stab = Spans.id sp "svc.stabilize" in
  let call id f =
    Spans.enter sp id;
    f ();
    Spans.leave sp
  in
  let step k =
    Spans.enter sp id_step;
    Service.step svc ~pool;
    Spans.leave sp;
    tc.stop.(k) <- now_ns ()
  in
  let gc = gc_start () in
  Spans.enter sp (Spans.id sp "measure");
  let t_measure = now_ns () in
  Array.iteri
    (fun k (tick : Gen.tick) ->
      tc.start.(k) <- now_ns ();
      Spans.enter sp id_tick;
      Array.iter (fun pos -> call id_crash (fun () -> Service.crash svc ~pos)) tick.crashes;
      Array.iter (fun pos -> call id_leave (fun () -> Service.leave svc ~pos)) tick.leaves;
      Array.iter (fun (pos, via) -> call id_join (fun () -> Service.join svc ~pos ~via)) tick.joins;
      Array.iter (fun pos -> call id_stab (fun () -> Service.stabilize svc ~pos)) tick.stabilize;
      Array.iteri
        (fun i src ->
          if traced then Stats.add ep.issue_lag (ms_of_ns (now_ns () - tc.start.(k)));
          Spans.enter sp id_request;
          ignore (Service.request svc ~src ~target:tick.targets.(i));
          Spans.leave sp)
        tick.sources;
      step k;
      if traced then begin
        (* The crew's bare dispatch cost: a round with no work. *)
        Spans.enter sp id_noop;
        Pool.run_resident pool ~count:Driver.default_config.Driver.shards ignore;
        Spans.leave sp
      end;
      Spans.leave sp)
    sched.Gen.ticks;
  (* Drain: rounds with no new input until every mailbox is empty — the
     loop [Service.drain] runs, stepped here so each round's end time is
     known. *)
  Spans.enter sp (Spans.id sp "svc.drain");
  let k = ref spec.ticks in
  while Service.mail_pending svc && !k < spec.ticks + cap do
    tc.start.(!k) <- now_ns ();
    step !k;
    incr k
  done;
  Spans.leave sp;
  let dt = now_ns () - t_measure in
  Spans.leave sp;
  Ftr_obs.Flag.set_mode false;
  Service.force_timeouts svc;
  let report = Driver.report_of svc ~ticks:spec.ticks ~wall:(float_of_int dt *. 1e-9) in
  let problems =
    Driver.invariant_problems
      { Driver.res_report = report; res_transcript = ""; res_service = svc }
  in
  ep.problems <- ep.problems @ problems;
  ep.mismatched <-
    ep.mismatched
    + abs (report.Driver.rp_issued - report.Driver.rp_delivered - report.Driver.rp_failed
          - report.Driver.rp_timed_out);
  (* Outcomes in request-id order. *)
  let h = ref 0 and hops = Stats.hist () and delivered = ref 0 in
  let latency = Stats.samples () in
  Service.iter_requests svc (fun rv ->
      match rv.Service.rv_outcome with
      | Some (Message.Delivered { owner; hops = k }) ->
          incr delivered;
          Stats.hist_add hops k;
          h := mix (mix (mix !h 1) k) owner;
          note_wait tc ~issued:rv.Service.rv_issued ~done_at:rv.Service.rv_done_at
      | Some (Message.Failed { hops = k; _ }) ->
          h := mix (mix !h 0) k;
          Stats.add latency infinity
      | None ->
          h := mix !h 2;
          Stats.add latency infinity);
  flush_waits tc latency;
  ep.digests <- digest_hex !h :: ep.digests;
  let issued = report.Driver.rp_issued in
  record_hops ep ~episode ~issued hops !delivered;
  if episode = 0 then begin
    gc_stop gc ~lookups:issued ep.first;
    let s = Service.stats svc and put = Hashtbl.replace ep.first in
    let per_lookup x = float_of_int x /. float_of_int issued in
    put "svc.rounds" (float_of_int s.Service.rounds);
    put "svc.handled_per_round" (float_of_int s.Service.handled /. float_of_int s.Service.rounds);
    put "svc.handled" (float_of_int s.Service.handled);
    put "svc.forwards_per_lookup" (per_lookup s.Service.messages);
    put "svc.probes_per_lookup" (per_lookup s.Service.probes);
    put "svc.repairs" (float_of_int s.Service.repairs);
    put "svc.bounces" (float_of_int s.Service.bounces);
    put "svc.dead_letters" (float_of_int s.Service.dead_letters);
    put "svc.dropped" (float_of_int s.Service.dropped)
  end;
  close_episode o ep ~traced ~issued ~ns:dt latency

let overlay_episode o spec sched ep episode =
  let sp = o.spans in
  let traced = o.trace && episode > 0 in
  Spans.set_active sp traced;
  let ov = setup o ep (fun () -> build_overlay o spec) in
  let engine = Overlay.engine ov in
  let events0 = Engine.executed_events engine in
  let cap = (4 * Overlay.ttl ov) + 16 in
  let tc = tick_clock (spec.ticks + cap) in
  let n = sched.Gen.lookups in
  let done_at = Array.make n (-1) and hop_of = Array.make n 0 and owner_of = Array.make n 0 in
  let current = ref 0 and next = ref 0 and pending_max = ref 0 in
  let id_tick = Spans.id sp "tick" and id_slice = Spans.id sp "sim.slice" in
  let id_lookup = Spans.id sp "overlay.lookup" in
  let id_crash = Spans.id sp "overlay.crash" and id_leave = Spans.id sp "overlay.leave" in
  let id_join = Spans.id sp "overlay.join" in
  let call id f =
    Spans.enter sp id;
    f ();
    Spans.leave sp
  in
  let slice k =
    Spans.enter sp id_slice;
    Engine.run engine ~until:(float_of_int (k + 1));
    Spans.leave sp;
    tc.stop.(k) <- now_ns ();
    pending_max := max !pending_max (Engine.pending_events engine)
  in
  let gc = gc_start () in
  Spans.enter sp (Spans.id sp "measure");
  let t_measure = now_ns () in
  Array.iteri
    (fun k (tick : Gen.tick) ->
      current := k;
      tc.start.(k) <- now_ns ();
      Spans.enter sp id_tick;
      Array.iter (fun pos -> call id_crash (fun () -> Overlay.crash ov ~pos)) tick.crashes;
      Array.iter (fun pos -> call id_leave (fun () -> Overlay.leave ov ~pos)) tick.leaves;
      Array.iter (fun (pos, via) -> call id_join (fun () -> Overlay.join ov ~pos ~via)) tick.joins;
      Array.iteri
        (fun i from ->
          let id = !next in
          incr next;
          if traced then Stats.add ep.issue_lag (ms_of_ns (now_ns () - tc.start.(k)));
          Spans.enter_lookup sp id_lookup id;
          Overlay.lookup ov ~from ~target:tick.targets.(i)
            ~callback:(fun ~owner ~hops ->
              done_at.(id) <- !current;
              hop_of.(id) <- hops;
              owner_of.(id) <- owner)
            ();
          Spans.leave sp)
        tick.sources;
      slice k;
      Spans.leave sp)
    sched.Gen.ticks;
  Spans.enter sp (Spans.id sp "sim.drain");
  let k = ref spec.ticks in
  while Engine.pending_events engine > 0 && !k < spec.ticks + cap do
    current := !k;
    tc.start.(!k) <- now_ns ();
    slice !k;
    incr k
  done;
  Spans.leave sp;
  let dt = now_ns () - t_measure in
  Spans.leave sp;
  let s = Overlay.stats ov in
  if Engine.pending_events engine > 0 then
    ep.problems <- ep.problems @ [ "overlay: events still pending after the drain" ];
  if s.Overlay.lookups_issued <> s.Overlay.lookups_ok + s.Overlay.lookups_failed then
    ep.problems <-
      ep.problems
      @ [
          Printf.sprintf "overlay conservation: issued %d <> ok %d + failed %d"
            s.Overlay.lookups_issued s.Overlay.lookups_ok s.Overlay.lookups_failed;
        ];
  let h = ref 0 and hops = Stats.hist () and delivered = ref 0 in
  let latency = Stats.samples () in
  for id = 0 to n - 1 do
    if done_at.(id) >= 0 then begin
      incr delivered;
      Stats.hist_add hops hop_of.(id);
      h := mix (mix (mix !h 1) hop_of.(id)) owner_of.(id);
      note_wait tc ~issued:(id / spec.rate) ~done_at:done_at.(id)
    end
    else begin
      h := mix !h 0;
      Stats.add latency infinity
    end
  done;
  ep.mismatched <- ep.mismatched + abs (s.Overlay.lookups_ok - !delivered);
  flush_waits tc latency;
  ep.digests <- digest_hex !h :: ep.digests;
  record_hops ep ~episode ~issued:n hops !delivered;
  if episode = 0 then begin
    gc_stop gc ~lookups:n ep.first;
    let put = Hashtbl.replace ep.first in
    let per_lookup x = float_of_int x /. float_of_int n in
    put "overlay.messages_per_lookup" (per_lookup s.Overlay.messages);
    put "overlay.probes_per_lookup" (per_lookup s.Overlay.probes);
    put "overlay.repairs" (float_of_int s.Overlay.repairs);
    put "sim.events" (float_of_int (Engine.executed_events engine - events0));
    put "sim.pending_max" (float_of_int !pending_max)
  end;
  close_episode o ep ~traced ~issued:n ~ns:dt latency

let run_episodes o spec ~overlay =
  let sp = o.spans in
  let out = Hashtbl.create 64 in
  let put = Hashtbl.replace out in
  let sched =
    Gen.schedule ~seed:o.seed ~line_size:spec.line_size ~initial:spec.initial ~ticks:spec.ticks
      ~rate:spec.rate spec.churn
  in
  let ep = fresh_episodes () in
  Ftr_obs.Span.reset ();
  Spans.set_active sp o.trace;
  Spans.enter sp (Spans.id sp "workload");
  (* A set-up takes tens of milliseconds; a few extra ones, discarded,
     steady the set-up median beyond what the episodes alone give. *)
  for _ = 1 to 4 do
    setup o ep (fun () ->
        let ov = build_overlay o spec in
        if not overlay then ignore (snapshot_service o ov))
  done;
  let episodes, jobs =
    if overlay then
      (repeat ~seconds:o.seconds ~min_runs:(if o.trace then 2 else 1) (overlay_episode o spec sched ep), 0)
    else
      Pool.with_resident ~jobs:spec.jobs (fun pool ->
          ( repeat ~seconds:o.seconds ~min_runs:(if o.trace then 2 else 1)
              (serve_episode o spec sched pool ep),
            Pool.resident_jobs pool ))
  in
  Spans.set_active sp o.trace;
  Spans.leave sp;
  let digest = match ep.digests with d :: _ -> d | [] -> "" in
  let problems = ref ep.problems in
  if not (List.for_all (String.equal digest) ep.digests) then
    problems := !problems @ [ "episodes of one seed produced different outcome digests" ];
  let copy name = put name (Option.value ~default:nan (Hashtbl.find_opt ep.first name)) in
  put "host.clock_slowdown" (Clock.median_slowdown ep.clock);
  if o.trace then begin
    let measure_s = Spans.total_s sp "measure" in
    List.iter copy [ "gc.minor_words_per_lookup"; "gc.major_collections" ];
    put "gen.issue_lag_ms_p99" (Stats.percentile ep.issue_lag 0.99);
    put "obs.traced_slowdown"
      (float_of_int ep.measured_ns /. float_of_int ep.lookups /. ep.plain_ns_per_lookup);
    put "overlay.populate_s" (Spans.percentile_s sp "overlay.populate" 0.5);
    if overlay then begin
      List.iter copy
        [
          "overlay.messages_per_lookup";
          "overlay.probes_per_lookup";
          "overlay.repairs";
          "sim.events";
          "sim.pending_max";
        ];
      put "overlay.lookup_us_p50" (p50_us sp "overlay.lookup");
      put "overlay.join_us_p50" (p50_us sp "overlay.join");
      put "overlay.join_us_p99" (Spans.percentile_s sp "overlay.join" 0.99 *. 1e6);
      put "overlay.crash_us_p50" (p50_us sp "overlay.crash");
      put "overlay.leave_us_p50" (p50_us sp "overlay.leave");
      put "sim.slice_ms_p50" (Spans.percentile_s sp "sim.slice" 0.5 *. 1e3);
      put "sim.slice_ms_p99" (Spans.percentile_s sp "sim.slice" 0.99 *. 1e3);
      put "sim.ns_per_event"
        (Spans.total_s sp "sim.slice" *. 1e9
        /. (Hashtbl.find ep.first "sim.events" *. float_of_int (episodes - 1)))
    end
    else begin
      List.iter copy
        [
          "svc.rounds";
          "svc.handled_per_round";
          "svc.forwards_per_lookup";
          "svc.probes_per_lookup";
          "svc.repairs";
          "svc.bounces";
          "svc.dead_letters";
          "svc.dropped";
        ];
      let step_s = Spans.total_s sp "svc.step" in
      let control_s =
        List.fold_left
          (fun acc n -> acc +. Spans.total_s sp n)
          0.0
          [ "svc.request"; "svc.join"; "svc.crash"; "svc.leave"; "svc.stabilize" ]
      in
      let round_s =
        match Ftr_obs.Span.find "svc.round" with Some st -> st.Ftr_obs.Span.total | None -> 0.0
      in
      let round_us = p50_us sp "pool.noop" in
      put "pool.jobs" (float_of_int jobs);
      put "pool.round_us" round_us;
      put "pool.dispatch_share"
        (round_us *. 1e-6 *. float_of_int (Spans.count sp "svc.step") /. step_s);
      put "svc.request_us_p50" (p50_us sp "svc.request");
      put "svc.join_us_p50" (p50_us sp "svc.join");
      put "svc.join_us_p99" (Spans.percentile_s sp "svc.join" 0.99 *. 1e6);
      put "svc.crash_us_p50" (p50_us sp "svc.crash");
      put "svc.leave_us_p50" (p50_us sp "svc.leave");
      put "svc.stabilize_us_p50" (p50_us sp "svc.stabilize");
      put "svc.control_share" (control_s /. measure_s);
      put "svc.of_overlay_s" (Spans.percentile_s sp "svc.of_overlay" 0.5);
      put "svc.step_ms_p50" (Spans.percentile_s sp "svc.step" 0.5 *. 1e3);
      put "svc.step_ms_p99" (Spans.percentile_s sp "svc.step" 0.99 *. 1e3);
      put "svc.ns_per_envelope"
        (step_s *. 1e9
        /. (Hashtbl.find ep.first "svc.handled" *. float_of_int (episodes - 1)));
      put "svc.round_share" (round_s /. step_s);
      put "svc.drain_s" (Spans.percentile_s sp "svc.drain" 0.5)
    end;
    finish_trace o out ~measured_s:measure_s
  end
  else begin
    put "setup_s" (Stats.median ep.setup_s);
    put_slices put ep.slices;
    List.iter copy [ "delivered_frac"; "hops_mean"; "hops_p99" ]
  end;
  {
    attempted = episodes * sched.Gen.lookups;
    mismatched = ep.mismatched;
    problems = !problems;
    digest;
    values = out;
  }

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run o name =
  Ftr_obs.Flag.set_mode false;
  let r =
    match name with
    | "route_large" -> run_route o (route_large o.small)
    | "route_faulty" -> run_route o (route_faulty o.small)
    | "serve_steady" -> run_episodes o (serve_steady o.small) ~overlay:false
    | "serve_churn" -> run_episodes o (serve_churn o.small) ~overlay:false
    | "overlay_churn" -> run_episodes o (overlay_churn o.small) ~overlay:true
    | other -> invalid_arg (Printf.sprintf "unknown workload %S" other)
  in
  if not o.trace then Hashtbl.replace r.values "rss_peak_mb" (rss_peak_mb ());
  r
