(* ftr-lint: hot -- greedy routing inner loop, docs/MEMORY_LAYOUT.md budget applies *)

module Bitset = Ftr_graph.Bitset
module I32 = Ftr_graph.Adjacency.I32

type side = One_sided | Two_sided

type strategy =
  | Terminate
  | Random_reroute of { attempts : int }
  | Backtrack of { history : int }

type reason = Stuck.reason = No_live_neighbor | Hop_limit | No_live_reroute_target

type outcome = Stuck.outcome =
  | Delivered of { hops : int }
  | Failed of { hops : int; stuck_at : int; reason : reason }

let hops = function Delivered { hops } -> hops | Failed { hops; _ } -> hops

let delivered = function Delivered _ -> true | Failed _ -> false

let reason_label = function
  | No_live_neighbor -> "no_live_neighbor"
  | Hop_limit -> "hop_limit"
  | No_live_reroute_target -> "no_live_reroute_target"

let strategy_label = function
  | Terminate -> "terminate"
  | Random_reroute _ -> "random_reroute"
  | Backtrack _ -> "backtrack"

(* One route's Section 6 memory: see {!Stuck.t}. A route without a
   caller-held one creates its own. *)
type scratch = Stuck.t

let scratch (_ : Network.t) = Stuck.create ()

(* Stand-in position vector for full networks, whose positions are the
   identity and are not stored: every read goes through [pos] below with
   [identity] true, so it is never read. *)
let no_positions = I32.create 0

(* One driver call: what the hop choice reads, resolved once, the pairs
   it routes and the lanes that route them.
   - the CSR vectors and the geometry, so the candidate scan computes
     two-sided distances inline — integer arithmetic per candidate
     instead of a call into [Network]. On a full network ([identity]) a
     target index is its position, so the scan loads no position at all;
     a sparse network pays one array load per candidate. The two-sided
     line ([line]) has the bisect scan; the circle and one-sided routing
     keep the full row scan (the latter also needs the overshoot test);
   - the failure fast paths: node liveness through the concrete bitset
     when the view has one, link liveness skipped entirely when
     everything is statically alive, the general closure forms as the
     fallback, and [free] when no candidate can be refused at all
     (nothing failed, no tried links to skip);
   - the strategy's parameters: [tracking] (Backtrack) when the scan
     skips tried links and a lane's {!Stuck.t} keeps its window; and
     [hooked] when a forward move has anything to tell (the sanitizer,
     telemetry, [on_hop]);
   - the pairs left, [pairs.(next .. stop - 1)], whose outcomes go to [out];
   - the current route's flight-recorder handle, live only when [tracing];
   - the lanes, one route each, as flat arrays indexed by lane: the
     hot state a hop reads and writes ([cur], the leg's target [dst],
     [hops], and [pair], the pair's index or -1 while idle), then the
     rest: [mem], the {!Stuck.t} a backtracking route's scans and moves
     read, and Random_reroute's detour state: the reroutes [left], the
     [detour] flag and the generator [gen], empty unless [attempts > 0];
   - [slot], where the scan leaves the CSR slot of the node it chose. *)
type view = {
  net : Network.t;
  offsets : I32.t;
  targets : I32.t;
  identity : bool;
  positions : I32.t;
  lsize : int;
  circle : bool;
  two_sided : bool;
  line : bool;
  rd : [ `One_sided | `Two_sided ];
  failures : Failure.t;
  node_bits : Bitset.t option;
  node_all : bool;
  link_all : bool;
  free : bool;
  strategy : strategy;
  tracking : bool;
  history : int;
  attempts : int;
  max_hops : int;
  obs : bool;
  hooked : bool;
  on_hop : (int -> unit) option;
  rng : int -> Ftr_prng.Rng.t option;
  pairs : (int * int) array;
  out : outcome array;
  stop : int;
  mutable next : int;
  mutable tr : Ftr_obs.Tracing.t;
  mutable tracing : bool;
  cur : int array;
  dst : int array;
  hops : int array;
  pair : int array;
  mem : Stuck.t array;
  left : int array;
  detour : bool array;
  gen : Ftr_prng.Rng.t option array;
  mutable slot : int;
}

(* [w] lanes' cells of one hot field, each [x]: the one-lane case that
   every [route] call takes allocates inline, not through
   [Array.make]'s C call. *)
let cells w (x : int) = if w = 1 then [| x |] else Array.make w x

(* Every pair and the strategy are checked before any route starts. With
   telemetry on, one lane routes the pairs in order, so they record per
   route exactly as one [route] call per pair would; [mem] holds a state
   per lane. *)
let view ~failures ~side ~strategy ~max_hops ~rng ~on_hop ~width ~mem net ~pairs ~lo ~len ~out =
  let n = Network.size net in
  for i = lo to lo + len - 1 do
    let src, dst = pairs.(i) in
    if src < 0 || src >= n || dst < 0 || dst >= n then invalid_arg "Route.route: node out of range";
    if not (Failure.node_alive failures dst) then invalid_arg "Route.route: destination is dead";
    if not (Failure.node_alive failures src) then invalid_arg "Route.route: source is dead"
  done;
  let tracking, history, attempts =
    match strategy with
    | Terminate -> (false, 0, 0)
    | Random_reroute { attempts } ->
        if attempts < 0 then invalid_arg "Route.route: attempts must be >= 0";
        (false, 0, attempts)
    | Backtrack { history } ->
        if history < 1 then invalid_arg "Route.route: history must be >= 1";
        (true, history, 0)
  in
  let { Ftr_graph.Adjacency.Csr.offsets; targets } = Network.csr net in
  let identity, positions =
    match Network.positions net with None -> (true, no_positions) | Some p -> (false, p)
  in
  let circle = match Network.geometry net with Network.Circle -> true | Network.Line -> false in
  let two_sided = match side with Two_sided -> true | One_sided -> false in
  let obs = Ftr_obs.Flag.enabled () in
  let w = Int.min (if obs then 1 else width) len in
  {
    net;
    offsets;
    targets;
    identity;
    positions;
    lsize = Network.line_size net;
    circle;
    two_sided;
    line = two_sided && not circle;
    rd = (match side with One_sided -> `One_sided | Two_sided -> `Two_sided);
    failures;
    node_bits = Failure.node_alive_bits failures;
    node_all = Failure.node_all_alive failures;
    link_all = Failure.link_all_alive failures;
    free = Failure.link_all_alive failures && Failure.node_all_alive failures && not tracking;
    strategy;
    tracking;
    history;
    attempts;
    max_hops;
    obs;
    hooked = obs || Option.is_some on_hop || Ftr_debug.Debug.enabled ();
    on_hop;
    rng;
    pairs;
    out;
    stop = lo + len;
    next = lo;
    (* ftr-lint: disable T1 -- the null trace: every Tracing writer checks [live] first *)
    tr = Ftr_obs.Tracing.null;
    tracing = false;
    cur = cells w 0;
    dst = cells w 0;
    hops = cells w 0;
    pair = cells w (-1);
    mem;
    left = (if attempts > 0 then Array.make w 0 else [||]);
    detour = (if attempts > 0 then Array.make w false else [||]);
    gen = (if attempts > 0 then Array.make w None else [||]);
    slot = -1;
  }

(* Line position of node [v]: the node index itself on a full network,
   one (cache-missing, at scale) load from the sparse vector otherwise. *)
let[@inline] pos rv v = if rv.identity then v else I32.unsafe_get rv.positions v

(* Unsafe I32/array reads below are justified by construction-time CSR
   validation ([Adjacency.Csr.validate], re-checked by the Check
   battery): every target is a node index in [0, n) and every slot is
   below [offsets.(n)]; lane indices are below the lane arrays' common
   length. The I32 reads are allocation-free: the [Int32.to_int] in the
   accessor cancels the Bigarray box (see Adjacency.I32). *)
let dist_to rv ~dst_pos v =
  let d = pos rv v - dst_pos in
  let d = if d < 0 then -d else d in
  if rv.circle then min d (rv.lsize - d) else d

(* Routing distance from [v] to [dst] on the view's side. *)
let distance rv ~dst_pos v ~dst =
  if rv.two_sided then dist_to rv ~dst_pos v
  else Network.routing_distance rv.net ~side:rv.rd ~src:v ~dst

(* Link [k] of [cur] (slot [base + k]) leads to a live node over a live
   link that the route with memory [st] has not tried yet. *)
let[@inline] usable rv st ~cur ~base ~k v =
  rv.free
  || (rv.link_all || Failure.link_alive rv.failures ~src:cur ~idx:k)
  && (match rv.node_bits with
     | Some b -> Bitset.unsafe_get b v
     | None -> rv.node_all || Failure.node_alive rv.failures v)
  && not (rv.tracking && Tried.mem (Stuck.tried st) (base + k))

(* Flight-recorder verdict for a candidate [usable] rejected: re-run the
   conjuncts one by one to name the first that failed. The gate is
   re-checked here so the write is gated on every path (rules D1, T1); the
   recomputation (plus the record's allocation, inside
   [Ftr_obs.Tracing]) costs nothing when the recorder is off. *)
let record_excluded rv st ~cur ~base ~k ~v ~dist =
  if rv.tracing && Ftr_obs.Flag.enabled () then begin
    let verdict =
      if not (rv.link_all || Failure.link_alive rv.failures ~src:cur ~idx:k) then
        Ftr_obs.Tracing.Dead_link
      else if
        not
          (match rv.node_bits with
          | Some b -> Bitset.unsafe_get b v
          | None -> rv.node_all || Failure.node_alive rv.failures v)
      then Ftr_obs.Tracing.Dead_node
      else if rv.tracking && Tried.mem (Stuck.tried st) (base + k) then
        Ftr_obs.Tracing.Already_tried
      else Ftr_obs.Tracing.Not_closer
    in
    Ftr_obs.Tracing.candidate rv.tr ~cur ~cand:v ~dist verdict
  end

(* The hop choice off the two-sided line: the best live untried
   neighbour of [cur] by a scan of its whole row, subject to the
   one-sided no-overshoot rule when requested. A [strict] scan takes
   only neighbours strictly closer to [dst] (the greedy rule); otherwise
   every untried live neighbour qualifies, still ranked by distance to
   [dst] — used when resuming from a backtracked node, where the "next
   best neighbour" may have to route around a hole. Ties go to the
   first candidate in sorted-position order, matching "ties broken
   arbitrarily" (Section 4.2.1) deterministically. Returns the chosen
   node, its slot left in [rv.slot], or -1 when there is none. *)
let row_hop rv st ~strict ~cur ~dst =
  let tracing = rv.tracing && Ftr_obs.Flag.enabled () in
  let dst_pos = pos rv dst in
  let base = I32.unsafe_get rv.offsets cur in
  let deg = I32.unsafe_get rv.offsets (cur + 1) - base in
  let limit = if strict then distance rv ~dst_pos cur ~dst else max_int in
  let best = ref (-1) and best_idx = ref (-1) and best_dist = ref limit in
  for k = 0 to deg - 1 do
    let v = I32.unsafe_get rv.targets (base + k) in
    if usable rv st ~cur ~base ~k v then begin
      let v_dist = distance rv ~dst_pos v ~dst in
      let admissible =
        v_dist < !best_dist && (rv.two_sided || Network.one_sided_admissible rv.net ~cur ~v ~dst)
      in
      if admissible then begin
        (* A superseded provisional best was examined and not taken:
           record it so the trace names every also-ran. *)
        if tracing && !best >= 0 then
          Ftr_obs.Tracing.candidate rv.tr ~cur ~cand:!best ~dist:!best_dist Ftr_obs.Tracing.Not_best;
        best := v;
        best_idx := k;
        best_dist := v_dist
      end
      else if tracing then
        Ftr_obs.Tracing.candidate rv.tr ~cur ~cand:v ~dist:v_dist
          (if v_dist >= limit then Ftr_obs.Tracing.Not_closer
           else if not (rv.two_sided || Network.one_sided_admissible rv.net ~cur ~v ~dst) then
             Ftr_obs.Tracing.Overshoot
           else Ftr_obs.Tracing.Not_best)
    end
    else if tracing then record_excluded rv st ~cur ~base ~k ~v ~dist:(distance rv ~dst_pos v ~dst)
  done;
  rv.slot <- base + !best_idx;
  !best

(* Sanitizer hook: a hop chosen in a strict scan must obey the greedy
   contract — strictly decrease the routing distance, and on one-sided
   networks never overshoot the target (Section 4.2.1). The scans
   establish this by construction; the check guards against regressions
   in the candidate filter. *)
let debug_check_strict_hop rv ~cur ~v ~dst =
  if Ftr_debug.Debug.enabled () then begin
    let dv = Network.routing_distance rv.net ~side:rv.rd ~src:v ~dst
    and dc = Network.routing_distance rv.net ~side:rv.rd ~src:cur ~dst in
    if dv >= dc then
      Ftr_debug.Debug.failf
        "Route: strict hop %d -> %d fails to approach %d (distance %d >= %d)" cur v dst dv dc;
    if (not rv.two_sided) && not (Network.one_sided_admissible rv.net ~cur ~v ~dst) then
      Ftr_debug.Debug.failf "Route: one-sided hop %d -> %d overshoots target %d" cur v dst
  end

(* A uniformly random live node, the Valiant detour of {!Random_reroute};
   [None] without a generator or after 100,000 dead draws. *)
let random_live_node rv rng =
  let rec attempt rng tries =
    if tries > 100_000 then None
    else
      let v = Ftr_prng.Rng.int rng (Network.size rv.net) in
      if Failure.node_alive rv.failures v then Some v else attempt rng (tries + 1)
  in
  Option.bind rng (fun rng -> attempt rng 0)

(* Telemetry, out of line and each behind its own gate: one bool load per
   route is the whole cost when FTR_OBS is off. When on, a route opens a
   flight-recorder trace (docs/OBSERVABILITY.md, "Tracing"), its outcome
   feeds the route_hops histogram, the stuck-reason counters and one
   route.done event, and its hops are recorded once, as the trace's
   steps. All trace allocation happens inside [Ftr_obs.Tracing]. *)
let begin_trace rv ~src ~dst =
  let obs = Ftr_obs.Flag.enabled () in
  let tr = if obs then Ftr_obs.Tracing.begin_route ~src ~dst else Ftr_obs.Tracing.null in
  let tracing = obs && Ftr_obs.Tracing.is_live tr in
  rv.tr <- tr;
  rv.tracing <- tracing;
  if tracing then
    Ftr_obs.Tracing.set_context tr
      ~nodes:(Failure.node_view_label rv.failures)
      ~links:(Failure.link_view_label rv.failures)
      ~strategy:(strategy_label rv.strategy)

let end_trace rv (src, dst) outcome =
  if Ftr_obs.Flag.enabled () then begin
    let h = hops outcome and delivered = delivered outcome in
    let stuck_at, reason =
      match outcome with Delivered _ -> (-1, "") | Failed f -> (f.stuck_at, reason_label f.reason)
    in
    if delivered then Ftr_obs.Metrics.incr "route_delivered_total"
    else Ftr_obs.Metrics.incr ~labels:[ ("reason", reason) ] "route_stuck_total";
    Ftr_obs.Metrics.observe_int "route_hops" h;
    if rv.tracing then Ftr_obs.Tracing.finish rv.tr ~delivered ~hops:h ~stuck_at ~reason;
    Ftr_obs.Events.emit ~kind:"route.done"
      [
        ("src", Ftr_obs.Json.Int src);
        ("dst", Ftr_obs.Json.Int dst);
        ("delivered", Ftr_obs.Json.Bool delivered);
        ("hops", Ftr_obs.Json.Int h);
      ]
  end

(* A forward move from [cur] to [v] toward [target], when the view is
   [hooked]: the sanitizer's check of a strict hop, the chosen candidate
   and the hop in the flight recorder, then [on_hop]. *)
let moved rv ~strict ~cur ~v ~target =
  if strict && Ftr_debug.Debug.enabled () then debug_check_strict_hop rv ~cur ~v ~dst:target;
  if rv.tracing && Ftr_obs.Flag.enabled () then begin
    Ftr_obs.Tracing.candidate rv.tr ~cur ~cand:v
      ~dist:(Network.routing_distance rv.net ~side:rv.rd ~src:v ~dst:target)
      Ftr_obs.Tracing.Chosen;
    Ftr_obs.Tracing.hop rv.tr ~node:v
  end;
  match rv.on_hop with Some f -> f v | None -> ()

let trace_backtrack rv ~from_node ~to_node =
  if Ftr_obs.Flag.enabled () then begin
    Ftr_obs.Metrics.incr "route_backtracks_total";
    if rv.tracing then begin
      Ftr_obs.Tracing.backtrack rv.tr ~from_node ~to_node;
      Ftr_obs.Tracing.hop rv.tr ~node:to_node
    end
  end

let trace_reroute rv ~from_node ~target =
  if rv.tracing && Ftr_obs.Flag.enabled () then Ftr_obs.Tracing.reroute rv.tr ~from_node ~target

(* Routes in flight at once, a constant per strategy. At n=2^20, links=8
   the Terminate gain over one route at a time plateaus from 4 to 32
   routes; the measurements behind each width are in
   docs/MEMORY_LAYOUT.md, "Batch routing". *)
let lockstep_width = function Terminate -> 16 | Random_reroute _ -> 16 | Backtrack _ -> 1

(* Lane [s]'s route ends with [outcome]; the lane goes idle. *)
let settle rv s outcome =
  let i = rv.pair.(s) in
  rv.out.(i) <- outcome;
  if rv.obs then end_trace rv rv.pairs.(i) outcome;
  rv.pair.(s) <- -1

(* A detour's leg is over: lane [s] heads for its destination again. *)
let turn_back rv s =
  rv.detour.(s) <- false;
  rv.dst.(s) <- snd rv.pairs.(rv.pair.(s))

(* A lane whose route is at its target or out of budget: the route is
   settled, unless it is a detour that reached its intermediate, which
   turns back toward the destination. True while the route goes on. *)
let rec ended rv s =
  if rv.attempts > 0 && rv.detour.(s) && rv.cur.(s) = rv.dst.(s) then begin
    turn_back rv s;
    (rv.cur.(s) <> rv.dst.(s) && rv.hops.(s) < rv.max_hops) || ended rv s
  end
  else begin
    settle rv s (Stuck.outcome ~cur:rv.cur.(s) ~dst:rv.dst.(s) ~hops:rv.hops.(s) Hop_limit);
    false
  end

(* Lane [s] before its next scan: true while its route goes on. *)
let going rv s = (rv.cur.(s) <> rv.dst.(s) && rv.hops.(s) < rv.max_hops) || ended rv s

(* Load pairs into idle lane [s] until one needs a scan, settling the
   routes that need none ([src = dst], a spent budget) on the way. *)
let rec fill rv s =
  if rv.next < rv.stop then begin
    let i = rv.next in
    rv.next <- i + 1;
    let src, dst = rv.pairs.(i) in
    if rv.obs then begin_trace rv ~src ~dst;
    if rv.tracking then Stuck.start rv.mem.(s) ~history:rv.history;
    rv.cur.(s) <- src;
    rv.dst.(s) <- dst;
    rv.hops.(s) <- 0;
    rv.pair.(s) <- i;
    if rv.attempts > 0 then begin
      rv.left.(s) <- rv.attempts;
      rv.detour.(s) <- false;
      rv.gen.(s) <- rv.rng i
    end;
    if not (going rv s) then fill rv s
  end

(* Lane [s] found no choice at [c]. A backtracking route pops its
   window; else a detour turns back toward the destination, or the
   route draws a reroute target, or it ends. True while it goes on. *)
let stuck rv s ~cur:c =
  let y = if rv.tracking then Stuck.pop rv.mem.(s) else -1 in
  if y >= 0 then begin
    (* Travelling back to the previous node costs a hop. *)
    rv.cur.(s) <- y;
    rv.hops.(s) <- rv.hops.(s) + 1;
    if rv.obs then trace_backtrack rv ~from_node:c ~to_node:y;
    (match rv.on_hop with Some f -> f y | None -> ());
    going rv s
  end
  else if rv.attempts > 0 && rv.detour.(s) then begin
    turn_back rv s;
    going rv s
  end
  else
    let left = if rv.attempts > 0 then rv.left.(s) else 0 in
    match if left = 0 then None else random_live_node rv rv.gen.(s) with
    | Some r ->
        trace_reroute rv ~from_node:c ~target:r;
        rv.left.(s) <- left - 1;
        rv.detour.(s) <- true;
        rv.dst.(s) <- r;
        going rv s
    | None ->
        settle rv s
          (Stuck.outcome ~cur:c ~dst:rv.dst.(s) ~hops:rv.hops.(s)
             (if left = 0 then No_live_neighbor else No_live_reroute_target));
        false

(* One decision of lane [s]: the hop choice, then the move. On the
   two-sided line the choice bisects the row, which is sorted by
   position, to the two entries bracketing [dst] and walks the brackets
   outward in increasing-distance order, taking the first usable
   candidate closer than [limit]. That is [row_hop]'s full scan: it keeps
   the least-distance usable candidate, ties to the earliest row entry —
   the smaller position, which is the left bracket this merge prefers on
   ties. (When duplicate row entries name one node, the two
   orders can record a different *slot* as tried, but the slots alias
   the same node with the same remaining multiplicity, so the
   visited-node sequence — and the outcome — is unchanged.) A forward
   move touches the lane's four flat cells, and its {!Stuck.t} only
   while backtracking; a route with no choice goes to [stuck]. True
   while the route goes on. *)
let advance rv s =
  let c = Array.unsafe_get rv.cur s and t = Array.unsafe_get rv.dst s in
  let st = Array.unsafe_get rv.mem s in
  let strict = (not rv.tracking) || Stuck.strict st in
  let v =
    if rv.line then begin
      let offsets = rv.offsets and targets = rv.targets in
      let dst_pos = pos rv t in
      let limit =
        if strict then begin
          let d = pos rv c - dst_pos in
          if d < 0 then -d else d
        end
        else max_int
      in
      let base = I32.unsafe_get offsets c in
      let deg = I32.unsafe_get offsets (c + 1) - base in
      let lo = ref 0 and hi = ref deg in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if pos rv (I32.unsafe_get targets (base + mid)) >= dst_pos then hi := mid else lo := mid + 1
      done;
      let l = ref (!lo - 1) and r = ref !lo and chosen = ref (-1) and scanning = ref true in
      while !scanning do
        let dl = if !l >= 0 then dst_pos - pos rv (I32.unsafe_get targets (base + !l)) else max_int
        and dr = if !r < deg then pos rv (I32.unsafe_get targets (base + !r)) - dst_pos else max_int in
        (* [m] is -1 when the right bracket is strictly closer, else 0
           (a tie goes left): the nearer bracket without a branch. The
           difference of two distances in [0, max_int] cannot overflow. *)
        let m = (dr - dl) asr 62 in
        let d = dl + ((dr - dl) land m) in
        if d >= limit then scanning := false (* exhausted or no closer candidate left *)
        else begin
          let take_left = m = 0 in
          let k = !l + ((!r - !l) land m) in
          let v = I32.unsafe_get targets (base + k) in
          if usable rv st ~cur:c ~base ~k v then begin
            rv.slot <- base + k;
            chosen := v;
            scanning := false
          end
          else begin
            if rv.tracing then record_excluded rv st ~cur:c ~base ~k ~v ~dist:d;
            if take_left then decr l else incr r
          end
        end
      done;
      !chosen
    end
    else row_hop rv st ~strict ~cur:c ~dst:t
  in
  if v >= 0 then begin
    let h = Array.unsafe_get rv.hops s + 1 in
    Array.unsafe_set rv.hops s h;
    Array.unsafe_set rv.cur s v;
    if rv.tracking then Stuck.forward st ~cur:c ~slot:rv.slot;
    if rv.hooked then moved rv ~strict ~cur:c ~v ~target:t;
    (v <> t && h < rv.max_hops) || ended rv s
  end
  else stuck rv s ~cur:c

(* The one driver: the view's lanes in flight. At scale every hop costs
   two dependent cache misses — [offsets.(cur)], then the row in
   [targets] it points at — and one route cannot overlap them.
   Independent routes can, so each step makes three passes over the
   lanes: load every lane's offsets pair, touch the first and last entry
   of every lane's row, then advance every lane on rows that are now
   cached; the out-of-order core keeps one pass's misses in flight
   together (group prefetching with plain loads). The loads feed [sink],
   kept live past the loop, so the compiler cannot drop them. One lane
   has nothing to overlap: it skips the first two passes. *)
let drive rv =
  let pair = rv.pair and cur = rv.cur and offsets = rv.offsets and targets = rv.targets in
  let w = Array.length pair in
  for s = 0 to w - 1 do
    fill rv s
  done;
  let sink = ref 0 and live = ref (w > 0) in
  while !live do
    live := false;
    if w > 1 then begin
      for s = 0 to w - 1 do
        if Array.unsafe_get pair s >= 0 then begin
          let c = Array.unsafe_get cur s in
          sink := !sink lxor I32.unsafe_get offsets c lxor I32.unsafe_get offsets (c + 1)
        end
      done;
      for s = 0 to w - 1 do
        if Array.unsafe_get pair s >= 0 then begin
          let c = Array.unsafe_get cur s in
          let b = I32.unsafe_get offsets c and e = I32.unsafe_get offsets (c + 1) in
          if e > b then sink := !sink lxor I32.unsafe_get targets b lxor I32.unsafe_get targets (e - 1)
        end
      done
    end;
    for s = 0 to w - 1 do
      if Array.unsafe_get pair s >= 0 then begin
        live := true;
        if not (advance rv s) then fill rv s
      end
    done
  done;
  ignore (Sys.opaque_identity !sink)

let route ?(failures = Failure.none) ?(side = Two_sided) ?(strategy = Terminate)
    ?(max_hops = 1_000_000) ?rng ?scratch ?on_hop net ~src ~dst =
  let mem = [| (match scratch with Some s -> s | None -> Stuck.create ()) |] in
  let out = [| Delivered { hops = 0 } |] in
  drive
    (view ~failures ~side ~strategy ~max_hops ~rng:(fun _ -> rng) ~on_hop ~width:1 ~mem net
       ~pairs:[| (src, dst) |] ~lo:0 ~len:1 ~out);
  out.(0)

let route_lockstep ?(failures = Failure.none) ?(side = Two_sided) ?(strategy = Terminate)
    ?(max_hops = 1_000_000) ?rng ?scratch net ~pairs ~lo ~len ~out =
  let rng = match rng with None -> fun _ -> None | Some f -> fun i -> Some (f i) in
  let width = lockstep_width strategy in
  let w = Int.min width len in
  let mem =
    match scratch with
    | Some a when Array.length a >= w -> a
    | Some _ -> invalid_arg "Route.route_lockstep: too few scratch states"
    | None -> Array.init w (fun _ -> Stuck.create ())
  in
  drive (view ~failures ~side ~strategy ~max_hops ~rng ~on_hop:None ~width ~mem net ~pairs ~lo ~len ~out)

(* Length of the walk after erasing every excursion: each revisit of a node
   truncates the walk back to its first visit. For a backtracking search
   this is the length of the route the message would have taken had it
   known the dead ends in advance — the "delivery time" scale Figure 6(b)
   plots. *)
let loop_erased_length path =
  let position = Hashtbl.create 64 in
  let stack = ref [||] in
  let top = ref 0 in
  let push v =
    if !top = Array.length !stack then begin
      let bigger = Array.make (max 16 (2 * !top)) 0 in
      Array.blit !stack 0 bigger 0 !top;
      stack := bigger
    end;
    !stack.(!top) <- v;
    Hashtbl.replace position v !top;
    incr top
  in
  (* ftr-lint: disable T4 -- post-hoc analysis of an already-materialised path list, not the routing loop *)
  List.iter
    (fun v ->
      match Hashtbl.find_opt position v with
      | Some i when i < !top && !stack.(i) = v ->
          (* Revisit: unwind the excursion. *)
          for j = i + 1 to !top - 1 do
            Hashtbl.remove position !stack.(j)
          done;
          top := i + 1
      | Some _ | None -> push v)
    path;
  max 0 (!top - 1)

let route_path ?failures ?side ?strategy ?max_hops ?rng ?scratch net ~src ~dst =
  let path = ref [ src ] in
  let outcome =
    route ?failures ?side ?strategy ?max_hops ?rng ?scratch
      ~on_hop:(fun v -> path := v :: !path)
      net ~src ~dst
  in
  (outcome, List.rev !path)
