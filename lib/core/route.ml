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

(* One route's working state: see {!Stuck.t}. A route without a
   caller-held one creates its own. *)
type scratch = Stuck.t

let scratch (_ : Network.t) = Stuck.create ()

(* Stand-in position vector for full networks, whose positions are the
   identity and are not stored: every read goes through [pos] below with
   [identity] true, so it is never read. *)
let no_positions = I32.create 0

(* One driver call: what the hop choice reads, resolved once, and the
   pairs it routes.
   - the CSR vectors and the geometry, so the candidate scan computes
     two-sided distances inline — integer arithmetic per candidate
     instead of a call into [Network]. On a full network ([identity]) a
     target index is its position, so the scan loads no position at all;
     a sparse network pays one array load per candidate. One-sided
     routing keeps the generic path (it also needs the overshoot test);
   - the failure fast paths: node liveness through the concrete bitset
     when the view has one, link liveness skipped entirely when
     everything is statically alive, the general closure forms as the
     fallback;
   - the strategy's parameters, [tracking] when the scan skips tried links;
   - the pairs left, [pairs.(next .. stop - 1)], whose outcomes go to [out];
   - the current route's flight-recorder handle, live only when [tracing]. *)
type view = {
  net : Network.t;
  offsets : I32.t;
  targets : I32.t;
  identity : bool;
  positions : I32.t;
  lsize : int;
  circle : bool;
  two_sided : bool;
  rd : [ `One_sided | `Two_sided ];
  failures : Failure.t;
  node_bits : Bitset.t option;
  node_all : bool;
  link_all : bool;
  strategy : strategy;
  tracking : bool;
  history : int;
  attempts : int;
  max_hops : int;
  obs : bool;
  on_hop : (int -> unit) option;
  rng : int -> Ftr_prng.Rng.t option;
  pairs : (int * int) array;
  out : outcome array;
  stop : int;
  mutable next : int;
  mutable tr : Ftr_obs.Tracing.t;
  mutable tracing : bool;
}

(* Every pair and the strategy are checked before any route starts. *)
let view ~failures ~side ~strategy ~max_hops ~rng ~on_hop net ~pairs ~lo ~len ~out =
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
  {
    net;
    offsets;
    targets;
    identity;
    positions;
    lsize = Network.line_size net;
    circle = (match Network.geometry net with Network.Circle -> true | Network.Line -> false);
    two_sided = (match side with Two_sided -> true | One_sided -> false);
    rd = (match side with One_sided -> `One_sided | Two_sided -> `Two_sided);
    failures;
    node_bits = Failure.node_alive_bits failures;
    node_all = Failure.node_all_alive failures;
    link_all = Failure.link_all_alive failures;
    strategy;
    tracking;
    history;
    attempts;
    max_hops;
    obs = Ftr_obs.Flag.enabled ();
    on_hop;
    rng;
    pairs;
    out;
    stop = lo + len;
    next = lo;
    (* ftr-lint: disable T1 -- the null trace: every Tracing writer checks [live] first *)
    tr = Ftr_obs.Tracing.null;
    tracing = false;
  }

(* Line position of node [v]: the node index itself on a full network,
   one (cache-missing, at scale) load from the sparse vector otherwise. *)
let[@inline] pos rv v = if rv.identity then v else I32.unsafe_get rv.positions v

(* Unsafe I32/array reads below are justified by construction-time CSR
   validation ([Adjacency.Csr.validate], re-checked by the Check
   battery): every target is a node index in [0, n) and every slot is
   below [offsets.(n)]. The I32 reads are allocation-free: the
   [Int32.to_int] in the accessor cancels the Bigarray box (see
   Adjacency.I32). *)
let dist_to rv ~dst_pos v =
  let d = pos rv v - dst_pos in
  let d = if d < 0 then -d else d in
  if rv.circle then min d (rv.lsize - d) else d

(* Routing distance from [v] to [dst] on the view's side. *)
let distance rv ~dst_pos v ~dst =
  if rv.two_sided then dist_to rv ~dst_pos v
  else Network.routing_distance rv.net ~side:rv.rd ~src:v ~dst

(* Link [k] of [cur] (slot [base + k]) leads to a live node over a live
   link that the current route has not tried yet. *)
let[@inline] usable rv ~tried ~cur ~base ~k v =
  (rv.link_all || Failure.link_alive rv.failures ~src:cur ~idx:k)
  && (match rv.node_bits with
     | Some b -> Bitset.unsafe_get b v
     | None -> rv.node_all || Failure.node_alive rv.failures v)
  && not (rv.tracking && Tried.mem tried (base + k))

(* Flight-recorder verdict for a candidate [usable] rejected: re-run the
   conjuncts one by one to name the first that failed. The gate is
   re-checked here so the write is gated on every path (rules D1, T1); the
   recomputation (plus the record's allocation, inside
   [Ftr_obs.Tracing]) costs nothing when the recorder is off. *)
let record_excluded rv ~tried ~cur ~base ~k ~v ~dist =
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
      else if rv.tracking && Tried.mem tried (base + k) then
        Ftr_obs.Tracing.Already_tried
      else Ftr_obs.Tracing.Not_closer
    in
    Ftr_obs.Tracing.candidate rv.tr ~cur ~cand:v ~dist verdict
  end

(* The hop choice: the best live untried neighbour of [cur], subject to
   the one-sided no-overshoot rule when requested. In [`Strict] mode only
   neighbours strictly closer to [dst] qualify (the greedy rule); in
   [`Any] mode every untried live neighbour qualifies, still ranked by
   distance to [dst] — used when resuming from a backtracked node, where
   the "next best neighbour" may have to route around a hole. Ties go to
   the first candidate in sorted-position order, matching "ties broken
   arbitrarily" (Section 4.2.1) deterministically. Returns the winner's
   index into [cur]'s row, or -1 when there is none. *)
let best_hop rv ~tried ~mode ~cur ~dst =
  let tracing = rv.tracing && Ftr_obs.Flag.enabled () in
  let dst_pos = pos rv dst in
  let cur_dist = distance rv ~dst_pos cur ~dst in
  let base = I32.unsafe_get rv.offsets cur in
  let deg = I32.unsafe_get rv.offsets (cur + 1) - base in
  let limit = match mode with `Strict -> cur_dist | `Any -> max_int in
  let best = ref (-1) and best_idx = ref (-1) and best_dist = ref limit in
  if rv.two_sided && not rv.circle then begin
    (* Line fast path, exploiting the per-row sorted invariant: the live
       neighbour closest to [dst] is found by bisecting the row to the
       two entries bracketing [dst_pos] and walking the brackets outward
       in increasing-distance order, stopping at the first live
       candidate. Equivalent to the full scan below: that scan keeps the
       minimum-distance live candidate, ties to the earliest row entry —
       i.e. the smaller position, which is exactly the left bracket this
       merge prefers on ties ([dl <= dr]). (When duplicate row entries
       name one node, the two orders can record a different *slot* as
       tried, but the slots alias the same node with the same
       remaining multiplicity, so the visited-node sequence — and the
       outcome — is unchanged.) *)
    let lo = ref 0 and hi = ref deg in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if pos rv (I32.unsafe_get rv.targets (base + mid)) >= dst_pos then hi := mid
      else lo := mid + 1
    done;
    let l = ref (!lo - 1) and r = ref !lo in
    let scanning = ref true in
    while !scanning do
      let dl =
        if !l >= 0 then dst_pos - pos rv (I32.unsafe_get rv.targets (base + !l)) else max_int
      and dr =
        if !r < deg then pos rv (I32.unsafe_get rv.targets (base + !r)) - dst_pos else max_int
      in
      let take_left = dl <= dr in
      let d = if take_left then dl else dr in
      if d >= limit then scanning := false (* exhausted or no closer candidate left *)
      else begin
        let k = if take_left then !l else !r in
        let v = I32.unsafe_get rv.targets (base + k) in
        if usable rv ~tried ~cur ~base ~k v then begin
          best_idx := k;
          scanning := false
        end
        else begin
          if tracing then record_excluded rv ~tried ~cur ~base ~k ~v ~dist:d;
          if take_left then decr l else incr r
        end
      end
    done
  end
  else
    for k = 0 to deg - 1 do
      let v = I32.unsafe_get rv.targets (base + k) in
      if usable rv ~tried ~cur ~base ~k v then begin
        let v_dist = distance rv ~dst_pos v ~dst in
        let admissible =
          v_dist < !best_dist
          && (rv.two_sided || Network.one_sided_admissible rv.net ~cur ~v ~dst)
        in
        if admissible then begin
          (* A superseded provisional best was examined and not taken:
             record it so the trace names every also-ran. *)
          if tracing && !best >= 0 then
            Ftr_obs.Tracing.candidate rv.tr ~cur ~cand:!best ~dist:!best_dist
              Ftr_obs.Tracing.Not_best;
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
      else if tracing then record_excluded rv ~tried ~cur ~base ~k ~v ~dist:(distance rv ~dst_pos v ~dst)
    done;
  !best_idx

(* Sanitizer hook: a hop chosen in [`Strict] mode must obey the greedy
   contract — strictly decrease the routing distance, and on one-sided
   networks never overshoot the target (Section 4.2.1). [best_hop]
   establishes this by construction; the check guards against regressions
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

(* A forward move from [cur] to [v] toward [target]: the chosen
   candidate, then the hop. *)
let trace_move rv ~cur ~v ~target =
  if rv.tracing && Ftr_obs.Flag.enabled () then begin
    Ftr_obs.Tracing.candidate rv.tr ~cur ~cand:v
      ~dist:(Network.routing_distance rv.net ~side:rv.rd ~src:v ~dst:target)
      Ftr_obs.Tracing.Chosen;
    Ftr_obs.Tracing.hop rv.tr ~node:v
  end

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

(* A lane holds one route: its {!Stuck.t}, the index of its pair (-1
   while idle) and, for {!Random_reroute}, the reroutes it has left,
   whether it is on a detour toward an intermediate, and its generator. *)
type lane = {
  st : Stuck.t;
  mutable pair : int;
  mutable left : int;
  mutable detour : bool;
  mutable rng : Ftr_prng.Rng.t option;
}

let lane st = { st; pair = -1; left = 0; detour = false; rng = None }

let settle rv l outcome =
  rv.out.(l.pair) <- outcome;
  if rv.obs then end_trace rv rv.pairs.(l.pair) outcome;
  l.pair <- -1

(* A lane whose route is at its target or out of budget: the route is
   settled, unless it is a detour that reached its intermediate, which
   turns back toward the destination. True while the route goes on. *)
let rec ended rv l =
  let st = l.st in
  if l.detour && Stuck.cur st = Stuck.dst st then begin
    l.detour <- false;
    Stuck.retarget st (snd rv.pairs.(l.pair));
    (Stuck.cur st <> Stuck.dst st && Stuck.hops st < rv.max_hops) || ended rv l
  end
  else begin
    settle rv l (Stuck.outcome st Hop_limit);
    false
  end

(* Lane [l] before its next scan: true while its route goes on. *)
let[@inline] going rv l =
  (Stuck.cur l.st <> Stuck.dst l.st && Stuck.hops l.st < rv.max_hops) || ended rv l

(* Load pairs into idle lane [l] until one needs a scan, settling the
   routes that need none ([src = dst], a spent budget) on the way. *)
let rec fill rv l =
  if rv.next < rv.stop then begin
    let i = rv.next in
    rv.next <- i + 1;
    let src, dst = rv.pairs.(i) in
    if rv.obs then begin_trace rv ~src ~dst;
    Stuck.start l.st ~track:rv.tracking ~history:rv.history ~src ~dst;
    l.pair <- i;
    l.left <- rv.attempts;
    l.detour <- false;
    if rv.attempts > 0 then l.rng <- rv.rng i;
    if not (going rv l) then fill rv l
  end

(* One decision of lane [l]: the scan, then {!Stuck.step}. A stuck route
   ends, or on a detour turns back, or draws a reroute target. *)
let[@inline] advance rv l =
  let st = l.st in
  let c = Stuck.cur st and strict = Stuck.strict st and target = Stuck.dst st in
  let k = best_hop rv ~tried:(Stuck.tried st) ~mode:(if strict then `Strict else `Any) ~cur:c ~dst:target in
  match Stuck.step st ~offsets:rv.offsets ~targets:rv.targets k with
  | Forward ->
      let v = Stuck.cur st in
      if strict && Ftr_debug.Debug.enabled () then debug_check_strict_hop rv ~cur:c ~v ~dst:target;
      if rv.tracing then trace_move rv ~cur:c ~v ~target;
      (match rv.on_hop with Some f -> f v | None -> ());
      going rv l
  | Popped ->
      let y = Stuck.cur st in
      if rv.obs then trace_backtrack rv ~from_node:c ~to_node:y;
      (match rv.on_hop with Some f -> f y | None -> ());
      going rv l
  | Lost -> going rv l
  | Stuck when l.detour ->
      l.detour <- false;
      Stuck.retarget st (snd rv.pairs.(l.pair));
      going rv l
  | Stuck -> (
      match if l.left = 0 then None else random_live_node rv l.rng with
      | Some r ->
          trace_reroute rv ~from_node:c ~target:r;
          l.left <- l.left - 1;
          l.detour <- true;
          Stuck.retarget st r;
          going rv l
      | None ->
          settle rv l
            (Stuck.outcome st (if l.left = 0 then No_live_neighbor else No_live_reroute_target));
          false)

(* The one driver: [lanes] routes in flight (one with telemetry on, which
   records per route, in order). At scale every hop costs two dependent
   cache misses — [offsets.(cur)], then the row in [targets] it points
   at — and one route cannot overlap them. Independent routes can, so
   each step makes three passes over the lanes: load every lane's
   offsets pair, touch the first and last entry of every lane's row,
   then scan rows that are now cached; the out-of-order core keeps one
   pass's misses in flight together (group prefetching with plain
   loads). The loads feed [sink], kept live past the loop, so the
   compiler cannot drop them. One lane has nothing to overlap: it skips
   the first two passes. *)
let drive rv ~lanes ~len =
  let w = Int.min (if rv.obs then 1 else Array.length lanes) len in
  for s = 0 to w - 1 do
    fill rv lanes.(s)
  done;
  let sink = ref 0 and live = ref (w > 1) in
  if w = 1 then begin
    let l = lanes.(0) in
    while l.pair >= 0 do
      if not (advance rv l) then fill rv l
    done
  end;
  while !live do
    live := false;
    for s = 0 to w - 1 do
      let l = lanes.(s) in
      if l.pair >= 0 then begin
        let c = Stuck.cur l.st in
        sink := !sink lxor I32.unsafe_get rv.offsets c lxor I32.unsafe_get rv.offsets (c + 1);
        live := true
      end
    done;
    for s = 0 to w - 1 do
      let l = lanes.(s) in
      if l.pair >= 0 then begin
        let c = Stuck.cur l.st in
        let b = I32.unsafe_get rv.offsets c and e = I32.unsafe_get rv.offsets (c + 1) in
        if e > b then
          sink := !sink lxor I32.unsafe_get rv.targets b lxor I32.unsafe_get rv.targets (e - 1)
      end
    done;
    for s = 0 to w - 1 do
      let l = lanes.(s) in
      if l.pair >= 0 && not (advance rv l) then fill rv l
    done
  done;
  ignore (Sys.opaque_identity !sink)

let route ?(failures = Failure.none) ?(side = Two_sided) ?(strategy = Terminate)
    ?(max_hops = 1_000_000) ?rng ?scratch ?on_hop net ~src ~dst =
  let st = match scratch with Some s -> s | None -> Stuck.create () in
  let out = [| Delivered { hops = 0 } |] in
  drive ~lanes:[| lane st |] ~len:1
    (view ~failures ~side ~strategy ~max_hops ~rng:(fun _ -> rng) ~on_hop net
       ~pairs:[| (src, dst) |] ~lo:0 ~len:1 ~out);
  out.(0)

let route_lockstep ?(failures = Failure.none) ?(side = Two_sided) ?(strategy = Terminate)
    ?(max_hops = 1_000_000) ?rng ?scratch net ~pairs ~lo ~len ~out =
  let rng = match rng with None -> fun _ -> None | Some f -> fun i -> Some (f i) in
  let rv = view ~failures ~side ~strategy ~max_hops ~rng ~on_hop:None net ~pairs ~lo ~len ~out in
  let w = Int.min (lockstep_width strategy) len in
  let lanes =
    match scratch with
    | Some a when Array.length a >= w -> Array.init w (fun s -> lane a.(s))
    | Some _ -> invalid_arg "Route.route_lockstep: too few scratch states"
    | None -> Array.init w (fun _ -> lane (Stuck.create ()))
  in
  drive rv ~lanes ~len

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
