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

(* Reusable per-route working state: the backtracking search's tried
   links and window ({!Stuck.t}), 1 KiB to start whatever the size of the
   network, grown by the longest route it serves. A backtracking route
   without a caller-held one creates its own. *)
type scratch = Stuck.t

let scratch (_ : Network.t) = Stuck.create ()

(* Stand-in for strategies that never record tried links ({!Terminate},
   {!Random_reroute}) when the caller supplied no scratch: never read or
   written, so sharing one global is safe. *)
let dummy_scratch = Stuck.create ()

(* Stand-in position vector for full networks, whose positions are the
   identity and are not stored: every read goes through [pos] below with
   [identity] true, so it is never read. *)
let no_positions = I32.create 0

(* Everything the hop choice reads, resolved once per route by [route]
   and once per chunk by [route_lockstep]:
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
   - the tried-link set, read only when [tracking], and the
     flight-recorder handle, live only when [tracing]. *)
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
  tried : Tried.t;
  tracking : bool;
  tr : Ftr_obs.Tracing.t;
  tracing : bool;
}

let view ~failures ~side ~tried ~tracking ~tr ~tracing net =
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
    tried;
    tracking;
    tr;
    tracing;
  }

(* Line position of node [v]: the node index itself on a full network,
   one (cache-missing, at scale) load from the sparse vector otherwise. *)
let[@inline] pos rv v = if rv.identity then v else I32.unsafe_get rv.positions v

(* Node behind link [k] of [cur]. *)
let[@inline] nth_target rv ~cur k = I32.unsafe_get rv.targets (I32.unsafe_get rv.offsets cur + k)

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
let[@inline] usable rv ~cur ~base ~k v =
  (rv.link_all || Failure.link_alive rv.failures ~src:cur ~idx:k)
  && (match rv.node_bits with
     | Some b -> Bitset.unsafe_get b v
     | None -> rv.node_all || Failure.node_alive rv.failures v)
  && not (rv.tracking && Tried.mem rv.tried (base + k))

(* Flight-recorder verdict for a candidate [usable] rejected: re-run the
   conjuncts one by one to name the first that failed. The gate is
   re-checked here so the write is gated on every path (rules D1, T1); the
   recomputation (plus the record's allocation, inside
   [Ftr_obs.Tracing]) costs nothing when the recorder is off. *)
let record_excluded rv ~cur ~base ~k ~v ~dist =
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
      else if rv.tracking && Tried.mem rv.tried (base + k) then
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
   index into [cur]'s row, or -1 when there is none. Both drivers —
   [route]'s greedy legs and [route_lockstep] — call this one scan. *)
let best_hop rv ~mode ~cur ~dst =
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
        if usable rv ~cur ~base ~k v then begin
          best_idx := k;
          scanning := false
        end
        else begin
          if tracing then record_excluded rv ~cur ~base ~k ~v ~dist:d;
          if take_left then decr l else incr r
        end
      end
    done
  end
  else
    for k = 0 to deg - 1 do
      let v = I32.unsafe_get rv.targets (base + k) in
      if usable rv ~cur ~base ~k v then begin
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
      else if tracing then record_excluded rv ~cur ~base ~k ~v ~dist:(distance rv ~dst_pos v ~dst)
    done;
  !best_idx

(* Sanitizer hook: a hop chosen in [`Strict] mode must obey the greedy
   contract — strictly decrease the routing distance, and on one-sided
   networks never overshoot the target (Section 4.2.1). [best_hop]
   establishes this by construction; the check guards against regressions
   in the candidate filter. *)
let debug_check_strict_hop net ~side ~cur ~v ~dst =
  if Ftr_debug.Debug.enabled () then begin
    let rd = match side with One_sided -> `One_sided | Two_sided -> `Two_sided in
    let dv = Network.routing_distance net ~side:rd ~src:v ~dst
    and dc = Network.routing_distance net ~side:rd ~src:cur ~dst in
    if dv >= dc then
      Ftr_debug.Debug.failf
        "Route: strict hop %d -> %d fails to approach %d (distance %d >= %d)" cur v dst dv dc;
    if side = One_sided && not (Network.one_sided_admissible net ~cur ~v ~dst) then
      Ftr_debug.Debug.failf "Route: one-sided hop %d -> %d overshoots target %d" cur v dst
  end

let check_endpoints failures ~n ~src ~dst =
  if src < 0 || src >= n || dst < 0 || dst >= n then invalid_arg "Route.route: node out of range";
  if not (Failure.node_alive failures dst) then invalid_arg "Route.route: destination is dead";
  if not (Failure.node_alive failures src) then invalid_arg "Route.route: source is dead"

let route ?(failures = Failure.none) ?(side = Two_sided) ?(strategy = Terminate)
    ?(max_hops = 1_000_000) ?rng ?scratch:scr ?(on_hop = fun _ -> ()) net ~src ~dst =
  let n = Network.size net in
  check_endpoints failures ~n ~src ~dst;
  (* Telemetry: one bool load here is the whole cost when FTR_OBS is off.
     When on, the outcome feeds the route_hops histogram, the stuck-reason
     counters and one route.done event below; the hops themselves are
     recorded once, as the flight recorder's steps, and [on_hop] is
     wrapped only while tracing. *)
  let obs = Ftr_obs.Flag.enabled () in
  (* Flight recorder (docs/OBSERVABILITY.md, "Tracing"): [tr] is the
     shared null sentinel unless FTR_OBS and the recorder are both on, and
     every recording call below hides behind [tracing] — one immediate
     bool per check — so the hot loops stay branch-cheap and
     allocation-free when tracing is off. All trace allocation happens
     inside [Ftr_obs.Tracing], never in this file's loops. *)
  let tr = if obs then Ftr_obs.Tracing.begin_route ~src ~dst else Ftr_obs.Tracing.null in
  let tracing = Ftr_obs.Flag.enabled () && Ftr_obs.Tracing.is_live tr in
  if tracing then
    Ftr_obs.Tracing.set_context tr
      ~nodes:(Failure.node_view_label failures)
      ~links:(Failure.link_view_label failures)
      ~strategy:(strategy_label strategy);
  let on_hop =
    if tracing then (fun v ->
      Ftr_obs.Tracing.hop tr ~node:v;
      on_hop v)
    else on_hop
  in
  (* Only {!Backtrack} records tried links; the other strategies never
     read the set, and create no scratch when the caller supplied none. *)
  let tracking = match strategy with Backtrack _ -> true | Terminate | Random_reroute _ -> false in
  let scr =
    match scr with
    | Some s -> s
    | None when tracking -> Stuck.create ()
    (* Selected only when tracking is off, and every scratch write in
       [route] is tracking-guarded: a shared read-only sentinel.
       ftr-lint: disable T1 *)
    | None -> dummy_scratch
  in
  let rv = view ~failures ~side ~tried:(Stuck.tried scr) ~tracking ~tr ~tracing net in
  let trace_chosen ~cur ~v ~target =
    if tracing then
      Ftr_obs.Tracing.candidate tr ~cur ~cand:v
        ~dist:(Network.routing_distance net ~side:rv.rd ~src:v ~dst:target)
        Ftr_obs.Tracing.Chosen
  in
  (* Greedy leg toward [target]; stops at the target, at a stuck node, or at
     the hop budget. Returns (terminus, hops_so_far, ran_out_of_budget). *)
  let greedy_leg ~start ~target ~hops =
    let cur = ref start and h = ref hops and stop = ref false in
    while (not !stop) && !cur <> target && !h < max_hops do
      let k = best_hop rv ~mode:`Strict ~cur:!cur ~dst:target in
      if k >= 0 then begin
        let v = nth_target rv ~cur:!cur k in
        debug_check_strict_hop net ~side ~cur:!cur ~v ~dst:target;
        if tracing then trace_chosen ~cur:!cur ~v ~target;
        cur := v;
        incr h;
        on_hop v
      end
      else stop := true
    done;
    (!cur, !h, (!cur <> target && not !stop))
  in
  let random_live_node () =
    match rng with
    | None -> None
    | Some rng ->
        let rec attempt tries =
          if tries > 100_000 then None
          else
            let v = Ftr_prng.Rng.int rng n in
            if Failure.node_alive failures v then Some v else attempt (tries + 1)
        in
        attempt 0
  in
  let outcome =
  match strategy with
  | Terminate ->
      let terminus, h, out_of_budget = greedy_leg ~start:src ~target:dst ~hops:0 in
      if terminus = dst then Delivered { hops = h }
      else if out_of_budget then Failed { hops = h; stuck_at = terminus; reason = Hop_limit }
      else Failed { hops = h; stuck_at = terminus; reason = No_live_neighbor }
  | Random_reroute { attempts } ->
      if attempts < 0 then invalid_arg "Route.route: attempts must be >= 0";
      let rec go cur h attempts_left =
        let terminus, h, out_of_budget = greedy_leg ~start:cur ~target:dst ~hops:h in
        if terminus = dst then Delivered { hops = h }
        else if out_of_budget then Failed { hops = h; stuck_at = terminus; reason = Hop_limit }
        else if attempts_left = 0 then
          Failed { hops = h; stuck_at = terminus; reason = No_live_neighbor }
        else
          match random_live_node () with
          | None -> Failed { hops = h; stuck_at = terminus; reason = No_live_reroute_target }
          | Some r ->
              if tracing then Ftr_obs.Tracing.reroute tr ~from_node:terminus ~target:r;
              (* Carry the message to the random intermediate (or as close
                 as greedy gets), then resume toward the destination. *)
              let mid, h, out_of_budget = greedy_leg ~start:terminus ~target:r ~hops:h in
              if out_of_budget then Failed { hops = h; stuck_at = mid; reason = Hop_limit }
              else go mid h (attempts_left - 1)
      in
      go src 0 attempts
  | Backtrack { history } ->
      if history < 1 then invalid_arg "Route.route: history must be >= 1";
      (* The hooks stay absent unless tracing, the sanitizer or telemetry
         needs them, so the step makes one indirect call per hop beyond
         [on_hop]: the scan. *)
      let moved =
        if tracing || Ftr_debug.Debug.enabled () then
          Some
            (fun cur v strict ->
              if strict then debug_check_strict_hop net ~side ~cur ~v ~dst;
              trace_chosen ~cur ~v ~target:dst)
        else None
      and backtracked =
        if obs then
          Some
            (fun from_node to_node ->
              Ftr_obs.Metrics.incr "route_backtracks_total";
              if tracing then Ftr_obs.Tracing.backtrack tr ~from_node ~to_node)
        else None
      in
      (* A backtracked node's [`Any] scan is the "next best neighbour":
         once its strictly closer options are exhausted, the search may
         route around the hole through a farther neighbour. Without
         this, delivery would require a monotone live path, and the
         failure fractions of Figure 6 are unreachable. *)
      Stuck.search scr ~history ~max_hops ~csr:(Network.csr net)
        ~scan:(fun mode cur -> best_hop rv ~mode ~cur ~dst)
        ?moved ?backtracked ~on_hop ~src ~dst
  in
  if obs then begin
    (match outcome with
    | Delivered { hops = h } ->
        Ftr_obs.Metrics.incr "route_delivered_total";
        Ftr_obs.Metrics.observe_int "route_hops" h
    | Failed { hops = h; reason; _ } ->
        Ftr_obs.Metrics.incr ~labels:[ ("reason", reason_label reason) ] "route_stuck_total";
        Ftr_obs.Metrics.observe_int "route_hops" h);
    if tracing then begin
      match outcome with
      | Delivered { hops = h } ->
          Ftr_obs.Tracing.finish tr ~delivered:true ~hops:h ~stuck_at:(-1) ~reason:""
      | Failed { hops = h; stuck_at; reason } ->
          Ftr_obs.Tracing.finish tr ~delivered:false ~hops:h ~stuck_at
            ~reason:(reason_label reason)
    end;
    Ftr_obs.Events.emit ~kind:"route.done"
      [
        ("src", Ftr_obs.Json.Int src);
        ("dst", Ftr_obs.Json.Int dst);
        ("delivered", Ftr_obs.Json.Bool (delivered outcome));
        ("hops", Ftr_obs.Json.Int (hops outcome));
      ]
  end;
  outcome

(* Routes in flight at once in [route_lockstep]. On an n=2^20, links=8
   network the gain over one route at a time plateaus from 4 to 32
   routes (the sweep is in docs/MEMORY_LAYOUT.md, "Batch routing"). *)
let lockstep_width = 16

(* {!Terminate} routing of many pairs, advanced one hop per step across
   [lockstep_width] slots. At scale every hop costs two dependent cache
   misses — [offsets.(cur)], then the row in [targets] it points at — and
   one route can never overlap them, since each hop's row depends on the
   previous hop's choice. Different routes are independent, so each step
   makes three passes over the slots: load every slot's offsets pair,
   touch the first and last entry of every slot's row, then run
   [best_hop] on rows that are now cached. The out-of-order core keeps
   the misses of one pass in flight together (group prefetching, with
   plain loads standing in for prefetch instructions). A finished slot
   records its outcome and refills from the next pair. The outcome of
   each pair is exactly [route ~strategy:Terminate]'s. *)
let lockstep_terminate ~failures ~side ~max_hops net ~pairs =
  let n = Network.size net in
  Array.iter (fun (src, dst) -> check_endpoints failures ~n ~src ~dst) pairs;
  let rv =
    view ~failures ~side ~tried:(Stuck.tried dummy_scratch) ~tracking:false ~tr:Ftr_obs.Tracing.null
      ~tracing:false net
  in
  let count = Array.length pairs in
  let out = Array.make count (Delivered { hops = 0 }) in
  let w = lockstep_width in
  let cur = Array.make w 0 and dst = Array.make w 0 and hops = Array.make w 0 in
  let pair = Array.make w (-1) and base = Array.make w 0 and deg = Array.make w 0 in
  let next = ref 0 in
  (* Load the next pair that needs a hop into slot [s], settling the
     pairs that need none ([src = dst], a spent budget) on the way. An
     idle slot holds pair -1. *)
  let rec fill s =
    if !next >= count then pair.(s) <- -1
    else begin
      let i = !next in
      incr next;
      let src, d = pairs.(i) in
      if src = d then begin
        out.(i) <- Delivered { hops = 0 };
        fill s
      end
      else if max_hops <= 0 then begin
        out.(i) <- Failed { hops = 0; stuck_at = src; reason = Hop_limit };
        fill s
      end
      else begin
        cur.(s) <- src;
        dst.(s) <- d;
        hops.(s) <- 0;
        pair.(s) <- i
      end
    end
  in
  let delivered s h =
    out.(pair.(s)) <- Delivered { hops = h };
    fill s
  in
  let failed s h stuck_at reason =
    out.(pair.(s)) <- Failed { hops = h; stuck_at; reason };
    fill s
  in
  for s = 0 to w - 1 do
    fill s
  done;
  (* The touched row entries feed [sink], kept live past the loop, so the
     compiler cannot drop the loads of the second pass. *)
  let sink = ref 0 and live = ref true in
  while !live do
    live := false;
    for s = 0 to w - 1 do
      if pair.(s) >= 0 then begin
        let c = cur.(s) in
        let b = I32.unsafe_get rv.offsets c in
        base.(s) <- b;
        deg.(s) <- I32.unsafe_get rv.offsets (c + 1) - b;
        live := true
      end
    done;
    for s = 0 to w - 1 do
      if pair.(s) >= 0 && deg.(s) > 0 then
        sink :=
          !sink
          lxor I32.unsafe_get rv.targets base.(s)
          lxor I32.unsafe_get rv.targets (base.(s) + deg.(s) - 1)
    done;
    for s = 0 to w - 1 do
      if pair.(s) >= 0 then begin
        let c = cur.(s) and d = dst.(s) in
        let k = best_hop rv ~mode:`Strict ~cur:c ~dst:d in
        if k < 0 then failed s hops.(s) c No_live_neighbor
        else begin
          let v = I32.unsafe_get rv.targets (base.(s) + k) in
          debug_check_strict_hop net ~side ~cur:c ~v ~dst:d;
          let h = hops.(s) + 1 in
          if v = d then delivered s h
          else if h >= max_hops then failed s h v Hop_limit
          else begin
            cur.(s) <- v;
            hops.(s) <- h
          end
        end
      end
    done
  done;
  ignore (Sys.opaque_identity !sink);
  out

let route_lockstep ?(failures = Failure.none) ?(side = Two_sided) ?(max_hops = 1_000_000) net
    ~pairs =
  (* Telemetry records per route, so with it on every pair goes through
     [route], in order. *)
  if Ftr_obs.Flag.enabled () then
    Array.map (fun (src, dst) -> route ~failures ~side ~max_hops net ~src ~dst) pairs
  else lockstep_terminate ~failures ~side ~max_hops net ~pairs

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
