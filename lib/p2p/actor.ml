(* One overlay node as an actor: the single implementation of the paper's
   Section 5 protocol. Two transports carry its messages — [Overlay]
   delivers them as [Ftr_sim.Engine] events with a latency model,
   [Ftr_svc.Service] through a deterministic tick inbox on a round scheduler
   — and both call the same handler, the same dead-carrier rule
   ([dead_mail]) and the same trace replay ([replay_trace]).

   Determinism discipline — what a handler may touch:
   - its own actor state (links, ring pointers, RNG),
   - the liveness view (read-only while a handler runs),
   - the transport's accumulators behind the [ctx] callbacks (outbox,
     counters, completions, departures).
   Nothing else: no other actor's state, no global registries, no wall
   clock. That confinement is what makes the service's merged transcript
   a pure function of (seed, logical time, sender, sequence).

   One owner per lookup: a forwarded lookup is the same record with
   [hops] incremented in place ([scan]), so whoever sends one gives it
   up — neither the handler nor the transport may read or keep a lookup
   once it is handed to [ctx.send]. Both transports deliver each
   message exactly once, which keeps the owner unique; [dead_mail]'s
   bounce copies the record it returns. *)

module Rng = Ftr_prng.Rng
module Sample = Ftr_prng.Sample
open Message

(* Ring pointers are positions, [none] when there is no neighbour on that
   side: a plain int keeps the neighbour scan off a separate [Some] box
   per pointer. *)
let none = -1

let pointer = function Some v -> v | None -> none

let pointer_opt v = if v = none then None else Some v

type t = {
  pos : int;
  mutable alive : bool;
  mutable left : int; (* ring predecessor, or [none] *)
  mutable right : int; (* ring successor, or [none] *)
  long : int array; (* long-link targets, newest first; capacity ℓ *)
  mutable n_long : int; (* live prefix of [long]; the rest is stale *)
  rng : Rng.t;
}

(* Handler-side event counters; the transport folds them into its stats. *)
type counters = {
  mutable c_messages : int; (* routed lookup forwards and solicitation answers *)
  mutable c_replies : int; (* Resolved/Splice/Set_* replies *)
  mutable c_probes : int;
  mutable c_repairs : int;
  mutable c_redirects : int;
  mutable c_maint_issued : int;
  mutable c_handled : int; (* messages processed *)
}

let fresh_counters () =
  {
    c_messages = 0;
    c_replies = 0;
    c_probes = 0;
    c_repairs = 0;
    c_redirects = 0;
    c_maint_issued = 0;
    c_handled = 0;
  }

let clear_counters c =
  c.c_messages <- 0;
  c.c_replies <- 0;
  c.c_probes <- 0;
  c.c_repairs <- 0;
  c.c_redirects <- 0;
  c.c_maint_issued <- 0;
  c.c_handled <- 0

(* Everything a handler is allowed to see beyond its own actor. [send]
   hands a message to the transport, [complete] records a lookup outcome
   for the transport's accounting, [depart] reports a graceful leave. *)
type ctx = {
  line_size : int;
  links : int;
  ttl : int;
  regenerate : bool;
  alive_view : Bytes.t; (* 1 = live; frozen for the round in the service *)
  pl : Sample.power_law;
  counters : counters;
  send : src:t -> dst:int -> payload -> unit;
  complete : lookup -> outcome -> unit;
  depart : int -> unit;
}

let[@inline] view_alive ctx pos =
  pos >= 0 && pos < ctx.line_size && Bytes.get ctx.alive_view pos = '\001'

let create ~pos ~links ~rng () =
  { pos; alive = true; left = none; right = none; long = Array.make links (-1); n_long = 0; rng }

(* ------------------------------------------------------------------ *)
(* The pure routing rules                                              *)
(* ------------------------------------------------------------------ *)

(* Section 4's greedy rule with the tie walk: a strictly closer neighbour
   advances the lookup; an equidistant neighbour at a smaller position
   also does, so a point midway between two nodes resolves to the same
   owner from either direction. *)
let[@inline] advances ~pos ~target ~cand =
  let my_dist = abs (pos - target) and d = abs (cand - target) in
  d < my_dist || (d = my_dist && cand < pos)

(* The largest line [key] packs exactly: a distance and a position on it
   both fit in 30 bits. *)
let max_line_size = 1 lsl 30

(* [c]'s distance to [target] and [c] itself packed into one int,
   |c - target| * 2^32 + c, computed without a branch ([s] is all ones
   when [c < target]). On a line of at most [max_line_size] points, key
   order is (distance, position) order, so [cand] advances from [pos]
   exactly when [key cand < key pos]. [none] packs to -1 whatever the
   target. *)
let[@inline] key ~target c =
  let d = c - target in
  let s = d asr (Sys.int_size - 1) in
  (((d lxor s) - s) lsl 32) lor c

(* The smaller of two non-negative keys, without a branch. *)
let[@inline] min_key a b =
  let d = a - b in
  b + (d land (d asr (Sys.int_size - 1)))

(* One min-scan over the neighbour set — [left] and [right], then
   [long.(0 .. n_long-1)], read in place: the advancing candidate with
   minimal (distance, position), or [-1] when this node owns the target's
   basin. The scan starts from this node's own key, so the least key is
   an advancing neighbour's exactly when it is below that start, and the
   tie walk needs no case of its own. A [none] ring pointer's -1 key is
   masked to [max_int], which never wins. Liveness is deliberately not
   consulted: the caller probes the single chosen candidate and, on a
   dead pick, repairs the link set and re-scans — the paper's failure
   detection by probing. *)
let best_candidate ~pos ~target ~left ~right ~long ~n_long =
  let own = key ~target pos in
  let m = min_key own (key ~target left land max_int) in
  let m = ref (min_key m (key ~target right land max_int)) in
  for i = 0 to n_long - 1 do
    m := min_key !m (key ~target long.(i))
  done;
  if !m < own then !m land ((1 lsl 32) - 1) else -1

(* ------------------------------------------------------------------ *)
(* Link bookkeeping                                                    *)
(* ------------------------------------------------------------------ *)

let index_long a target =
  let rec find i = if i = a.n_long then -1 else if a.long.(i) = target then i else find (i + 1) in
  find 0

(* Drop the first link to [target] (a link can be held twice), keeping
   the others in order; false when there is none. *)
let remove_long a target =
  let i = index_long a target in
  if i >= 0 then begin
    Array.blit a.long (i + 1) a.long i (a.n_long - i - 1);
    a.n_long <- a.n_long - 1
  end;
  i >= 0

(* A copy of the live links, newest first, for introspection. *)
let long_links a = Array.sub a.long 0 a.n_long

(* The newest link goes first; the caller keeps [n_long] under ℓ. *)
let add_long a target =
  Array.blit a.long 0 a.long 1 a.n_long;
  a.long.(0) <- target;
  a.n_long <- a.n_long + 1

(* The boot sampler, shared by both transports' instant populations:
   [actors] are fresh and sorted by position. Each gets its ring
   neighbours, then, in position order, ℓ draws of the 1/d rule from
   [rng], each sink snapped to the nearest boot position (ties to the
   left). A snap onto the node itself is dropped and a repeat is kept,
   so a node can start below ℓ (CHANGES.md PR 26). *)
let boot_links ~line_size ~links pl rng actors =
  let n = Array.length actors in
  let occupied = Bytes.make line_size '\000' in
  Array.iteri
    (fun i a ->
      Bytes.set occupied a.pos '\001';
      if i > 0 then a.left <- actors.(i - 1).pos;
      if i < n - 1 then a.right <- actors.(i + 1).pos)
    actors;
  (* The node's own position is occupied, so the widening walk ends. *)
  let rec nearest sink d =
    let lo = sink - d and hi = sink + d in
    if lo >= 0 && Bytes.get occupied lo = '\001' then lo
    else if hi < line_size && Bytes.get occupied hi = '\001' then hi
    else nearest sink (d + 1)
  in
  Array.iter
    (fun a ->
      for _ = 1 to links do
        let owner =
          nearest (Ftr_core.Network.sample_long_target pl rng ~n:line_size ~src:a.pos) 0
        in
        if owner <> a.pos then add_long a owner
      done)
    actors

(* Section 5's redirect rule ([Heuristic.redirect_victim]), applied when
   [newcomer] solicits a link from this actor: the evicted link leaves,
   the newcomer's becomes the newest. *)
let consider_redirect ctx a ~newcomer =
  let victim =
    Ftr_core.Heuristic.(redirect_victim Proportional) a.rng ~pos:a.pos ~newcomer a.long a.n_long
  in
  if victim >= 0 then begin
    ignore (remove_long a a.long.(victim));
    add_long a newcomer;
    ctx.counters.c_redirects <- ctx.counters.c_redirects + 1
  end

(* Ring repair: walk the line away from [from], one probe per grid point,
   until a live node other than this actor answers ([none] when the line
   ends first). *)
let probe_ring ctx a ~from ~dir =
  let rec walk pos =
    if pos < 0 || pos >= ctx.line_size then none
    else begin
      ctx.counters.c_probes <- ctx.counters.c_probes + 1;
      if view_alive ctx pos && pos <> a.pos then pos else walk (pos + dir)
    end
  in
  walk (from + dir)

(* ------------------------------------------------------------------ *)
(* Lookup processing                                                   *)
(* ------------------------------------------------------------------ *)

(* Append one step to a traced lookup's flight-recorder log. An
   untraced lookup comes back as is, and the step is built only when
   logged, so an untraced hop allocates nothing here. *)
let log_hop l ~cur = if l.traced then { l with tlog_rev = T_hop cur :: l.tlog_rev } else l

let log_cand l ~cur ~cand verdict =
  if l.traced then
    { l with tlog_rev = T_cand { cur; cand; dist = abs (cand - l.target); verdict } :: l.tlog_rev }
  else l

(* The traced half of a scan: every neighbour but the pick, in the scan's
   order, with why it lost, then the pick itself. *)
let log_candidates a l ~best =
  let log l v =
    if v = best then l
    else
      log_cand l ~cur:a.pos ~cand:v
        (if advances ~pos:a.pos ~target:l.target ~cand:v then V_not_best else V_not_closer)
  in
  let log_ring l v = if v = none then l else log l v in
  let l = ref (log_ring (log_ring l a.left) a.right) in
  for i = 0 to a.n_long - 1 do
    l := log !l a.long.(i)
  done;
  let l = !l in
  if best < 0 then l
  else log_cand l ~cur:a.pos ~cand:best V_chosen

(* A fresh maintenance lookup starts inline at its issuing actor. *)
let rec start_lookup ctx a ~kind ~target =
  ctx.counters.c_maint_issued <- ctx.counters.c_maint_issued + 1;
  enter ctx a (fresh_lookup ~request:(-1) ~origin:a.pos ~target kind)

(* Arrival at a decision point: record the hop, check the TTL, scan.
   Re-entries after a repair come back here with unchanged hops. *)
and enter ctx a l =
  let l = log_hop l ~cur:a.pos in
  if l.hops >= ctx.ttl then
    ctx.complete l (Failed { stuck_at = a.pos; hops = l.hops; reason = "ttl_exceeded" })
  else scan ctx a l

and scan ctx a l =
  let best =
    best_candidate ~pos:a.pos ~target:l.target ~left:a.left ~right:a.right ~long:a.long
      ~n_long:a.n_long
  in
  let l = if l.traced then log_candidates a l ~best else l in
  if best < 0 then deliver ctx a l
  else if view_alive ctx best then begin
    ctx.counters.c_messages <- ctx.counters.c_messages + 1;
    l.hops <- l.hops + 1;
    ctx.send ~src:a ~dst:best (Lookup l)
  end
  else begin
    (* The probe discovers the pick is already dead: zero-latency
       repair, then re-enter with unchanged hops. *)
    ctx.counters.c_probes <- ctx.counters.c_probes + 1;
    let l = log_cand l ~cur:a.pos ~cand:best V_dead in
    repair ctx a ~dead:best;
    enter ctx a l
  end

(* This actor owns the target's basin. Maintenance kinds act at the
   owner (splice for placement, redirect for solicitation) and answer
   the origin where the protocol needs an answer. *)
and deliver ctx a l =
  (match l.kind with
  | User | Link -> ()
  | Placement { joiner } -> splice_in ctx a ~joiner
  | Solicit { newcomer } ->
      (* The solicitation answer is charged as one message. *)
      ctx.counters.c_messages <- ctx.counters.c_messages + 1;
      consider_redirect ctx a ~newcomer);
  ctx.complete l (Delivered { owner = a.pos; hops = l.hops });
  match l.kind with
  | (User | Link) when l.origin <> a.pos ->
      ctx.counters.c_replies <- ctx.counters.c_replies + 1;
      ctx.send ~src:a ~dst:l.origin
        (Resolved { request = l.request; owner = a.pos; hops = l.hops; kind = l.kind })
  | User | Link | Placement _ | Solicit _ -> ()

(* The owner-side half of a join splice. The self-owner case — the
   placement lookup resolved to the joiner itself, which is visible to
   probes while its join is in flight — probes both directions and
   continues the join inline. *)
and splice_in ctx a ~joiner =
  if joiner = a.pos then begin
    a.left <- probe_ring ctx a ~from:a.pos ~dir:(-1);
    a.right <- probe_ring ctx a ~from:a.pos ~dir:1;
    if a.left <> none then begin
      ctx.counters.c_replies <- ctx.counters.c_replies + 1;
      ctx.send ~src:a ~dst:a.left (Set_right (Some a.pos))
    end;
    if a.right <> none then begin
      ctx.counters.c_replies <- ctx.counters.c_replies + 1;
      ctx.send ~src:a ~dst:a.right (Set_left (Some a.pos))
    end;
    continue_join ctx a
  end
  else if a.pos < joiner then begin
    (* The stale-pointer case: our right pointer may still name a dead
       previous occupant of the joiner's own position; re-probe past it
       rather than handing the joiner a self-loop. *)
    let succ = if a.right = joiner then probe_ring ctx a ~from:joiner ~dir:1 else a.right in
    a.right <- joiner;
    ctx.counters.c_replies <- ctx.counters.c_replies + 1;
    ctx.send ~src:a ~dst:joiner (Splice { left = Some a.pos; right = pointer_opt succ });
    if succ <> none then begin
      ctx.counters.c_replies <- ctx.counters.c_replies + 1;
      ctx.send ~src:a ~dst:succ (Set_left (Some joiner))
    end
  end
  else begin
    let pred = if a.left = joiner then probe_ring ctx a ~from:joiner ~dir:(-1) else a.left in
    a.left <- joiner;
    ctx.counters.c_replies <- ctx.counters.c_replies + 1;
    ctx.send ~src:a ~dst:joiner (Splice { left = pointer_opt pred; right = Some a.pos });
    if pred <> none then begin
      ctx.counters.c_replies <- ctx.counters.c_replies + 1;
      ctx.send ~src:a ~dst:pred (Set_right (Some joiner))
    end
  end

(* Spliced in: build ℓ outgoing links through routed lookups and solicit
   Poisson(ℓ) incoming ones. *)
and continue_join ctx a =
  for _ = 1 to ctx.links do
    let sink = Ftr_core.Network.sample_long_target ctx.pl a.rng ~n:ctx.line_size ~src:a.pos in
    start_lookup ctx a ~kind:Link ~target:sink
  done;
  let solicit = Sample.poisson a.rng ~lambda:(float_of_int ctx.links) in
  for _ = 1 to solicit do
    let sink = Ftr_core.Network.sample_long_target ctx.pl a.rng ~n:ctx.line_size ~src:a.pos in
    start_lookup ctx a ~kind:(Solicit { newcomer = a.pos }) ~target:sink
  done

(* Remove a dead link and regenerate it with a fresh 1/d draw when the
   config says so (Section 5's "same heuristic can be used for
   regeneration of links when a node crashes"); re-probe ring pointers
   that named the dead node. *)
and repair ctx a ~dead =
  if remove_long a dead then begin
    ctx.counters.c_repairs <- ctx.counters.c_repairs + 1;
    if ctx.regenerate then begin
      let sink = Ftr_core.Network.sample_long_target ctx.pl a.rng ~n:ctx.line_size ~src:a.pos in
      start_lookup ctx a ~kind:Link ~target:sink
    end
  end;
  if a.left = dead then begin
    a.left <- probe_ring ctx a ~from:dead ~dir:(-1);
    ctx.counters.c_repairs <- ctx.counters.c_repairs + 1
  end;
  if a.right = dead then begin
    a.right <- probe_ring ctx a ~from:dead ~dir:1;
    ctx.counters.c_repairs <- ctx.counters.c_repairs + 1
  end

(* ------------------------------------------------------------------ *)
(* The handler                                                         *)
(* ------------------------------------------------------------------ *)

let handle ctx a (payload : payload) =
  ctx.counters.c_handled <- ctx.counters.c_handled + 1;
  match payload with
  | Lookup l -> enter ctx a l
  | Resolved { owner; kind = Link; _ } ->
      (* Claim the long link the routed lookup found, under the budget;
         dead origins never get here (see [dead_mail]). *)
      if owner <> a.pos && index_long a owner < 0 && a.n_long < ctx.links then add_long a owner
  | Resolved { kind = User | Placement _ | Solicit _; _ } -> ()
  | Splice { left; right } ->
      a.left <- pointer left;
      a.right <- pointer right;
      continue_join ctx a
  | Set_left v -> a.left <- pointer v
  | Set_right v -> a.right <- pointer v
  | Stabilize ->
      (* One neighbour, uniform over left, right, then the long links. *)
      let ring = Bool.to_int (a.left <> none) + Bool.to_int (a.right <> none) in
      if ring + a.n_long > 0 then begin
        let i = Rng.int a.rng (ring + a.n_long) in
        let v =
          if i = 0 && a.left <> none then a.left
          else if i = ring - 1 && a.right <> none then a.right
          else a.long.(i - ring)
        in
        ctx.counters.c_probes <- ctx.counters.c_probes + 1;
        if not (view_alive ctx v) then repair ctx a ~dead:v
      end
  | Leave_now ->
      if a.left <> none && view_alive ctx a.left then begin
        ctx.counters.c_replies <- ctx.counters.c_replies + 1;
        ctx.send ~src:a ~dst:a.left (Set_right (pointer_opt a.right))
      end;
      if a.right <> none && view_alive ctx a.right then begin
        ctx.counters.c_replies <- ctx.counters.c_replies + 1;
        ctx.send ~src:a ~dst:a.right (Set_left (pointer_opt a.left))
      end;
      a.alive <- false;
      ctx.depart a.pos
  | Bounce { dead; lookup = l } ->
      (* Our chosen candidate crashed with the lookup in flight: record
         the dead pick, repair, re-scan with unchanged hops. *)
      let l = log_cand l ~cur:a.pos ~cand:dead V_dead in
      repair ctx a ~dead;
      enter ctx a l

(* ------------------------------------------------------------------ *)
(* Mail for a dead actor                                               *)
(* ------------------------------------------------------------------ *)

type dead_mail =
  | Return_to_sender of payload
  | Lost of lookup * outcome
  | Dead_letter

(* The dead-carrier rule, applied by the transport to a message [src]
   sent to the actor at [dead]: a forwarded lookup bounces back to its
   sender, who repairs the link and re-scans with its original hop count
   (the +1 charged at send is undone); a driver-issued lookup ([src < 0])
   whose source died fails as [carrier_died]; a bounce that comes home to
   a dead origin fails as [origin_died]; anything else is dropped. *)
let dead_mail ~dead ~src = function
  | Lookup l when src >= 0 -> Return_to_sender (Bounce { dead; lookup = { l with hops = l.hops - 1 } })
  | Lookup l -> Lost (l, Failed { stuck_at = dead; hops = l.hops; reason = "carrier_died" })
  | Bounce { lookup; _ } ->
      Lost (lookup, Failed { stuck_at = dead; hops = lookup.hops; reason = "origin_died" })
  | Resolved _ | Splice _ | Set_left _ | Set_right _ | Stabilize | Leave_now -> Dead_letter

(* ------------------------------------------------------------------ *)
(* Flight-recorder replay                                              *)
(* ------------------------------------------------------------------ *)

let verdict_of = function
  | V_chosen -> Ftr_obs.Tracing.Chosen
  | V_not_best -> Ftr_obs.Tracing.Not_best
  | V_not_closer -> Ftr_obs.Tracing.Not_closer
  | V_dead -> Ftr_obs.Tracing.Dead_node

(* Replay a traced lookup's per-hop log into the flight recorder at
   completion. The log travelled inside the payload, so the replay does
   not depend on which domain or event ran each hop; the caller fixes the
   trace index beforehand when it wants ids pure in its request ids. *)
let replay_trace ~nodes ~strategy (l : lookup) (o : outcome) =
  let module T = Ftr_obs.Tracing in
  let tr = T.begin_route ~src:l.origin ~dst:l.target in
  if T.is_live tr then begin
    T.set_context tr ~nodes ~links:"overlay" ~strategy;
    List.iter
      (function
        | T_hop n -> T.hop tr ~node:n
        | T_cand { cur; cand; dist; verdict } -> T.candidate tr ~cur ~cand ~dist (verdict_of verdict))
      (List.rev l.tlog_rev);
    match o with
    | Delivered { hops; _ } -> T.finish tr ~delivered:true ~hops ~stuck_at:(-1) ~reason:""
    | Failed { stuck_at; hops; reason } -> T.finish tr ~delivered:false ~hops ~stuck_at ~reason
  end
