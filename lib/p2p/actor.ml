(* One overlay node as an actor: the single implementation of the paper's
   Section 5 protocol. Two transports carry its messages — [Overlay]
   delivers them as [Ftr_sim.Engine] events with a latency model,
   [Ftr_svc.Service] through deterministic mailboxes on a round scheduler
   — and both call the same handler, the same dead-carrier rule
   ([dead_mail]) and the same trace replay ([replay_trace]).

   Determinism discipline — what a handler may touch:
   - its own actor state (links, ring pointers, RNG),
   - the liveness view (read-only while a handler runs),
   - the transport's accumulators behind the [ctx] callbacks (outbox,
     counters, completions, departures).
   Nothing else: no other actor's state, no global registries, no wall
   clock. That confinement is what makes the service's merged transcript
   a pure function of (seed, logical time, sender, sequence). *)

module Rng = Ftr_prng.Rng
module Sample = Ftr_prng.Sample
open Message

type t = {
  pos : int;
  mutable alive : bool;
  mutable left : int option;
  mutable right : int option;
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

let view_alive ctx pos = pos >= 0 && pos < ctx.line_size && Bytes.get ctx.alive_view pos = '\001'

let create ~pos ~links ~rng () =
  { pos; alive = true; left = None; right = None; long = Array.make links (-1); n_long = 0; rng }

(* ------------------------------------------------------------------ *)
(* The pure routing rules                                              *)
(* ------------------------------------------------------------------ *)

(* Section 4's greedy rule with the tie walk: a strictly closer neighbour
   advances the lookup; an equidistant neighbour at a smaller position
   also does, so a point midway between two nodes resolves to the same
   owner from either direction. *)
let advances ~pos ~target ~cand =
  let my_dist = abs (pos - target) and d = abs (cand - target) in
  d < my_dist || (d = my_dist && cand < pos)

(* Fold one candidate into a running pick ([-1] for none so far): keep
   the advancing candidate with minimal (distance, position). *)
let better ~pos ~target best cand =
  if not (advances ~pos ~target ~cand) then best
  else if best < 0 then cand
  else
    let d = abs (cand - target) and bd = abs (best - target) in
    if d < bd || (d = bd && cand < best) then cand else best

(* One min-scan over the neighbour set — [left], [right], then
   [long.(0 .. n_long-1)], read in place: the advancing candidate with
   minimal (distance, position), or [-1] when this node owns the target's
   basin. Liveness is deliberately not consulted: the caller probes the
   single chosen candidate and, on a dead pick, repairs the link set and
   re-scans — the paper's failure detection by probing. *)
let best_candidate ~pos ~target ~left ~right ~long ~n_long =
  let best = match left with Some v -> better ~pos ~target (-1) v | None -> -1 in
  let best = ref (match right with Some v -> better ~pos ~target best v | None -> best) in
  for i = 0 to n_long - 1 do
    best := better ~pos ~target !best long.(i)
  done;
  !best

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
   until a live node other than this actor answers or the line ends. *)
let probe_ring ctx a ~from ~dir =
  let rec walk pos =
    if pos < 0 || pos >= ctx.line_size then None
    else begin
      ctx.counters.c_probes <- ctx.counters.c_probes + 1;
      if view_alive ctx pos && pos <> a.pos then Some pos else walk (pos + dir)
    end
  in
  walk (from + dir)

(* ------------------------------------------------------------------ *)
(* Lookup processing                                                   *)
(* ------------------------------------------------------------------ *)

let tlog l step = if l.traced then { l with tlog_rev = step :: l.tlog_rev } else l

(* The traced half of a scan: every neighbour but the pick, in the scan's
   order, with why it lost, then the pick itself. *)
let log_candidates a l ~best =
  let log l v =
    if v = best then l
    else
      tlog l
        (T_cand
           {
             cur = a.pos;
             cand = v;
             dist = abs (v - l.target);
             verdict =
               (if advances ~pos:a.pos ~target:l.target ~cand:v then V_not_best else V_not_closer);
           })
  in
  let log_opt l = function Some v -> log l v | None -> l in
  let l = ref (log_opt (log_opt l a.left) a.right) in
  for i = 0 to a.n_long - 1 do
    l := log !l a.long.(i)
  done;
  let l = !l in
  if best < 0 then l
  else tlog l (T_cand { cur = a.pos; cand = best; dist = abs (best - l.target); verdict = V_chosen })

(* A fresh maintenance lookup starts inline at its issuing actor. *)
let rec start_lookup ctx a ~kind ~target =
  ctx.counters.c_maint_issued <- ctx.counters.c_maint_issued + 1;
  enter ctx a (fresh_lookup ~request:(-1) ~origin:a.pos ~target kind)

(* Arrival at a decision point: record the hop, check the TTL, scan.
   Re-entries after a repair come back here with unchanged hops. *)
and enter ctx a l =
  let l = tlog l (T_hop a.pos) in
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
    ctx.send ~src:a ~dst:best (Lookup { l with hops = l.hops + 1 })
  end
  else begin
    (* The probe discovers the pick is already dead: zero-latency
       repair, then re-enter with unchanged hops. *)
    ctx.counters.c_probes <- ctx.counters.c_probes + 1;
    let l =
      tlog l (T_cand { cur = a.pos; cand = best; dist = abs (best - l.target); verdict = V_dead })
    in
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
    (match a.left with
    | Some l ->
        ctx.counters.c_replies <- ctx.counters.c_replies + 1;
        ctx.send ~src:a ~dst:l (Set_right (Some a.pos))
    | None -> ());
    (match a.right with
    | Some r ->
        ctx.counters.c_replies <- ctx.counters.c_replies + 1;
        ctx.send ~src:a ~dst:r (Set_left (Some a.pos))
    | None -> ());
    continue_join ctx a
  end
  else if a.pos < joiner then begin
    (* The stale-pointer case: our right pointer may still name a dead
       previous occupant of the joiner's own position; re-probe past it
       rather than handing the joiner a self-loop. *)
    let succ =
      match a.right with
      | Some r when r = joiner -> probe_ring ctx a ~from:joiner ~dir:1
      | r -> r
    in
    a.right <- Some joiner;
    ctx.counters.c_replies <- ctx.counters.c_replies + 1;
    ctx.send ~src:a ~dst:joiner (Splice { left = Some a.pos; right = succ });
    match succ with
    | Some s ->
        ctx.counters.c_replies <- ctx.counters.c_replies + 1;
        ctx.send ~src:a ~dst:s (Set_left (Some joiner))
    | None -> ()
  end
  else begin
    let pred =
      match a.left with
      | Some lp when lp = joiner -> probe_ring ctx a ~from:joiner ~dir:(-1)
      | lp -> lp
    in
    a.left <- Some joiner;
    ctx.counters.c_replies <- ctx.counters.c_replies + 1;
    ctx.send ~src:a ~dst:joiner (Splice { left = pred; right = Some a.pos });
    match pred with
    | Some p ->
        ctx.counters.c_replies <- ctx.counters.c_replies + 1;
        ctx.send ~src:a ~dst:p (Set_right (Some joiner))
    | None -> ()
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
  let points_at o = match o with Some p -> p = dead | None -> false in
  if points_at a.left then begin
    a.left <- probe_ring ctx a ~from:dead ~dir:(-1);
    ctx.counters.c_repairs <- ctx.counters.c_repairs + 1
  end;
  if points_at a.right then begin
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
      a.left <- left;
      a.right <- right;
      continue_join ctx a
  | Set_left v -> a.left <- v
  | Set_right v -> a.right <- v
  | Stabilize ->
      (* One neighbour, uniform over left, right, then the long links. *)
      let ring = Bool.to_int (Option.is_some a.left) + Bool.to_int (Option.is_some a.right) in
      if ring + a.n_long > 0 then begin
        let v =
          match (a.left, a.right, Rng.int a.rng (ring + a.n_long)) with
          | Some l, _, 0 -> l
          | Some _, Some r, 1 | None, Some r, 0 -> r
          | _, _, i -> a.long.(i - ring)
        in
        ctx.counters.c_probes <- ctx.counters.c_probes + 1;
        if not (view_alive ctx v) then repair ctx a ~dead:v
      end
  | Leave_now ->
      (match a.left with
      | Some l when view_alive ctx l ->
          ctx.counters.c_replies <- ctx.counters.c_replies + 1;
          ctx.send ~src:a ~dst:l (Set_right a.right)
      | Some _ | None -> ());
      (match a.right with
      | Some r when view_alive ctx r ->
          ctx.counters.c_replies <- ctx.counters.c_replies + 1;
          ctx.send ~src:a ~dst:r (Set_left a.left)
      | Some _ | None -> ());
      a.alive <- false;
      ctx.depart a.pos
  | Bounce { dead; lookup = l } ->
      (* Our chosen candidate crashed with the lookup in flight: record
         the dead pick, repair, re-scan with unchanged hops. *)
      let l = tlog l (T_cand { cur = a.pos; cand = dead; dist = abs (dead - l.target); verdict = V_dead }) in
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
