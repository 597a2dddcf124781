(* The event-engine transport for [Actor]'s protocol: one actor per node,
   every message an [Engine] event delayed by the latency model. The
   protocol itself — lookups, join splicing, link claims, repair,
   redirects, graceful leaves, stabilization — lives in [Actor.handle];
   this module only keeps the registry and the liveness view, delivers
   messages, applies the shared dead-carrier rule to mail for dead nodes,
   and turns completions into user callbacks and [stats]. *)

module Engine = Ftr_sim.Engine
module Rng = Ftr_prng.Rng
module Sample = Ftr_prng.Sample
open Message

type stats = {
  mutable lookups_issued : int;
  mutable lookups_ok : int;
  mutable lookups_failed : int;
  mutable hops_on_success : int;
  mutable maintenance_issued : int;
  mutable maintenance_failed : int;
  mutable messages : int;
  mutable probes : int; (* failure-detection probes and repair traffic *)
  mutable repairs : int;
  mutable joins : int;
  mutable crashes : int;
  mutable leaves : int;
}

type t = {
  engine : Engine.t;
  rng : Rng.t; (* shared by the latency draws and every actor *)
  latency : Ftr_sim.Latency.t;
  actors : (int, Actor.t) Hashtbl.t; (* every node ever placed, dead ones included *)
  callbacks : (int, owner:int -> hops:int -> unit) Hashtbl.t; (* open user lookups *)
  stats : stats;
  ctx : Actor.ctx;
  mutable next_request : int;
}

let stats t = t.stats

let engine t = t.engine

let line_size t = t.ctx.Actor.line_size

let links t = t.ctx.Actor.links

let ttl t = t.ctx.Actor.ttl

let known t pos = Hashtbl.mem t.actors pos

let is_alive t pos = Actor.view_alive t.ctx pos

let live_actor t pos = if is_alive t pos then Hashtbl.find_opt t.actors pos else None

let node_count t =
  Hashtbl.fold (fun _ (a : Actor.t) acc -> if a.alive then acc + 1 else acc) t.actors 0

let live_positions t =
  let acc = ref [] in
  Hashtbl.iter (fun pos (a : Actor.t) -> if a.alive then acc := pos :: !acc) t.actors;
  List.sort Int.compare !acc

(* Sanitizer hook: per-node structural invariants, re-checked after every
   handled message when FTR_CHECK is on. The ring pointers must frame the
   node, and the long links must respect the budget ℓ and never name
   the node itself. *)
let debug_check t (a : Actor.t) =
  if a.left <> Actor.none && a.left >= a.pos then
    Ftr_debug.Debug.failf "Overlay: node %d has left pointer %d on its right" a.pos a.left;
  if a.right <> Actor.none && a.right <= a.pos then
    Ftr_debug.Debug.failf "Overlay: node %d has right pointer %d on its left" a.pos a.right;
  if a.n_long > links t then
    Ftr_debug.Debug.failf "Overlay: node %d holds %d long links, budget is %d" a.pos a.n_long
      (links t);
  if Actor.index_long a a.pos >= 0 then
    Ftr_debug.Debug.failf "Overlay: node %d holds a long link to itself" a.pos

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)
(* ------------------------------------------------------------------ *)

(* Fold the handler's counters into the live [stats] record (callers
   hold it across events) and reset them for the next message. *)
let settle t (a : Actor.t) =
  let c = t.ctx.Actor.counters and s = t.stats in
  s.messages <- s.messages + c.c_messages + c.c_replies;
  s.probes <- s.probes + c.c_probes;
  s.repairs <- s.repairs + c.c_repairs;
  s.maintenance_issued <- s.maintenance_issued + c.c_maint_issued;
  if Ftr_obs.Flag.enabled () then begin
    if c.c_repairs > 0 then Ftr_obs.Metrics.incr_by "overlay_repairs_total" c.c_repairs;
    if c.c_redirects > 0 then Ftr_obs.Metrics.incr_by "overlay_link_redirects_total" c.c_redirects
  end;
  Actor.clear_counters c;
  if Ftr_debug.Debug.enabled () then debug_check t a

let dispatch t a payload =
  Actor.handle t.ctx a payload;
  settle t a

let complete t (l : lookup) (o : outcome) =
  let s = t.stats in
  match l.kind with
  | User -> (
      (match o with
      | Delivered { hops; _ } ->
          s.lookups_ok <- s.lookups_ok + 1;
          s.hops_on_success <- s.hops_on_success + hops
      | Failed _ -> s.lookups_failed <- s.lookups_failed + 1);
      if l.traced then Actor.replay_trace ~nodes:"overlay" ~strategy:"overlay_lookup" l o;
      match Hashtbl.find_opt t.callbacks l.request with
      | Some f -> (
          Hashtbl.remove t.callbacks l.request;
          match o with Delivered { owner; hops } -> f ~owner ~hops | Failed _ -> ())
      | None -> ())
  | Placement _ | Link | Solicit _ -> (
      match o with
      | Failed _ -> s.maintenance_failed <- s.maintenance_failed + 1
      | Delivered _ -> ())

(* One message in flight from [src] to the actor [dst], bound to that
   actor rather than its position: a node that re-joins a position never
   receives its predecessor's mail. On arrival a live actor handles it;
   mail for a dead one follows the shared dead-carrier rule. *)
let rec post t ~(src : Actor.t) (dst : Actor.t) payload =
  let delay = Ftr_sim.Latency.sample t.latency t.rng in
  ignore
    (Engine.schedule_after t.engine ~delay (fun () ->
         if dst.alive then dispatch t dst payload
         else
           match Actor.dead_mail ~dead:dst.pos ~src:src.pos payload with
           | Actor.Return_to_sender p -> post t ~src:dst src p
           | Actor.Lost (l, o) -> complete t l o
           | Actor.Dead_letter -> ()))

let depart t pos =
  Bytes.set t.ctx.Actor.alive_view pos '\000';
  t.stats.leaves <- t.stats.leaves + 1;
  if Ftr_obs.Flag.enabled () then begin
    Ftr_obs.Metrics.incr "overlay_leaves_total";
    Ftr_obs.Events.emit ~time:(Engine.now t.engine) ~kind:"overlay.leave"
      [ ("pos", Ftr_obs.Json.Int pos) ]
  end

let create ?(latency_model = Ftr_sim.Latency.constant 1.0) ?(ttl = 256) ?(regenerate = true)
    ~line_size ~links ~rng engine =
  if line_size < 2 then invalid_arg "Overlay.create: line_size must be >= 2";
  if line_size > Actor.max_line_size then
    invalid_arg "Overlay.create: line_size must be at most Actor.max_line_size";
  if links < 1 then invalid_arg "Overlay.create: links must be >= 1";
  let rec t =
    {
      engine;
      rng;
      latency = latency_model;
      actors = Hashtbl.create 1024;
      callbacks = Hashtbl.create 64;
      stats =
        {
          lookups_issued = 0;
          lookups_ok = 0;
          lookups_failed = 0;
          hops_on_success = 0;
          maintenance_issued = 0;
          maintenance_failed = 0;
          messages = 0;
          probes = 0;
          repairs = 0;
          joins = 0;
          crashes = 0;
          leaves = 0;
        };
      ctx =
        {
          Actor.line_size;
          links;
          ttl;
          regenerate;
          alive_view = Bytes.make line_size '\000';
          pl = Sample.power_law ~exponent:1.0 ~max_length:(line_size - 1);
          counters = Actor.fresh_counters ();
          send =
            (fun ~src ~dst payload ->
              match payload with
              | Resolved { kind = User; _ } ->
                  (* User lookups complete at the owner ([complete]) and
                     the origin's handler ignores this reply, so it is
                     counted but never scheduled: one engine event less
                     per remote lookup. *)
                  ()
              | Resolved { kind = Placement _ | Link | Solicit _; _ }
              | Lookup _ | Splice _ | Set_left _ | Set_right _ | Stabilize | Leave_now | Bounce _ ->
                  post t ~src (Hashtbl.find t.actors dst) payload);
          complete = (fun l o -> complete t l o);
          depart = (fun pos -> depart t pos);
        };
      next_request = 0;
    }
  in
  t

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)
(* ------------------------------------------------------------------ *)

let register t ~pos =
  let a = Actor.create ~pos ~links:(links t) ~rng:t.rng () in
  Hashtbl.replace t.actors pos a;
  Bytes.set t.ctx.Actor.alive_view pos '\001';
  t.stats.joins <- t.stats.joins + 1;
  if Ftr_obs.Flag.enabled () then Ftr_obs.Metrics.incr "overlay_joins_total";
  a

let bootstrap_node t ~pos =
  if Hashtbl.mem t.actors pos then invalid_arg "Overlay.bootstrap_node: position occupied";
  (register t ~pos).pos

(* Section 5's join starts with the placement lookup for the joiner's own
   point, handed to [via] now; the owner splices the joiner in and the
   link building follows by messages. *)
let join t ~pos ~via =
  if pos < 0 || pos >= line_size t then invalid_arg "Overlay.join: position off the line";
  if is_alive t pos then invalid_arg "Overlay.join: position occupied";
  let bootstrap =
    match live_actor t via with
    | Some a -> a
    | None -> invalid_arg "Overlay.join: bootstrap node is dead"
  in
  ignore (register t ~pos);
  if Ftr_obs.Flag.enabled () then
    Ftr_obs.Events.emit ~time:(Engine.now t.engine) ~kind:"overlay.join"
      [ ("pos", Ftr_obs.Json.Int pos); ("via", Ftr_obs.Json.Int via) ];
  t.stats.maintenance_issued <- t.stats.maintenance_issued + 1;
  dispatch t bootstrap
    (Lookup (fresh_lookup ~request:(-1) ~origin:pos ~target:pos (Placement { joiner = pos })))

let crash t ~pos =
  match live_actor t pos with
  | None -> ()
  | Some a ->
      a.alive <- false;
      Bytes.set t.ctx.Actor.alive_view pos '\000';
      t.stats.crashes <- t.stats.crashes + 1;
      if Ftr_obs.Flag.enabled () then begin
        Ftr_obs.Metrics.incr "overlay_crashes_total";
        Ftr_obs.Events.emit ~time:(Engine.now t.engine) ~kind:"overlay.crash"
          [ ("pos", Ftr_obs.Json.Int pos) ]
      end

let leave t ~pos = match live_actor t pos with Some a -> dispatch t a Leave_now | None -> ()

let lookup t ~from ~target ?callback () =
  let origin =
    match live_actor t from with
    | Some a -> a
    | None -> invalid_arg "Overlay.lookup: source is not a live node"
  in
  if target < 0 || target >= line_size t then invalid_arg "Overlay.lookup: target off the line";
  let request = t.next_request in
  t.next_request <- request + 1;
  Option.iter (Hashtbl.replace t.callbacks request) callback;
  t.stats.lookups_issued <- t.stats.lookups_issued + 1;
  dispatch t origin
    (Lookup (fresh_lookup ~traced:(Ftr_obs.Tracing.recording ()) ~request ~origin:from ~target User))

(* Instantiate a whole network at time zero without paying the join
   message cost, for tests and as a churn starting point. The boot
   sampler's occupancy map knows only these positions, so the overlay
   must be empty. *)
let populate t ~positions =
  let n = line_size t in
  if positions = [] then invalid_arg "Overlay.populate: need at least one position";
  if Hashtbl.length t.actors > 0 then
    invalid_arg "Overlay.populate: the overlay already holds nodes";
  if List.exists (fun pos -> pos < 0 || pos >= n) positions then
    invalid_arg "Overlay.populate: off the line";
  let sorted = List.sort_uniq Int.compare positions in
  let actors = Array.of_list (List.map (fun pos -> register t ~pos) sorted) in
  Actor.boot_links ~line_size:n ~links:(links t) t.ctx.Actor.pl t.rng actors;
  if Ftr_debug.Debug.enabled () then Array.iter (debug_check t) actors

(* ------------------------------------------------------------------ *)
(* Introspection for the invariant sanitizer                           *)
(* ------------------------------------------------------------------ *)

type node_view = {
  view_pos : int;
  view_alive : bool;
  view_left : int option;
  view_right : int option;
  view_long : int array;
}

let iter_nodes t f =
  Hashtbl.iter
    (fun _ (a : Actor.t) ->
      f
        {
          view_pos = a.pos;
          view_alive = a.alive;
          view_left = Actor.pointer_opt a.left;
          view_right = Actor.pointer_opt a.right;
          view_long = Actor.long_links a;
        })
    t.actors

(* ------------------------------------------------------------------ *)
(* Proactive stabilization                                             *)
(* ------------------------------------------------------------------ *)

(* Periodic self-healing, independent of lookup traffic: every [period],
   [checks_per_tick] random live nodes each handle a [Stabilize] pulse —
   probe one random neighbour, repair it if dead (the paper's repair
   mechanism "trying to heal the damage" in the background, with cost
   amortised over time rather than over searches). *)
let enable_stabilization ?(period = 10.0) ?(checks_per_tick = 8) ~until t =
  if period <= 0.0 then invalid_arg "Overlay.enable_stabilization: period must be positive";
  if checks_per_tick < 1 then
    invalid_arg "Overlay.enable_stabilization: checks_per_tick must be >= 1";
  let random_live () =
    (* Reservoir sample over the registry. *)
    let chosen = ref None and seen = ref 0 in
    Hashtbl.iter
      (fun _ (a : Actor.t) ->
        if a.alive then begin
          incr seen;
          if Rng.int t.rng !seen = 0 then chosen := Some a
        end)
      t.actors;
    !chosen
  in
  let rec tick () =
    if Engine.now t.engine < until then begin
      for _ = 1 to checks_per_tick do
        Option.iter (fun a -> dispatch t a Stabilize) (random_live ())
      done;
      ignore (Engine.schedule_after t.engine ~delay:period (fun () -> tick ()))
    end
  in
  ignore (Engine.schedule_after t.engine ~delay:period (fun () -> tick ()))
