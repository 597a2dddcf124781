(* The protocol's message catalogue: every interaction between overlay
   nodes is one of these payloads travelling between actors, whichever
   transport carries them ([Overlay] on the event engine, [Ftr_svc]'s
   round scheduler). The mapping to the paper (see docs/SERVICE.md):

   - [Lookup]/[Resolved]/[Bounce] are Section 4's greedy search with
     failure detection — the multi-hop conversation a lookup really is.
   - [Lookup] with [Placement]/[Link]/[Solicit] kinds plus [Splice]/
     [Set_left]/[Set_right] are Section 5's join: find the ring slot by
     looking up your own position, splice in, build ℓ links through
     routed lookups, solicit Poisson(ℓ) incoming links.
   - [Stabilize] is the background repair pulse ("trying to heal the
     damage"), [Leave_now] the graceful departure splice.

   The round transport delivers each payload at the next tick under the
   deterministic delivery key (sender, per-sender sequence);
   [Ftr_svc.Mailbox.post] is the only way to deliver one, which is what
   makes the merged service transcript a pure function of (seed, logical
   time, sender id, sequence number). *)

(* Why a routed lookup is in flight. [User] requests are driver traffic
   accounted by the transport; the other three are protocol-internal
   maintenance. *)
type lookup_kind =
  | User
  | Placement of { joiner : int }  (* a join finding its ring slot *)
  | Link  (* building or regenerating a 1/d long link *)
  | Solicit of { newcomer : int }  (* asking the sink's owner for an incoming link *)

type verdict = V_chosen | V_not_best | V_not_closer | V_dead

(* Per-hop decisions accumulated inside a traced lookup's payload; the
   transport replays them into [Ftr_obs.Tracing] at completion
   ([Actor.replay_trace]), so the flight recorder sees the same hop tree
   no matter which worker domain ran each hop. *)
type trace_step = T_hop of int | T_cand of { cur : int; cand : int; dist : int; verdict : verdict }

(* A lookup in flight has one owner at a time: the actor handling it,
   or the transport carrying it. Each forward increments [hops] and
   sends the same record on ([Actor.scan]); the sender gives it up on
   send and never reads it again, so the next owner is the only one to
   see the change. A record that must outlive the send is copied first
   ([Actor.dead_mail]'s bounce keeps its own). *)
type lookup = {
  request : int;  (* driver-assigned id for [User], -1 for maintenance *)
  origin : int;  (* who wants the answer *)
  target : int;  (* line point being claimed *)
  mutable hops : int;
  kind : lookup_kind;
  traced : bool;
  tlog_rev : trace_step list;  (* flight-recorder log, newest first; empty unless traced *)
}

type payload =
  | Lookup of lookup
  | Resolved of { request : int; owner : int; hops : int; kind : lookup_kind }
  | Splice of { left : int option; right : int option }  (* owner -> joiner: your ring slot *)
  | Set_left of int option
  | Set_right of int option
  | Stabilize  (* probe one random neighbour, repair if dead *)
  | Leave_now  (* splice the ring gracefully, then go *)
  | Bounce of { dead : int; lookup : lookup }
      (* the chosen candidate crashed with the lookup in flight; the
         sender repairs the link and re-scans *)

type outcome =
  | Delivered of { owner : int; hops : int }
  | Failed of { stuck_at : int; hops : int; reason : string }

(* A lookup about to take its first hop. *)
let fresh_lookup ?(traced = false) ~request ~origin ~target kind =
  { request; origin; target; hops = 0; kind; traced; tlog_rev = [] }

let string_of_kind = function
  | User -> "user"
  | Placement { joiner } -> Printf.sprintf "placement(%d)" joiner
  | Link -> "link"
  | Solicit { newcomer } -> Printf.sprintf "solicit(%d)" newcomer

(* One deterministic line per payload for the service transcript. *)
let describe = function
  | Lookup l ->
      Printf.sprintf "lookup %s req=%d tgt=%d hops=%d" (string_of_kind l.kind) l.request
        l.target l.hops
  | Resolved r ->
      Printf.sprintf "resolved %s req=%d owner=%d hops=%d" (string_of_kind r.kind) r.request
        r.owner r.hops
  | Splice { left; right } ->
      let p = function Some v -> string_of_int v | None -> "-" in
      Printf.sprintf "splice left=%s right=%s" (p left) (p right)
  | Set_left v -> Printf.sprintf "set_left %s" (match v with Some v -> string_of_int v | None -> "-")
  | Set_right v ->
      Printf.sprintf "set_right %s" (match v with Some v -> string_of_int v | None -> "-")
  | Stabilize -> "stabilize"
  | Leave_now -> "leave_now"
  | Bounce { dead; lookup } -> Printf.sprintf "bounce dead=%d req=%d" dead lookup.request

let describe_outcome = function
  | Delivered { owner; hops } -> Printf.sprintf "ok owner=%d hops=%d" owner hops
  | Failed { stuck_at; hops; reason } ->
      Printf.sprintf "fail %s at=%d hops=%d" reason stuck_at hops
