(** One route's state and the Section 6 step that advances it, written
    once for {!Route}, {!Multidim} and {!Byzantine}. Each router supplies
    its candidate scan; {!Route} runs many states side by side.

    A message moves to the scan's strict choice, a neighbour strictly
    closer to the target. When there is none, the state pops the newest
    node of a bounded history, travelling back to it for one hop, and
    lets that node take any untried neighbour, even a farther one, to
    route around a hole ("chooses the next best neighbor"). With
    [history = 0] it never pops: that is the terminate strategy, and as a
    strictly greedy walk never revisits a node, the links it records as
    tried never change its route. *)

type reason =
  | No_live_neighbor  (** stuck: no live neighbour closer to the target *)
  | Hop_limit  (** exceeded [max_hops] *)
  | No_live_reroute_target  (** reroute could not find a live node *)

type outcome =
  | Delivered of { hops : int }
  | Failed of { hops : int; stuck_at : int; reason : reason }

type t
(** One route's state: its current node, its target, the hops spent, the
    backtrack window (a ring grown to the largest history asked of it),
    whether the current node was reached by a pop, and the links tried
    so far (a {!Tried.t}, created for the first route that tracks them
    and cleared in O(1) per route after that). Once grown, a route
    allocates nothing per hop. Not thread-safe. *)

val create : unit -> t

val start : t -> track:bool -> history:int -> src:int -> dst:int -> unit
(** Begin a route at [src] toward [dst] with an empty window of
    [history] entries. [track] records each taken link as tried; a scan
    that never reads the set can leave it off.
    @raise Invalid_argument if [history < 0]. *)

val cur : t -> int
(** The node the message is at. *)

val dst : t -> int
(** The node it is heading for. *)

val hops : t -> int
(** Hops spent, backtracking included. *)

val strict : t -> bool
(** Whether the next scan must pick a strictly closer neighbour: false
    only at a node just reached by a pop. *)

val tried : t -> Tried.t
(** The tried-link set, which a scan reads to skip slots already taken. *)

val retarget : t -> int -> unit
(** Head for another node from where the message is, keeping the hops
    and window (a {!Route.Random_reroute} leg). *)

type move =
  | Forward  (** moved to the scan's choice *)
  | Lost  (** the choice ate the message: hop charged, link tried *)
  | Popped  (** backtracked to the newest window entry *)
  | Stuck  (** no choice and an empty window: nothing changed *)

val step :
  ?eaten:(int -> bool) ->
  t ->
  offsets:Ftr_graph.Adjacency.I32.t ->
  targets:Ftr_graph.Adjacency.I32.t ->
  int ->
  move
(** [step t ~offsets ~targets k] makes one decision at [cur t], given the
    row index [k] of the scan's choice in the CSR, or -1 for none. A
    choice costs a hop and is recorded as tried when tracking; unless
    [eaten v] says the message was lost at [v], the message moves there
    and the departed node enters the window. With no choice, a
    non-empty window pops its newest node for one hop; an empty one
    leaves the state as it was. *)

val outcome : t -> reason -> outcome
(** The route as it stands: delivered when at its target, else failed
    at [cur t] for [reason]. *)

val search :
  ?eaten:(int -> bool) ->
  t ->
  history:int ->
  max_hops:int ->
  csr:Ftr_graph.Adjacency.Csr.t ->
  scan:([ `Strict | `Any ] -> int -> int) ->
  src:int ->
  dst:int ->
  outcome
(** A tracking route from [src] to [dst] over [csr], run by {!step}
    until it ends. [scan mode cur] returns the row index of [cur]'s best
    untried candidate, or -1: strictly closer to [dst] in [`Strict] mode,
    any in [`Any] mode. The search fails with {!Hop_limit} once
    [max_hops] are spent away from [dst], and with {!No_live_neighbor}
    where the scan finds nothing and the window is empty. [eaten] is as
    for {!step}.
    @raise Invalid_argument if [history < 0]. *)
