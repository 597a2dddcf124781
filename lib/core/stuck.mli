(** A route's Section 6 memory and the step that uses it, written once for
    {!Route}, {!Multidim} and {!Byzantine}. Each router supplies its
    candidate scan and keeps the route's position, target and hops
    itself; {!Route} keeps them in flat per-lane arrays.

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
(** One route's memory: the backtrack window (a ring grown to the
    largest history asked of it), whether the route's node was reached
    by a pop, and the links tried so far (a {!Tried.t}, created by the
    first {!start} and cleared in O(1) per route after that). A fresh
    state shares one empty, never-written set. Once grown, a route
    allocates nothing per hop. Not thread-safe. *)

val create : unit -> t

val start : t -> history:int -> unit
(** Begin a route with an empty window of [history] entries and no
    link tried.
    @raise Invalid_argument if [history < 0]. *)

val strict : t -> bool
(** Whether the next scan must pick a strictly closer neighbour: false
    only at a node just reached by {!pop}. *)

val tried : t -> Tried.t
(** The tried-link set, which a scan reads to skip slots already taken. *)

val forward : t -> cur:int -> slot:int -> unit
(** The message leaves [cur] over CSR slot [slot]: the slot is tried,
    [cur] enters the window (dropping the oldest entry at capacity), and
    the next scan is strict. The caller moves the message and charges
    the hop. *)

val pop : t -> int
(** With no choice at the route's node: the newest window entry, taken
    out of the window, after which the next scan may pick any untried
    neighbour; or -1 when the window is empty. The caller moves the
    message there and charges the hop. *)

val outcome : cur:int -> dst:int -> hops:int -> reason -> outcome
(** A route at [cur] after [hops]: delivered when [cur = dst], else
    failed at [cur] for [reason]. *)

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
(** A route from [src] to [dst] over [csr], recording every taken link.
    [scan mode cur] returns the row index of [cur]'s best untried
    candidate, or -1: strictly closer to [dst] in [`Strict] mode, any in
    [`Any] mode. A choice costs a hop; unless [eaten v] says the message
    was lost at [v] (the link stays tried and the sender scans again in
    the same mode), the message moves there by {!forward}. With no
    choice it moves back by {!pop}, for a hop. The search fails with
    {!Hop_limit} once [max_hops] are spent away from [dst], and with
    {!No_live_neighbor} where the scan finds nothing and the window is
    empty.
    @raise Invalid_argument if [history < 0]. *)
