(** The Section 6 backtracking search, written once for {!Route},
    {!Multidim} and {!Byzantine}: the per-route state and the
    forward/stuck/pop step. Each router supplies its candidate scan.

    A message moves to the scan's strict choice, a neighbour strictly
    closer to the target. When there is none, the search pops the newest
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
(** Per-route working state: the links the current search has tried (a
    {!Tried.t}, cleared in O(1) per search) and the backtrack window, a
    ring grown to the largest history asked of it. Once both have grown,
    a search allocates nothing per hop. Not thread-safe. *)

val create : unit -> t

val tried : t -> Tried.t
(** The tried-link set, which a scan reads to skip slots already taken. *)

val search :
  ?moved:(int -> int -> bool -> unit) ->
  ?backtracked:(int -> int -> unit) ->
  ?eaten:(int -> bool) ->
  ?on_hop:(int -> unit) ->
  t ->
  history:int ->
  max_hops:int ->
  csr:Ftr_graph.Adjacency.Csr.t ->
  scan:([ `Strict | `Any ] -> int -> int) ->
  src:int ->
  dst:int ->
  outcome
(** Route from [src] to [dst] over [csr], keeping the newest [history]
    departed nodes. [scan mode cur] returns the row index of [cur]'s best
    untried candidate, or -1: strictly closer to [dst] in [`Strict] mode,
    any in [`Any] mode. The chosen slot is recorded as tried. Each move
    and each pop costs a hop. The search fails with {!Hop_limit} once
    [max_hops] are spent away from [dst], and with {!No_live_neighbor}
    where the scan finds nothing and the window is empty.

    Hooks, all absent by default:
    - [moved cur v strict] sees each forward move before it is made;
    - [backtracked from_node to_node] sees each pop before its hop;
    - [eaten v], asked before each forward move, says the message was
      lost at [v]: the hop is charged, the link stays tried, and the
      same node retries in the same mode;
    - [on_hop v] sees every node the message arrives at.
    @raise Invalid_argument if [history < 0]. *)
