(** Greedy routing over a {!Network.t} (Sections 4 and 6).

    A message at node [cur] bound for node [dst] is forwarded to the live
    neighbour closest to [dst]; one-sided routing additionally refuses to
    jump past the target (Section 4.2.1). When no live neighbour is
    strictly closer, one of the three Section 6 strategies applies:

    - {!Terminate}: give up (strategy 1);
    - {!Random_reroute}: deliver the message to a uniformly random live
      node and retry from there, Valiant-style (strategy 2);
    - {!Backtrack}: walk back through the last [history] visited nodes and
      try their next-best untried neighbours (strategy 3; the paper uses
      [history = 5]). Forward motion stays strictly greedy, but a
      backtracked node that has exhausted its closer options may continue
      through a farther neighbour to route around a hole — the reading of
      "chooses the next best neighbor" that reproduces Figure 6's failure
      fractions (requiring monotone live paths caps success far below the
      paper's curve at high failure rates).

    A node never forwards to a dead neighbour — liveness is checked before
    the hop — and, per the paper, never retries a different link of the
    same node once its best choice is exhausted except through the explicit
    backtracking strategy. *)

type side = One_sided | Two_sided

type strategy =
  | Terminate
  | Random_reroute of { attempts : int }
  | Backtrack of { history : int }

(** The result of a route, shared with {!Multidim} and {!Byzantine}: the
    types live in {!Stuck}, which runs the {!Backtrack} search. *)

type reason = Stuck.reason = No_live_neighbor | Hop_limit | No_live_reroute_target

type outcome = Stuck.outcome =
  | Delivered of { hops : int }
  | Failed of { hops : int; stuck_at : int; reason : reason }

val delivered : outcome -> bool
(** Whether the message reached its destination. *)

val reason_label : reason -> string
(** Stable snake_case name of a stuck reason, as used by the telemetry
    labels (e.g. route_stuck_total{reason="no_live_neighbor"}) and the
    [--json] CLI outputs. *)

val hops : outcome -> int
(** Hops consumed, delivered or not (backtracking steps count). *)

type scratch = Stuck.t
(** One route's Section 6 memory, reusable across routes: the
    {!Stuck.t} that holds a {!Backtrack} route's window and the links it
    has tried (the route's node, target and hops live in the driver's
    lanes). {!Terminate} and {!Random_reroute} routes never touch it.
    Its size follows the longest route it has served, not the network: a
    few hundred words once a {!Backtrack} route has used it, whatever
    the edge count. With a caller-held scratch, routing performs zero
    minor-heap allocations per hop once the set has grown; one scratch
    serves networks of any size. Not thread-safe: one scratch per
    domain. *)

val scratch : Network.t -> scratch
(** Fresh scratch for routing on [net] (or on any other network). *)

val route :
  ?failures:Failure.t ->
  ?side:side ->
  ?strategy:strategy ->
  ?max_hops:int ->
  ?rng:Ftr_prng.Rng.t ->
  ?scratch:scratch ->
  ?on_hop:(int -> unit) ->
  Network.t ->
  src:int ->
  dst:int ->
  outcome
(** Route a message between node indices. Defaults: no failures, two-sided,
    terminate-on-stuck, one million hop budget. [rng] is required only by
    {!Random_reroute}; [on_hop] observes every node the message visits.
    [scratch] lets callers routing many messages reuse the working state
    (outcomes are identical with or without it). This is
    {!route_lockstep}'s driver with one lane, plus the hooks: with
    [Ftr_obs.Flag.enabled ()] the route feeds the metrics, one route.done
    event and a flight-recorder trace.
    @raise Invalid_argument if an endpoint is out of range or dead, if a
    {!Backtrack} history is below 1, or if {!Random_reroute} allows a
    negative number of attempts. *)

val route_lockstep :
  ?failures:Failure.t ->
  ?side:side ->
  ?strategy:strategy ->
  ?max_hops:int ->
  ?rng:(int -> Ftr_prng.Rng.t) ->
  ?scratch:scratch array ->
  Network.t ->
  pairs:(int * int) array ->
  lo:int ->
  len:int ->
  out:outcome array ->
  unit
(** [route_lockstep net ~pairs ~lo ~len ~out] routes [pairs.(i)] for [i]
    in [lo .. lo + len - 1] and writes its outcome to [out.(i)], exactly
    the one {!route} returns for the pair with the same options and the
    generator [rng i]. It is {!route}'s driver with several lanes, their
    number a constant per strategy: 16 for {!Terminate} and
    {!Random_reroute}, 1 for {!Backtrack}. Each lane holds one route and
    advances it one decision per step, so that the CSR cache misses of
    independent routes overlap instead of queueing behind each other
    (docs/MEMORY_LAYOUT.md, "Batch routing"). A lane's node, target,
    hops and pair index are cells of four flat [int] arrays, one cell
    per lane; [scratch] supplies its {!Stuck.t} (16 always suffice);
    without it each call creates its own.
    While [Ftr_obs.Flag.enabled ()] holds in the calling domain, one lane
    routes the pairs in order, so metrics, events and flight-recorder
    traces are recorded per route exactly as {!route} records them.
    @raise Invalid_argument with {!route}'s message if any pair has an
    endpoint out of range or dead, or the strategy a bad parameter (every
    pair is checked before any is routed), or if [scratch] holds fewer
    states than lanes. *)

val loop_erased_length : int list -> int
(** Hop count of a visit sequence after erasing every excursion (a revisit
    truncates back to the first visit). Total hops charge the full
    exploration cost of backtracking; the loop-erased length is the final
    route's length — the scale on which Figure 6(b) plots delivery time. *)

val route_path :
  ?failures:Failure.t ->
  ?side:side ->
  ?strategy:strategy ->
  ?max_hops:int ->
  ?rng:Ftr_prng.Rng.t ->
  ?scratch:scratch ->
  Network.t ->
  src:int ->
  dst:int ->
  outcome * int list
(** As {!route}, also returning the full sequence of visited nodes
    (starting with [src]). *)
