(** Byzantine blackholes (Section 7's security direction, made concrete).

    A Byzantine node accepts messages and silently drops them. Senders
    cannot tell Byzantine neighbours from honest ones before forwarding;
    the defences differ in what happens after the silence:

    - {!Naive}: nothing — the first blackhole on the greedy path kills the
      search;
    - {!Retry}: the sender times out, blacklists the suspect for this
      search, and forwards to its next-best neighbour (one wasted message
      per encounter);
    - {!Retry_backtrack}: {!Retry} plus Section 6 backtracking when a
      node's closer candidates are exhausted.

    All three are {!Stuck.search}, the backtracking search {!Route} runs,
    over a scan blind to who is Byzantine, with a blackhole as its
    lost-message hook; a naive sender's scan offers nothing once a
    message is lost. *)

type outcome = {
  outcome : Route.outcome;
      (** [hops] counts every message sent, wasted ones included. A
          {!Naive} search fails at the sender whose message a blackhole
          ate. *)
  wasted : int;  (** messages eaten by blackholes *)
}

type defense =
  | Naive
  | Retry
  | Retry_backtrack of { history : int }

val route_misroute :
  ?max_hops:int -> Network.t -> byzantine:(int -> bool) -> src:int -> dst:int -> outcome
(** The misrouting adversary: a Byzantine node silently forwards the
    message to its neighbour farthest from the target instead of dropping
    it. [wasted] counts sabotage hops. Honest greedy steps pull the message
    back; delivery succeeds iff progress outruns sabotage within the hop
    budget (default 1000).
    @raise Invalid_argument on out-of-range or Byzantine endpoints. *)

val route :
  ?defense:defense ->
  ?max_hops:int ->
  Network.t ->
  byzantine:(int -> bool) ->
  src:int ->
  dst:int ->
  outcome
(** Route under the blackhole adversary.
    @raise Invalid_argument if an endpoint is out of range or Byzantine,
    or a {!Retry_backtrack} history is below 1. *)

type sweep_row = {
  byzantine_fraction : float;
  naive_failed : float;
  retry_failed : float;
  backtrack_failed : float;
  retry_wasted : float;
}

val sweep :
  ?n:int ->
  ?links:int ->
  ?fractions:float list ->
  ?networks:int ->
  ?messages:int ->
  seed:int ->
  unit ->
  sweep_row list
(** Failed-search fractions of the three defences as the Byzantine
    population grows, on fresh ideal networks. *)
