(** The Section 5 heuristic: decentralised construction and maintenance of
    the 1/d random graph as nodes arrive one at a time.

    Each arriving node [v]:
    + samples ℓ sink points from the inverse power-law length law and links
      to the owner of each sink's {e basin of attraction} (the nearest
      already-present point);
    + estimates the number of incoming links it should have with a
      Poisson(ℓ) draw and solicits that many earlier nodes (again chosen by
      the 1/d law through their basins) to redirect a link to it; a node at
      distance [d_{k+1}] accepts with probability
      [p_{k+1} / (p_1 + ... + p_{k+1})] where [p_i = 1/d_i], and picks the
      victim link with probability [p_i / (p_1 + ... + p_k)]
      ({!Proportional}) or by age ({!Oldest}, the paper's alternative).

    The result is a {!Network.t} over the full line whose long-link length
    distribution tracks the ideal [1/d] law (Figure 5). *)

type replacement =
  | Proportional  (** victim chosen with probability proportional to 1/d *)
  | Oldest  (** victim is the longest-lived link *)

type arrival =
  | Random_order  (** nodes arrive in a uniformly random order *)
  | Sequential  (** nodes arrive in position order (worst case for basins) *)

val redirect_victim :
  replacement -> Ftr_prng.Rng.t -> ?births:int array -> pos:int -> newcomer:int -> int array ->
  int -> int
(** [redirect_victim replacement rng ?births ~pos ~newcomer slots count]
    is the redirect rule above, for the node at [pos] whose long links are
    [slots.(0 .. count-1)] (negative entries are empty slots): the slot to
    hand to [newcomer], or [-1] when the node declines. It draws nothing
    when [newcomer = pos] or no slot is live, else one float to accept and,
    under {!Proportional}, one more to pick the victim. {!Oldest} evicts
    the live slot with the smallest [births] tick.
    @raise Invalid_argument under {!Oldest} without [births]. *)

val build :
  ?exponent:float ->
  ?replacement:replacement ->
  ?arrival:arrival ->
  n:int ->
  links:int ->
  Ftr_prng.Rng.t ->
  Network.t
(** Run the full arrival process and return the constructed network.
    Defaults: exponent 1, proportional replacement, random arrival order.
    @raise Invalid_argument if [n < 2] or [links < 1]. *)

val length_distribution : Network.t -> float array
(** Empirical pmf of long-link lengths; index [d] holds the fraction of
    long links with length exactly [d] (index 0 unused). *)

val ideal_distribution : ?exponent:float -> n:int -> unit -> float array
(** The ideal normalised inverse power-law pmf over lengths [1..n-1],
    laid out like {!length_distribution} for direct comparison. *)

val repair : ?exponent:float -> alive:(int -> bool) -> Network.t -> Ftr_prng.Rng.t -> Network.t
(** Regenerate a (line) network after a failure wave: survivors keep their
    links to each other, re-draw every link that pointed at a dead node
    from the 1/d law conditioned on survivors, and re-ring to their nearest
    live neighbours — Section 5's repair, which restores a Theorem 17
    random graph over the survivors.
    @raise Invalid_argument with fewer than two survivors. *)
