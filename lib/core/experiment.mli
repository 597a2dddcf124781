(** Experiment drivers for every table and figure in the paper's
    evaluation. Each function returns structured rows; the CLI does the
    printing. All randomness flows from the [seed] argument, so every row
    is reproducible.

    The figure drivers and {!table1} take [?jobs] (default
    [Ftr_exec.Pool.default_jobs ()]) and run their per-network work as
    pool jobs on generators split from the root in loop order, so their
    rows are byte-identical for any [?jobs] and under [FTR_EXEC_SEQ=1]. *)

(** {1 Measurement kernel} *)

type measurement = {
  failed_fraction : float;  (** fraction of searches that failed *)
  mean_hops : float;
      (** mean delivery time of successful searches, counting every message
          hop including backtracking steps *)
  hops_ci95 : float;  (** 95% confidence half-width of [mean_hops] *)
  mean_path_hops : float;
      (** mean loop-erased route length of successful searches — the
          delivery-time scale of Figure 6(b) (identical to [mean_hops] for
          strategies that never revisit a node) *)
  messages : int;  (** number of messages routed *)
}

val measure :
  ?failures:Failure.t ->
  ?side:Route.side ->
  ?strategy:Route.strategy ->
  ?pairs:(int * int) array ->
  messages:int ->
  rng:Ftr_prng.Rng.t ->
  Network.t ->
  measurement
(** Route [messages] messages between random live pairs (or the supplied
    [pairs]) and summarise, as in Section 6. *)

val average : measurement list -> measurement
(** Average per-network measurements: the failed fraction over all of
    them, the delivery times over those that delivered anything; the
    message counts add up. *)

val random_live_pairs :
  Ftr_prng.Rng.t -> Failure.t -> n:int -> messages:int -> (int * int) array
(** Pre-draw (src, dst) pairs of live nodes, for variance reduction when
    comparing strategies on identical traffic. *)

(** {1 Figure 5 — heuristic link-length distribution} *)

type figure5_point = { length : int; derived : float; ideal : float; error : float }

type figure5_result = {
  points : figure5_point list;  (** log-spaced sample of the curve *)
  max_abs_error : float;  (** paper: ≈ 0.022 *)
  max_abs_error_length : int;  (** paper: at length 2 *)
  total_variation : float;
  networks : int;
}

val figure5 :
  ?replacement:Heuristic.replacement ->
  ?networks:int ->
  ?jobs:int ->
  n:int ->
  links:int ->
  seed:int ->
  unit ->
  figure5_result
(** Average the derived pmf over [networks] constructions (paper: 10
    networks of 2^14 nodes, 14 links) and compare with the ideal 1/d law. *)

(** {1 Figure 6 — failure strategies} *)

type figure6_row = {
  fail_fraction : float;
  terminate : measurement;
  reroute : measurement;
  backtrack : measurement;
}

val figure6 :
  ?n:int ->
  ?links:int ->
  ?networks:int ->
  ?messages:int ->
  ?fractions:float list ->
  ?jobs:int ->
  seed:int ->
  unit ->
  figure6_row list
(** Fail a fraction of nodes, route identical traffic under the three
    Section 6 strategies. Paper scale: n = 2^17, 17 links, 1000 sims of
    100 messages. *)

(** {1 Figure 7 — ideal vs constructed network} *)

type figure7_row = { death_p : float; ideal_failed : float; constructed_failed : float }

val figure7 :
  ?n:int ->
  ?links:int ->
  ?networks:int ->
  ?messages:int ->
  ?probs:float list ->
  ?jobs:int ->
  seed:int ->
  unit ->
  figure7_row list
(** Failed-search fraction of the ideal builder vs the Section 5 heuristic
    on the same failure masks (paper: 16384 nodes, 10 networks, 1000
    messages). *)

(** {1 Table 1 — bounds vs measurement} *)

type scaling_row = {
  label : string;
  parameter : float;  (** the swept quantity (n, ℓ, p, exponent, ...) *)
  measured : float;  (** mean delivery time (hops) *)
  bound : float;  (** the corresponding Table 1 formula *)
  ratio : float;  (** measured / bound *)
}

val sweep_exponent :
  ?n:int -> ?links:int -> ?exponents:float list -> ?networks:int -> ?messages:int -> seed:int ->
  unit -> scaling_row list
(** Ablation: power-law exponents other than 1 (Kleinberg's brittleness). *)

val sweep_sides :
  ?n:int -> ?links:int -> ?networks:int -> ?messages:int -> seed:int -> unit -> scaling_row list
(** Ablation: one-sided vs two-sided greedy routing. *)

type backtrack_row = { history : int; result : measurement }

val sweep_backtrack_history :
  ?n:int -> ?links:int -> ?fraction:float -> ?histories:int list -> ?networks:int ->
  ?messages:int -> seed:int -> unit -> backtrack_row list
(** Ablation: backtracking history length (the paper fixes 5). *)

val sweep_geometry :
  ?n:int -> ?links:int -> ?networks:int -> ?messages:int -> seed:int -> unit -> scaling_row list
(** Extension: line vs circle (Section 7's other one-dimensional space) at
    matched parameters. *)

type dimension_row = {
  dims : int;
  nodes : int;
  mean_hops_nd : float;  (** backtracking delivery time under failures *)
  failed_nd : float;  (** failed fraction under failures *)
}

val sweep_dimensions :
  ?configs:(int * int) list ->
  ?links:int ->
  ?death_p:float ->
  ?networks:int ->
  ?messages:int ->
  seed:int ->
  unit ->
  dimension_row list
(** Extension (Section 7 future work): the construction in 1, 2 and 3
    dimensions at matched node counts, measured under node failures with
    backtracking. [configs] lists (dims, side) pairs. *)

type stretch_row = {
  stretch_links : int;
  mean_stretch : float;  (** greedy hops / shortest-path hops, averaged *)
  max_stretch : float;
  mean_greedy : float;
  mean_optimal : float;
}

val sweep_stretch :
  ?n:int -> ?links_list:int list -> ?pairs:int -> seed:int -> unit -> stretch_row list
(** Ablation: the price of locality — greedy routing versus global
    shortest paths on the same overlays. *)

(** {1 Table 1 — the captioned battery} *)

val table1 :
  ?jobs:int ->
  ?n:int ->
  ?networks:int ->
  ?messages:int ->
  ?trials:int ->
  seed:int ->
  unit ->
  (string * scaling_row list) list
(** The whole Table 1 battery (Theorems 12–18 and the Theorem 10 lower
    bound) as captioned sections, each a pool job, at node counts
    [n/64; n/16; n/4; n] (default [n] = 2^14). Every section derives its
    own generator from [seed].
    @raise Invalid_argument if [n < 128]. *)
