(** Executable form of the Section 4.2 lower-bound machinery.

    The paper analyses one-sided greedy routing through an {e aggregate
    chain}: instead of a single message position, track an interval
    [{1..k}] of possible positions; a fresh offset set ∆ splits it into
    subranges that jump together, and the successor subrange is chosen with
    probability proportional to its size (equation 14). Lemma 4 states the
    aggregate chain and the single-point chain induce the same position
    distribution — a property the test suite checks empirically — and
    Lemma 6 bounds the probability of large drops in [ln |S|], which the
    benchmarks verify against simulation. *)

type dist
(** A ∆ distribution: ±1 always present, each ±d included independently
    with probability [p d], offsets bounded by [max_offset]. *)

val make : max_offset:int -> p:(int -> float) -> dist
(** Arbitrary inclusion probabilities. [p 1] is treated as 1.
    @raise Invalid_argument if [max_offset < 1]. *)

val harmonic : links:int -> max_offset:int -> dist
(** Inclusion probability proportional to 1/d, scaled to about [links]
    long offsets per side — the distribution the upper bounds use. *)

val uniform : links:int -> max_offset:int -> dist
(** Constant inclusion probability with the same expected size, a
    deliberately bad distribution for contrast. *)

val mean_size : dist -> float
(** E[|∆|] counting both signs (the paper's ℓ). *)

val sample_positive : dist -> Ftr_prng.Rng.t -> int array
(** One draw of the positive offsets, sorted ascending, always containing
    1. *)

val simulate_single_point : dist -> Ftr_prng.Rng.t -> start:int -> int
(** Steps for one-sided greedy routing from [start] to 0 with fresh ∆ draws
    at every node. *)

val simulate_aggregate : dist -> Ftr_prng.Rng.t -> start:int -> int
(** Steps to absorption of the aggregate chain started at [{1..start}]. *)

val lemma6_drop_probability :
  dist -> Ftr_prng.Rng.t -> k:int -> a:float -> trials:int -> float
(** Empirical estimate of [Pr[|S^{t+1}| <= |S^t|/a]] from state [{1..k}];
    Lemma 6 proves it is at most [3ℓ/a]. *)

val mean_single_point :
  dist -> Ftr_prng.Rng.t -> start:int -> trials:int -> Ftr_stats.Summary.t
(** Summary of {!simulate_single_point} over repeated trials. *)

val mean_aggregate :
  dist -> Ftr_prng.Rng.t -> start:int -> trials:int -> Ftr_stats.Summary.t
(** Summary of {!simulate_aggregate} over repeated trials. *)

val sample_full : dist -> Ftr_prng.Rng.t -> int array
(** One draw of the whole offset set (both signs), sorted ascending,
    always containing ±1. *)

val simulate_two_sided : dist -> Ftr_prng.Rng.t -> start:int -> int
(** Steps for two-sided greedy routing from [start] to 0 with fresh ∆
    draws at every node (the Section 4.2.1 two-sided model). *)
