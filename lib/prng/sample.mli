(** Discrete distribution samplers.

    The power-law sampler is the heart of the paper's link model: a link of
    length [d] is chosen with probability proportional to [1/d] (inverse
    power law with exponent 1, Section 4.3). We precompute prefix sums of
    [d^-exponent] once per network size and draw by inverse CDF: the
    answer is the first length whose prefix sum exceeds [u] times the
    total. The search starts from a guess, the closed-form inverse of the
    prefix sum ([ln d + C] for exponent 1, [d^(1-s)/(1-s) + C] otherwise,
    [C] fitted from the table's last entry), gallops outward by 1, 2, 4,
    ... to bracket the answer, and bisects the bracket. Every probe tests
    the same predicate as a plain binary search, and for a nondecreasing
    table that predicate is monotone, so the answer is the binary search's
    answer bit for bit, float plateaus included; the guess only sets the
    speed: at [n = 2^20] a draw makes about two probes for exponents 0 to
    3, against about 20 for a plain binary search. *)

(** {1 Tabulated categorical distributions} *)

type cdf
(** Cumulative-probability table for inverse-CDF sampling. *)

val cdf_of_weights : float array -> cdf
(** Normalise non-negative weights into a CDF table.
    @raise Invalid_argument on empty, negative, NaN or all-zero weights. *)

val cdf_draw : cdf -> Rng.t -> int
(** Draw an index with probability proportional to its weight; O(log n). *)

val cdf_size : cdf -> int
(** Number of categories. *)

val cdf_probability : cdf -> int -> float
(** Normalised probability of index [i].
    @raise Invalid_argument if out of range. *)

(** {1 Classical distributions} *)

val exponential : Rng.t -> rate:float -> float
(** Exponential variate with the given rate.
    @raise Invalid_argument if [rate <= 0]. *)

val geometric : Rng.t -> p:float -> int
(** Trials up to and including the first success; support [1, 2, ...].
    @raise Invalid_argument unless [0 < p <= 1]. *)

val poisson : Rng.t -> lambda:float -> int
(** Poisson variate. Used by the Section 5 heuristic to estimate the number
    of incoming links a new node should solicit.
    @raise Invalid_argument if [lambda < 0]. *)

val binomial : Rng.t -> n:int -> p:float -> int
(** Binomial(n, p) variate.
    @raise Invalid_argument if [n < 0] or [p] outside [0,1]. *)

(** {1 Power-law link lengths} *)

type power_law
(** Precomputed prefix sums of [d^-exponent] for lengths [1..max_length]. *)

val power_law : exponent:float -> max_length:int -> power_law
(** Build the table. With [exponent = 1.0] this is the paper's harmonic
    link-length distribution; its terms are [1 /. d], bit for bit the
    [1 /. Float.pow d 1.0] of the general case without the [pow] call.
    @raise Invalid_argument if [max_length < 1]. *)

val power_law_draw : power_law -> Rng.t -> upto:int -> int
(** Draw a length in [1, upto] with probability proportional to
    [d^-exponent], restricted to the first [upto] lengths (used to condition
    on staying inside the line segment). It is
    [power_law_quantile t ~upto (Rng.float rng)], and allocates nothing.
    @raise Invalid_argument if [upto] is out of range. *)

val power_law_quantile : power_law -> upto:int -> float -> int
(** [power_law_quantile t ~upto u], for [u] in [\[0, 1)], is the draw's
    deterministic core: the smallest length [d < upto] whose prefix sum
    exceeds [u *. power_law_total t ~upto], or [upto] if none does.
    @raise Invalid_argument if [upto] is out of range. *)

val power_law_total : power_law -> upto:int -> float
(** Normalising constant [sum_{d=1..upto} d^-exponent]. *)
