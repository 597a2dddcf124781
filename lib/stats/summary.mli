(** Single-pass summary statistics (Welford's algorithm).

    Used to accumulate hop counts, failure indicators and construction costs
    across thousands of simulated searches without storing samples. *)

type t
(** Mutable accumulator. *)

val create : unit -> t
(** Empty accumulator. *)

val add : t -> float -> unit
(** Fold in one observation. *)

val add_int : t -> int -> unit
(** Fold in an integer observation. *)

val of_array : float array -> t
(** Accumulator over all elements of an array. *)

val count : t -> int
(** Number of observations. *)

val mean : t -> float
(** Sample mean; [nan] when empty. *)

(* ftr-lint: disable T6 -- oracle: test_prng checks sampler variances with it *)
val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two observations. *)

val ci95_halfwidth : t -> float
(** Half-width of the 95% confidence interval for the mean: the standard
    error times the Student-t critical value for the sample size (matters for experiment
    means averaged over a handful of networks). *)

val min_value : t -> float
(** Smallest observation; [nan] when empty. *)

val max_value : t -> float
(** Largest observation; [nan] when empty. *)

val total : t -> float
(** Sum of all observations. *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_stats uses it *)
val merge : t -> t -> t
(** Combine two accumulators as if their samples were pooled. *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_stats uses it *)
val pp : Format.formatter -> t -> unit
(** Human-readable one-line rendering. *)
