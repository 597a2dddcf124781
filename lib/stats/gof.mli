(** Goodness-of-fit distances for comparing the heuristic's derived link
    distribution against the ideal 1/d law (Figure 5). *)

val total_variation : empirical:float array -> model:float array -> float
(** Total-variation distance between two pmfs over the same support.
    @raise Invalid_argument on mismatched lengths. *)

val max_abs_error : empirical:float array -> model:float array -> float * int
(** Largest pointwise gap and the index where it occurs (the paper reports
    max ≈ 0.022 at link length 2). *)

val ks_statistic : empirical:float array -> model:float array -> float
(** Kolmogorov–Smirnov distance between the CDFs of two pmfs. *)

val chi_square : observed:int array -> expected:float array -> float
(** Pearson chi-square statistic; cells with zero expectation must also
    have zero observations.
    @raise Invalid_argument otherwise or on mismatched lengths. *)

(* ftr-lint: disable T6 -- oracle: test_aggregate compares Lemma 4's two chains with it *)
val ks_two_sample : float array -> float array -> float
(** Two-sample KS statistic between raw samples.
    @raise Invalid_argument on an empty sample. *)
