(** Ordinary least-squares line fitting.

    Scaling experiments fit measured delivery times against the predicted
    bound (e.g. hops vs H_n² for Theorem 12) and report the slope and R²;
    log-log fits estimate empirical exponents. *)

type fit = { slope : float; intercept : float; r2 : float }

(* ftr-lint: disable T6 -- ROADMAP items 5 and 16: the scaling-exponent fit *)
val fit : xs:float array -> ys:float array -> fit
(** Least-squares fit of [y = intercept + slope * x].
    @raise Invalid_argument on mismatched lengths, fewer than two points,
    or constant [xs]. *)

(* ftr-lint: disable T6 -- ROADMAP items 5 and 16: the scaling-exponent fit *)
val predict : fit -> float -> float
(** Evaluate the fitted line. *)

(* ftr-lint: disable T6 -- ROADMAP items 5 and 16: the scaling-exponent fit *)
val loglog_fit : xs:float array -> ys:float array -> fit
(** Fit in log-log space; the slope is the empirical power-law exponent.
    @raise Invalid_argument if any value is non-positive. *)
