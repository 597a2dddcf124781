(** Quantile estimation (type-7, the R default): linear interpolation
    between order statistics. *)

val of_sorted : float array -> float -> float
(** [of_sorted sorted q] with [sorted] in ascending order.
    @raise Invalid_argument on an empty array or [q] outside [0,1]. *)

val compute : float array -> float -> float
(** As {!of_sorted} but sorts a copy first. *)
