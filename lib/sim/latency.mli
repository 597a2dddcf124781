(** Per-message delay models for protocol simulations: fixed delays for
    determinism-friendly runs, jittered and heavy-tailed ones to check that
    conclusions survive asynchrony. *)

type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }

val constant : float -> t
(** Fixed delay. @raise Invalid_argument unless positive. *)

(* ftr-lint: disable T6 -- ROADMAP item 15: the two asynchrony tests it names *)
val uniform : lo:float -> hi:float -> t
(** Uniform jitter in [lo, hi]. @raise Invalid_argument unless
    [0 < lo <= hi]. *)

(* ftr-lint: disable T6 -- ROADMAP item 15: the two asynchrony tests it names *)
val exponential : mean:float -> t
(** Heavy-ish tail with the given mean (clamped away from zero).
    @raise Invalid_argument unless the mean is positive. *)

val sample : t -> Ftr_prng.Rng.t -> float
(** One delay draw; always strictly positive. *)

(* ftr-lint: disable T6 -- ROADMAP item 15: leaves with lib/sim *)
val mean : t -> float
(** Expected delay of the model. *)
