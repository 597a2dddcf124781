(** Recurring activities: the timer patterns every protocol layer needs
    (stabilization ticks, Poisson churn, bounded repetition), packaged so
    that a run with a horizon always terminates. *)

(* ftr-lint: disable T6 -- ROADMAP item 15: leaves with lib/sim *)
val every : Engine.t -> period:float -> until:float -> (unit -> unit) -> unit
(** Call [f] every [period] time units, first firing one period from now,
    stopping at the [until] horizon.
    @raise Invalid_argument on a non-positive period. *)

(* ftr-lint: disable T6 -- ROADMAP item 15: leaves with lib/sim *)
val poisson :
  Engine.t -> Ftr_prng.Rng.t -> rate:float -> until:float -> (unit -> unit) -> unit
(** Call [f] at exponentially distributed gaps with the given rate until
    the horizon. @raise Invalid_argument on a non-positive rate. *)

(* ftr-lint: disable T6 -- ROADMAP item 15: leaves with lib/sim *)
val countdown : Engine.t -> period:float -> times:int -> (int -> unit) -> unit
(** Call [f 0], [f 1], ..., [f (times-1)] at fixed intervals, one period
    apart, starting one period from now.
    @raise Invalid_argument on bad parameters. *)
