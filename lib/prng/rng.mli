(** Convenience layer over {!Xoshiro}: bounded integers without modulo bias,
    floats in [0,1), Bernoulli draws, shuffles and permutations.

    Every simulation component takes one of these explicitly — there is no
    hidden global generator, so every experiment is reproducible from its
    seed.

    {b Not domain-safe.} A generator is mutable state with no internal
    synchronisation: two domains drawing from the same [t] is a data race,
    and even a benign-looking share makes output depend on scheduling.
    Parallel code must not pass generators across domains — a job running
    under [Ftr_exec] obtains its generator from [Ftr_exec.Seed.rng_for]
    (a pure function of the sweep seed and the job index), which is the
    only sanctioned path; [Ftr_exec.Pool] asserts under [FTR_CHECK=1]
    that no job ever receives the sweep's root generator. *)

type t
(** A generator (mutable state). *)

val create : ?seed:int64 -> unit -> t
(** Fresh generator; default seed is fixed so unseeded uses are still
    deterministic. *)

val of_int : int -> t
(** Generator seeded from an OCaml [int]. *)

val split : t -> t
(** Child generator with a decorrelated stream; advances the parent. *)

val copy : t -> t
(** Copy of the current state (same future stream). *)

val advance : t -> int -> unit
(** [advance t k] moves [t] exactly [k] raw outputs forward in place
    ({!Xoshiro.advance}, O(log k)): afterwards [t] draws what it would
    have drawn after [k] calls of {!bits64}. A helper that consumes one
    output per call ({!bits}, {!float}, {!bool}) is skipped by its call
    count; {!int} on a non-power-of-two bound can reject, so it has no
    fixed count.
    @raise Invalid_argument if [k < 0]. *)

val bits64 : t -> int64
(** Raw 64-bit output. *)

val bits : t -> int
(** Uniform non-negative int in [0, 2^62). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound), bias-free.
    @raise Invalid_argument if [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range [lo, hi].
    @raise Invalid_argument if [lo > hi]. *)

val float : t -> float
(** Uniform in [0, 1) with 53 bits of precision. *)

val float_range : t -> lo:float -> hi:float -> float
(** Uniform in [lo, hi). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val pick : t -> 'a array -> 'a
(** Uniformly random element.
    @raise Invalid_argument on an empty array. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)
