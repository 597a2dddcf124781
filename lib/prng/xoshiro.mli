(** xoshiro256** pseudo-random generator (Blackman & Vigna 2018).

    The workhorse generator for all simulations: 256 bits of state, period
    2^256 - 1, and excellent statistical quality. Deterministic across
    platforms and OCaml versions, unlike [Stdlib.Random]. *)

type t
(** Mutable generator state; never all-zero. The four 64-bit words are
    stored unboxed in one 32-byte buffer, so a step allocates nothing;
    only {!next_int64} boxes its result. *)

val create : int64 -> t
(** [create seed] seeds the four state words from a SplitMix64 stream. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val of_state : int64 -> int64 -> int64 -> int64 -> t
(** Build from four raw state words.
    @raise Invalid_argument if all four words are zero. *)

val next_int64 : t -> int64
(** Advance the state and return the next 64-bit output. *)

val next_bits : t -> int -> int
(** [next_bits t shift] advances the state exactly as {!next_int64} does
    and returns that output shifted right (logically) by [shift] bits,
    truncated to an OCaml [int]. It allocates nothing. For [shift >= 2]
    the result is the top [64 - shift] bits of the output, non-negative;
    for [shift = 0] its low bits are the output's low bits. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    decorrelated from [t]'s. Used to give each simulated entity its own
    stream so that adding draws in one place does not perturb another. *)

val advance : t -> int -> unit
(** [advance t k] moves [t] exactly [k] steps forward in place, to the
    state that [k] calls of {!next_int64} would leave, in O(log k)
    polynomial squarings mod the transition's characteristic polynomial
    (the state transition is linear over GF(2)). Lets a caller place
    generators at known offsets of one stream, for example one per chunk
    of a parallel fill.
    @raise Invalid_argument if [k < 0]. *)

val jump_poly : int -> int64 array
(** [jump_poly j] is x{^2{^j}} mod p, p the characteristic polynomial of
    the state transition, as four 64-bit words: bit [b] of word [w] is the
    coefficient of x{^64w+b}. That is the format of the reference
    implementation's jump constants: [jump_poly 128] is its [JUMP] and
    [jump_poly 192] its [LONG_JUMP]. Exposed so the polynomial can be
    checked against them.
    @raise Invalid_argument if [j < 0]. *)
