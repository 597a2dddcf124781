(** SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).

    A tiny, fast, well-mixed 64-bit generator with a single word of state.
    Its primary role here is seeding: every {!Xoshiro} instance derives its
    four state words from a SplitMix64 stream, as recommended by the xoshiro
    authors, which also gives us cheap stream splitting. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] builds a generator from a raw 64-bit seed. *)

val of_int : int -> t
(** [of_int seed] builds a generator from an OCaml [int] seed. *)

val next_int64 : t -> int64
(** Advance the state and return the next 64-bit output. *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_prng uses it *)
val copy : t -> t
(** Independent copy of the current state. *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_prng uses it *)
val state : t -> int64
(** Current raw state (for debugging and tests). *)
