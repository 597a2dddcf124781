(** Compact fixed-size bitsets.

    Failure experiments mark up to 2^17 nodes (and 17x that many links)
    dead per trial; bitsets keep that mask at one bit per entity. *)

type t

val create : int -> t
(** All-clear bitset of the given size.
    @raise Invalid_argument on a negative size. *)

val get : t -> int -> bool
(** Read one bit. @raise Invalid_argument when out of range. *)

val unsafe_get : t -> int -> bool
(** Read one bit without the range check — for hot loops whose indices are
    validated once up front (the routing inner loop). Out-of-range indices
    are undefined behaviour. *)

val set : t -> int -> unit
(** Set one bit. *)

val clear : t -> int -> unit
(** Clear one bit. *)

val fill : t -> bool -> unit
(** Set or clear every bit. *)

(* ftr-lint: disable T6 -- oracle: the failure and heuristic tests count live nodes with it *)
val count : t -> int
(** Number of set bits. *)
