(** d-dimensional torus with L1 distance.

    Substrate for the Kleinberg 2-D small-world baseline and the CAN-style
    coordinate-space baseline, and for the paper's "higher dimensions"
    future-work direction. Points are linearised indices. *)

type t

val create : dims:int -> side:int -> t
(** Torus with [dims] axes of [side] points each ([side^dims] points total).
    @raise Invalid_argument unless both are positive. *)

val dims : t -> int
(** Number of axes. *)

val side : t -> int
(** Points per axis. *)

val size : t -> int
(** Total number of points. *)

val contains : t -> int -> bool
(** Whether a linear index is valid. *)

val coords : t -> int -> int array
(** Decode a linear index into per-axis coordinates. *)

val index : t -> int array -> int
(** Encode coordinates into a linear index.
    @raise Invalid_argument on wrong dimensionality or range. *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_metric uses it *)
val axis_distance : t -> int -> int -> int
(** Wraparound distance along a single axis. *)

val distance : t -> int -> int -> int
(** L1 distance with wraparound on every axis. *)

val neighbors : t -> int -> int list
(** Lattice neighbours (distance exactly 1), deduplicated. *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_metric uses it *)
val move : t -> int -> axis:int -> delta:int -> int
(** Step [delta] along one axis with wraparound. *)
