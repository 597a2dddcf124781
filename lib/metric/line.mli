(** The paper's primary metric space: [size] grid points 0..size-1 on a
    one-dimensional real line, with absolute-difference distance. *)

type t

val create : int -> t
(** A line of the given number of grid points.
    @raise Invalid_argument if the size is not positive. *)

val contains : t -> int -> bool
(** Whether the point lies on the line. *)

val distance : t -> int -> int -> int
(** Absolute distance |a - b|.
    @raise Invalid_argument if either point is off the line. *)

val directed : t -> src:int -> dst:int -> int
(** Signed offset from [src] to [dst] (positive when [dst] is right of
    [src]). *)

val clamp : t -> int -> int
(** Nearest on-line point to an arbitrary integer. *)

val midpoint : t -> int -> int -> int
(** Floor midpoint of two points. *)
