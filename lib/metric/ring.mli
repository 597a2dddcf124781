(** Identifier circle of [size] points (the Chord metric space, and the
    paper's suggestion that its results carry over to the circle). *)

type t

val create : int -> t
(** A ring with the given number of points.
    @raise Invalid_argument if the size is not positive. *)

val size : t -> int
(** Number of points. *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_metric uses it *)
val normalize : t -> int -> int
(** Map any integer onto the ring (mod size, non-negative). *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_metric uses it *)
val distance : t -> int -> int -> int
(** Shorter-arc distance.
    @raise Invalid_argument if a point is out of range. *)

val clockwise_distance : t -> src:int -> dst:int -> int
(** Arc length from [src] to [dst] in the increasing direction; this is the
    one-sided metric Chord's fingers route over. *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_metric uses it *)
val add : t -> int -> int -> int
(** [add t p delta] moves [delta] steps around the ring. *)
